#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace fixedpart::util {

std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

double jittered_backoff_seconds(double base_seconds, double cap_seconds,
                                double jitter_fraction, int step,
                                std::string_view key, std::uint64_t salt) {
  const double delay =
      std::min(base_seconds * std::ldexp(1.0, std::min(step, 30)),
               cap_seconds);
  const std::uint64_t bits = splitmix64(fnv1a(key) ^ salt);
  const double unit = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return delay * (1.0 + jitter_fraction * unit);
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  // The SplitMix64 stream from `seed`: word i mixes seed + i * gamma.
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
    s += kSplitMix64Gamma;
  }
  // A zero state would be a fixed point of the generator.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::next_below: bound == 0");
  // Lemire's method: multiply-shift with rejection of the biased low range.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::next_in: lo > hi");
  const auto range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full 64-bit span
  return lo + static_cast<std::int64_t>(next_below(range));
}

double Rng::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_gaussian() {
  // Box-Muller; u1 is bounded away from zero so log() is finite.
  const double u1 = (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = next_double();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::fork() {
  Rng child;
  child.reseed(next() ^ 0xd1b54a32d192ed03ULL);
  return child;
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream) {
  // Mix the stream index through SplitMix64 before combining so that
  // consecutive indices land on unrelated seeds (seed ^ stream alone would
  // make streams 2k/2k+1 of seed 0/1 collide pairwise).
  const std::uint64_t mixed = splitmix64(stream ^ 0xa0761d6478bd642fULL);
  Rng child;
  child.reseed(seed ^ mixed);
  return child;
}

std::vector<std::uint32_t> Rng::sample_indices(std::uint32_t n,
                                               std::uint32_t k) {
  if (k > n) throw std::invalid_argument("Rng::sample_indices: k > n");
  std::vector<std::uint32_t> all(n);
  for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: the first k slots become the sample.
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::uint32_t>(next_below(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace fixedpart::util
