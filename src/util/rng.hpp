#pragma once
// Deterministic pseudo-random number generation for reproducible experiments.
//
// All randomized components in the library (initial partitions, tie breaking,
// synthetic netlist generation, fixed-vertex selection) draw from Rng so that
// a (seed, code path) pair fully determines the outcome on every platform.
// std::mt19937 + distribution objects are deliberately avoided: the standard
// distributions are implementation-defined and would make experiment results
// differ across standard libraries. The FNV-1a hash and SplitMix64 mixer
// below derive job ids, trace ids, seeds and retry jitter from strings.

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

namespace fixedpart::util {

/// SplitMix64 increment (the 64-bit golden ratio).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// One SplitMix64 output for state `x`: mix(x + kSplitMix64Gamma). The
/// seed expander of Rng, and the mixer that turns a hash into a seed, a
/// job id half or a jitter draw.
std::uint64_t splitmix64(std::uint64_t x);

/// 64-bit FNV-1a of `bytes`. Job ids, trace ids, per-instance series
/// seeds and the .fpbin payload checksum all derive from it, so its
/// output is part of the .fpbin format and of every journaled job id.
std::uint64_t fnv1a(std::string_view bytes);

/// Capped exponential backoff with deterministic jitter:
/// min(base * 2^min(step, 30), cap), stretched by a factor in
/// [1, 1 + jitter_fraction) drawn from splitmix64(fnv1a(key) ^ salt), so
/// the same (key, salt) waits the same time on every run and host. The
/// supervisor's retry delay and the process pool's respawn delay.
double jittered_backoff_seconds(double base_seconds, double cap_seconds,
                                double jitter_fraction, int step,
                                std::string_view key, std::uint64_t salt);

/// xoshiro256** by Blackman/Vigna, seeded via SplitMix64. Fast, 256-bit
/// state, passes BigCrush; sufficient for all experiment randomization.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = kSplitMix64Gamma) { reseed(seed); }

  /// Reset the state from a 64-bit seed (expanded by SplitMix64).
  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next();

  // UniformRandomBitGenerator interface (for std::shuffle-style use).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return next(); }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// nearly-divisionless rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// true with probability p (clamped to [0,1]).
  bool next_bool(double p);

  /// Standard normal via Box-Muller (no cached second value; simple and
  /// deterministic).
  double next_gaussian();

  /// Fork an independent child stream; children of distinct calls are
  /// decorrelated. Used to give each trial/start its own stream.
  Rng fork();

  /// The `stream`-th child stream of `seed`: a pure function of its two
  /// arguments, so any thread can derive stream i independently — no
  /// parent state to advance, no ordering between derivations — and the
  /// resulting sequence is identical regardless of which thread derives
  /// it, when, or how many threads exist. The streamed instance generator
  /// (gen/stream_gen.hpp) derives one stream per cell position, cell area
  /// and net this way, so it never shares a generator. Distinct (seed,
  /// stream) pairs map to decorrelated states (SplitMix64 over a mixed
  /// 64-bit combination).
  static Rng stream(std::uint64_t seed, std::uint64_t stream);

  /// Fisher-Yates shuffle of a span.
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Sample k distinct indices from [0, n) in uniformly random order.
  std::vector<std::uint32_t> sample_indices(std::uint32_t n, std::uint32_t k);

 private:
  std::uint64_t state_[4];
};

}  // namespace fixedpart::util
