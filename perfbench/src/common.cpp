#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <numeric>

#include "part/feasibility.hpp"
#include "part/initial.hpp"
#include "part/partition.hpp"

namespace fpbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Item& item : items_) {
    if (item.name == name) {
      item.value = value;
      item.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

std::string Metrics::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    // Shortest round-trip form: every digit the double carries, no more.
    // A ratio whose base is missing (a failed run) prints as 0, never as
    // the non-JSON "inf"/"nan".
    const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    const std::string value =
        ec == std::errc() ? std::string(buf, end) : std::string("0");
    if (i > 0) out += ", ";
    out += "\"" + items_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + items_[i].unit + "\"}";
  }
  return out + "}";
}

void Tally::check(const std::string& failure) {
  ++attempted_;
  if (failure.empty()) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(failure);
}

double Tally::ok_frac() const {
  return attempted_ == 0 ? 0.0
                         : 1.0 - static_cast<double>(failed_) /
                                     static_cast<double>(attempted_);
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void reset_peak_rss() {
  // "5" resets VmHWM to the current RSS (proc(5), Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

namespace {

hg::Weight recompute_cut(const hg::Hypergraph& graph,
                         std::span<const hg::PartitionId> assignment) {
  hg::Weight cut = 0;
  for (hg::NetId e = 0; e < graph.num_nets(); ++e) {
    const auto pins = graph.pins(e);
    if (pins.empty()) continue;
    const hg::PartitionId first = assignment[pins[0]];
    for (hg::VertexId v : pins) {
      if (assignment[v] != first) {
        cut += graph.net_weight(e);
        break;
      }
    }
  }
  return cut;
}

}  // namespace

std::string check_partition(const hg::Hypergraph& graph,
                            const hg::FixedAssignment& fixed,
                            const part::BalanceConstraint& balance,
                            std::span<const hg::PartitionId> assignment,
                            hg::Weight reported_cut) {
  if (assignment.size() != static_cast<std::size_t>(graph.num_vertices())) {
    return "assignment size " + std::to_string(assignment.size()) +
           " != " + std::to_string(graph.num_vertices()) + " vertices";
  }
  const int resources = graph.num_resources();
  std::vector<hg::Weight> weights(static_cast<std::size_t>(2 * resources), 0);
  part::PartitionState state(graph, 2);
  for (hg::VertexId v = 0; v < graph.num_vertices(); ++v) {
    const hg::PartitionId p = assignment[v];
    if (p != 0 && p != 1) return "vertex " + std::to_string(v) + " unassigned";
    state.assign(v, p);
    for (int r = 0; r < resources; ++r) {
      weights[static_cast<std::size_t>(p * resources + r)] +=
          graph.vertex_weight(v, r);
    }
  }
  try {
    part::check_respects_fixed(state, fixed);
  } catch (const std::exception& error) {
    return std::string("fixed vertex moved: ") + error.what();
  }
  if (!balance.satisfied(weights) &&
      part::check_feasibility(graph, fixed, balance).feasible) {
    return "balance violated on a feasible instance";
  }
  const hg::Weight cut = recompute_cut(graph, assignment);
  if (cut != reported_cut) {
    return "reported cut " + std::to_string(reported_cut) +
           " != recomputed " + std::to_string(cut);
  }
  return "";
}

std::uint64_t derived_seed(std::uint64_t seed, int j) {
  // SplitMix64 finalizer over (seed, j): independent streams per j.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(j);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) >> 1;  // keep it a positive int64 for query strings
}

}  // namespace fpbench
