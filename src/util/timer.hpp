#pragma once
// Wall-clock timing for experiment CPU-time columns. The paper reports CPU
// seconds on late-90s SPARC hardware; we report wall-clock seconds on the
// host and compare only time *ratios* across regimes.

#include <chrono>

namespace fixedpart::util {

class Timer {
 public:
  /// Monotonic, like every timing source in this repo (Deadline, the svc
  /// heartbeat watchdog, obs trace spans): a wall-clock step must not bend
  /// measured durations.
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "Timer must be immune to system-clock jumps");

  Timer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last restart().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

}  // namespace fixedpart::util
