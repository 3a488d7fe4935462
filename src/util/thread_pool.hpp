#pragma once
// A reusable shared-memory worker pool (docs/PARALLELISM.md). One
// process-wide pool is shared by every parallel section — today the
// multistart starts of MultilevelPartitioner::best_of_parallel — so
// concurrent jobs divide the machine instead of oversubscribing it: total
// runnable threads is bounded by the pool size plus the number of caller
// threads, never by the *sum* of each call site's requested width.
//
// The only primitive is parallel_for: the calling thread always
// participates (so a parallel section inside a pool worker — nested
// parallelism — can never deadlock, it simply degrades toward serial
// execution when every worker is busy), and pool workers join a section
// only up to its max_threads cap. Work items are claimed dynamically from
// a shared atomic counter; callers that need deterministic output must
// make each item's result a pure function of its index, which is exactly
// the discipline best_of_parallel follows (one pre-forked RNG stream per
// start).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fixedpart::util {

class ThreadPool {
 public:
  /// A pool with `workers` resident worker threads (>= 0). Zero workers is
  /// valid: every parallel_for then runs entirely on the calling thread.
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// The process-wide pool: hardware_concurrency() - 1 workers (callers
  /// participate, so total concurrency matches the core count), overridable
  /// via FIXEDPART_POOL_THREADS. Created on first use, never destroyed
  /// before process exit.
  static ThreadPool& shared();

  /// Runs fn(i) exactly once for every i in [0, count), on the calling
  /// thread plus at most max_threads - 1 pool workers (max_threads <= 0:
  /// no cap beyond the pool size). Blocks until every index has finished.
  /// The first exception thrown by fn is rethrown here after the section
  /// drains; remaining unclaimed indices are skipped once an exception is
  /// recorded. Reentrant: fn may itself call parallel_for on this pool.
  void parallel_for(std::int64_t count,
                    int max_threads,
                    const std::function<void(std::int64_t)>& fn);

 private:
  /// One parallel section. Indices are claimed via `next`; `completed`
  /// counts indices whose fn call (or post-abort skip) has finished, and
  /// reaching `count` signals the waiting caller through `cv`.
  struct Section {
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::int64_t count = 0;
    int max_helpers = 0;  ///< pool workers allowed to join (caller excluded)
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> completed{0};
    std::atomic<int> helpers{0};
    std::atomic<bool> aborted{false};
    std::mutex mu;  ///< guards error + completion signalling
    std::condition_variable cv;
    std::exception_ptr error;
  };

  void worker_loop();
  /// Claims and runs indices of `section` until none are left.
  static void drain(Section& section);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Section>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fixedpart::util
