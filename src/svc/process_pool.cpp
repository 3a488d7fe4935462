#include "svc/process_pool.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "hg/io_common.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_wire.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace fixedpart::svc {

namespace {

struct WorkerMetrics {
  obs::MetricId spawned, crashed, oom_kills, respawns, hang_kills;
  obs::MetricId rss_peak_kb;
};

const WorkerMetrics& worker_metrics() {
  static const WorkerMetrics metrics = [] {
    auto& reg = obs::Registry::global();
    return WorkerMetrics{
        reg.counter("svc.worker.spawned"),
        reg.counter("svc.worker.crashed"),
        reg.counter("svc.worker.oom_kills"),
        reg.counter("svc.worker.respawns"),
        reg.counter("svc.worker.hang_kills"),
        reg.gauge("svc.worker.rss_peak_kb"),
    };
  }();
  return metrics;
}

JobOutcome parse_outcome_line(const std::string& line) {
  std::istringstream in(line + "\n");
  hg::LineReader reader(in, "worker", '#');
  std::string read;
  if (!reader.next(read)) {
    throw hg::ParseError("worker", 1, "empty outcome frame");
  }
  return job_outcome_from_json(read, reader);
}

std::string describe_signal(int sig) {
  const char* name = nullptr;
  switch (sig) {
#ifdef __unix__
    case SIGSEGV: name = "SIGSEGV"; break;
    case SIGABRT: name = "SIGABRT"; break;
    case SIGBUS: name = "SIGBUS"; break;
    case SIGILL: name = "SIGILL"; break;
    case SIGFPE: name = "SIGFPE"; break;
    case SIGKILL: name = "SIGKILL"; break;
    case SIGXCPU: name = "SIGXCPU"; break;
    case SIGTERM: name = "SIGTERM"; break;
#endif
    default: break;
  }
  std::string out = "signal " + std::to_string(sig);
  if (name != nullptr) out += std::string(" (") + name + ")";
  return out;
}

bool message_is_oom(const std::string& message) {
  return message.find("out of memory") != std::string::npos;
}

}  // namespace

std::string resolve_worker_path(const std::string& flag) {
  std::string path = flag;
  if (path.empty()) {
    const std::string dir = util::self_exe_dir();
    if (!dir.empty()) path = dir + "/fixedpart-worker";
  }
  if (path.empty() || !std::filesystem::exists(path)) {
    throw util::InputError(
        "process isolation: worker binary not found" +
        (path.empty() ? std::string() : ": " + path) +
        " (build the fixedpart_worker target or pass --worker=PATH)");
  }
  return path;
}

ProcessPool::ProcessPool(ProcessPoolConfig config)
    : config_(std::move(config)) {
  if (config_.worker_path.empty() ||
      !std::filesystem::exists(config_.worker_path)) {
    throw util::InputError("process pool: worker binary not found: " +
                           config_.worker_path);
  }
  if (config_.max_job_crashes < 1) {
    throw std::invalid_argument("process pool: max_job_crashes < 1");
  }
  // The daemon must survive a worker dying mid-frame as EPIPE, not
  // SIGPIPE (idempotent; leaves an app-installed handler alone).
  util::ignore_sigpipe();
  reaper_ = std::thread([this] { reaper_loop(); });
}

ProcessPool::~ProcessPool() {
  stopping_.store(true, std::memory_order_release);
  if (reaper_.joinable()) reaper_.join();
}

void ProcessPool::reaper_loop() {
  if (config_.heartbeat_timeout_seconds <= 0.0) return;
  const auto limit_ms =
      static_cast<std::int64_t>(config_.heartbeat_timeout_seconds * 1000.0);
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<std::shared_ptr<LiveWorker>> scan;
    {
      std::lock_guard<std::mutex> lock(mu_);
      scan.assign(live_.begin(), live_.end());
    }
    const std::int64_t now = steady_ms();
    for (const auto& worker : scan) {
      const std::int64_t age =
          now - worker->last_beat_ms.load(std::memory_order_acquire);
      if (age > limit_ms &&
          !worker->hang_killed.exchange(true, std::memory_order_acq_rel)) {
        // Heartbeat-silent past the limit: presumed wedged. The attendant
        // sees EOF, reaps, and classifies the exit as a hang crash.
        obs::log_warn("svc", "reaper killing heartbeat-silent worker",
                      {{"pid", static_cast<std::int64_t>(worker->pid)},
                       {"age_seconds", static_cast<double>(age) / 1000.0}});
        util::kill_child(worker->pid, SIGKILL);
      }
    }
  }
}

JobResult ProcessPool::attempt(const JobSpec& spec,
                               const util::Deadline& deadline) {
  auto& reg = obs::Registry::global();

  // Crash-streak backoff gates the spawn, not the retry (the retry loop
  // has its own): a crash-looping fleet forks at a bounded rate.
  double backoff = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crash_streak_ > 0) {
      backoff = util::jittered_backoff_seconds(
          config_.respawn_backoff_base_seconds,
          config_.respawn_backoff_cap_seconds,
          config_.respawn_jitter_fraction, crash_streak_ - 1, spec.id,
          static_cast<std::uint64_t>(crash_streak_));
      ++stats_.respawns;
    }
  }
  if (backoff > 0.0) {
    reg.add(worker_metrics().respawns);
    if (config_.sleep_fn) {
      config_.sleep_fn(backoff);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  }

  util::SpawnLimits limits;
  limits.rlimit_as_bytes = config_.rlimit_as_bytes;
  limits.rlimit_cpu_seconds = config_.rlimit_cpu_seconds;
  limits.allow_core = config_.allow_core;
  util::ChildProcess child =
      util::spawn_worker({config_.worker_path}, limits);
  reg.add(worker_metrics().spawned);

  auto live = std::make_shared<LiveWorker>();
  live->pid = child.pid;
  live->job = spec.id;
  live->last_beat_ms.store(steady_ms(), std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.spawned;
    live_.insert(live);
  }

  // The attendant: feed the spec, consume heartbeats and span batches,
  // wait for the one outcome frame, policing the deadline with a
  // cancel-then-kill ladder. It runs on run_supervised_job's thread, so
  // the current trace context *is* the job's span buffer: worker spans
  // decoded here land next to the parent's own svc.* spans.
  const obs::TraceContext trace_ctx = obs::ScopedTraceContext::current();
  // Worker-to-parent steady-epoch offset, estimated as the minimum over
  // received 'T' frames of (parent now at receipt − worker now at
  // encode); the minimum tracks the true offset as transit jitter varies.
  std::int64_t epoch_offset_ns = 0;
  bool have_offset = false;
  std::uint64_t worker_dropped_seen = 0;
  std::string outcome_line;
  bool have_outcome = false;
  {
    (void)util::write_frame(child.to_child, util::kFrameJob,
                            to_json_line(spec));
    util::FrameReader reader(child.from_child);
    bool cancel_sent = false;
    std::int64_t kill_at_ms = 0;
    char type = 0;
    std::string payload;
    for (;;) {
      const auto status = reader.poll_frame(50, &type, &payload);
      if (status == util::FrameReader::Status::kFrame) {
        live->last_beat_ms.store(steady_ms(), std::memory_order_release);
        if (type == util::kFrameOutcome) {
          outcome_line = payload;
          have_outcome = true;
          break;
        }
        if (type == util::kFrameSpans) {
          // Untrusted payload: decode is defensive (caps, skip-and-count)
          // and a malformed batch degrades only this job's trace.
          obs::SpanBatchHeader header;
          std::vector<obs::TraceEvent> batch;
          std::size_t malformed = 0;
          if (obs::decode_span_batch(payload, &header, &batch, &malformed)) {
            const std::int64_t offset =
                obs::trace_now_ns() - header.worker_now_ns;
            if (!have_offset || offset < epoch_offset_ns) {
              epoch_offset_ns = offset;
              have_offset = true;
            }
            for (obs::TraceEvent& event : batch) {
              event.start_ns += epoch_offset_ns;
              event.pid = static_cast<std::uint32_t>(child.pid);
              event.trace_id = trace_ctx.trace_id;
              if (trace_ctx.buffer != nullptr) {
                trace_ctx.buffer->record(event);
              }
            }
            if (!batch.empty()) {
              live->last_span.store(batch.back().name,
                                    std::memory_order_release);
            }
            if (trace_ctx.buffer != nullptr) {
              if (header.dropped > worker_dropped_seen) {
                trace_ctx.buffer->add_remote_dropped(header.dropped -
                                                     worker_dropped_seen);
                worker_dropped_seen = header.dropped;
              }
              trace_ctx.buffer->add_remote_dropped(malformed);
            }
          }
          continue;
        }
        continue;  // heartbeat (or an unknown type from a newer worker)
      }
      if (status == util::FrameReader::Status::kEof) break;
      // Timeout tick: police the supervisor-side deadline (budget, user
      // cancel, watchdog — all funnel through deadline.expired()).
      const std::int64_t now = steady_ms();
      if (!cancel_sent && deadline.expired()) {
        cancel_sent = true;
        kill_at_ms =
            now + static_cast<std::int64_t>(
                      std::max(config_.cancel_grace_seconds, 0.0) * 1000.0);
        (void)util::write_frame(child.to_child, util::kFrameCancel, "");
      }
      if (cancel_sent && now >= kill_at_ms &&
          !live->hang_killed.exchange(true, std::memory_order_acq_rel)) {
        // The grace ran out without a best-so-far outcome: the worker is
        // not unwinding cooperatively — treat it like a hang.
        util::kill_child(child.pid, SIGKILL);
      }
    }
  }

#ifdef __unix__
  close(child.to_child);
  close(child.from_child);
#endif
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(live);
  }
  const util::ExitStatus exit = util::wait_child(child.pid);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (exit.max_rss_kb > stats_.rss_peak_kb) {
      stats_.rss_peak_kb = exit.max_rss_kb;
      reg.set(worker_metrics().rss_peak_kb,
              static_cast<double>(exit.max_rss_kb));
    }
  }

  if (have_outcome) {
    JobOutcome outcome;
    bool parsed = false;
    try {
      outcome = parse_outcome_line(outcome_line);
      parsed = outcome.id == spec.id;
    } catch (const hg::ParseError&) {
      parsed = false;
    }
    if (parsed) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        crash_streak_ = 0;  // a clean protocol exit ends the streak
        if (outcome.status == JobStatus::kOk ||
            outcome.status == JobStatus::kTruncated) {
          crash_counts_.erase(spec.id);
        }
      }
      if (outcome.status == JobStatus::kOk ||
          outcome.status == JobStatus::kTruncated) {
        JobResult result;
        result.cut = outcome.cut;
        result.truncated = outcome.truncated;
        result.moves = outcome.moves;
        result.passes = outcome.passes;
        return result;
      }
      // The worker caught an engine error and reported its class; rethrow
      // as the original taxonomy type so run_supervised_job's decision —
      // fail fast vs retry — is identical to the in-process path.
      switch (outcome.error) {
        case ErrorClass::kInput:
          throw util::InputError(outcome.message);
        case ErrorClass::kInfeasible:
          throw util::InfeasibleError(outcome.message);
        case ErrorClass::kTransient:
          if (message_is_oom(outcome.message)) {
            // RLIMIT_AS contained the allocation inside the worker: the
            // job is classified OOM without anything having died.
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.oom_kills;
            reg.add(worker_metrics().oom_kills);
          }
          throw TransientError(outcome.message);
        default:
          throw std::runtime_error(outcome.message);
      }
    }
    // Unparseable or mismatched outcome: fall through to crash handling.
  }

  // No clean outcome: classify the exit at the process boundary.
  const bool hang = live->hang_killed.load(std::memory_order_acquire);
  bool oom = false;
  std::string how;
  if (hang) {
    how = "worker hung (heartbeat-silent / ignored cancel); SIGKILLed";
  } else if (exit.signaled) {
    how = "worker died: " + describe_signal(exit.term_signal);
    if (exit.term_signal == SIGKILL) {
      // Not our kill (hang covers those): the kernel OOM killer is the
      // expected sender under memory pressure.
      oom = true;
      how += " [oom-kill]";
    }
  } else if (exit.exited && exit.exit_code == 127) {
    how = "worker exec failed (exit 127): " + config_.worker_path;
  } else if (exit.exited && exit.exit_code == 0) {
    how = have_outcome ? "worker sent a malformed outcome frame"
                       : "worker exited without an outcome frame";
  } else {
    how = "worker exited with code " + std::to_string(exit.exit_code);
  }
  how += " (job " + spec.id + ", pid " + std::to_string(child.pid) + ")";

  int crashes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.crashed;
    ++crash_streak_;
    if (hang) ++stats_.hang_kills;
    if (oom) ++stats_.oom_kills;
    crashes = ++crash_counts_[spec.id];
  }
  reg.add(worker_metrics().crashed);
  if (hang) reg.add(worker_metrics().hang_kills);
  if (oom) reg.add(worker_metrics().oom_kills);
  obs::log_warn("svc", "worker crash",
                {{"id", spec.id},
                 {"pid", static_cast<std::int64_t>(child.pid)},
                 {"what", how},
                 {"job_crashes", crashes}});
  if (!config_.flight_dir.empty()) {
    // Leave the timeline that explains the crash/hang counter increment:
    // parent-side flight ring + the worker's last streamed phase.
    const char* last = live->last_span.load(std::memory_order_acquire);
    obs::FlightRecorder::global().dump(config_.flight_dir,
                                       hang ? "hang" : "crash", spec.id,
                                       last != nullptr ? last : "");
  }

  if (crashes >= config_.max_job_crashes) {
    throw WorkerPoisonedError("job crashed " + std::to_string(crashes) +
                              " workers; poisoned: " + how);
  }
  throw WorkerCrashError(how);
}

ProcessPoolStats ProcessPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string ProcessPool::stats_json() const {
  const auto escape = [](const std::string& text) {
    std::string out;
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out;
  };
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"spawned\": " << stats_.spawned
      << ", \"crashed\": " << stats_.crashed
      << ", \"oom_kills\": " << stats_.oom_kills
      << ", \"respawns\": " << stats_.respawns
      << ", \"hang_kills\": " << stats_.hang_kills
      << ", \"rss_peak_kb\": " << stats_.rss_peak_kb << ", \"live\": [";
  const std::int64_t now = steady_ms();
  bool first = true;
  for (const auto& worker : live_) {
    const char* span = worker->last_span.load(std::memory_order_acquire);
    const double beat_age =
        static_cast<double>(
            now - worker->last_beat_ms.load(std::memory_order_acquire)) /
        1000.0;
    out << (first ? "" : ", ") << "{\"pid\": " << worker->pid
        << ", \"job\": \"" << escape(worker->job) << "\", \"phase\": \""
        << escape(span != nullptr ? span : "") << "\", \"beat_age_seconds\": "
        << beat_age << "}";
    first = false;
  }
  out << "]}";
  return out.str();
}

}  // namespace fixedpart::svc
