#include "svc/server.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "hg/io_binary.hpp"
#include "hg/io_common.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace fixedpart::svc {

namespace {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// The canonical form of an uploaded hypergraph: per line, surrounding
/// whitespace trimmed and runs collapsed to one space; blank and comment
/// ('%' hmetis, '#' fpb/bookshelf) lines dropped. Line structure is
/// semantic in every supported format, so lines are preserved — two
/// uploads differing only in spacing or comments hash identically, two
/// different hypergraphs never do.
std::string canonical_content(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::size_t lo = start;
    std::size_t hi = end;
    const auto is_ws = [&](std::size_t i) {
      return text[i] == ' ' || text[i] == '\t' || text[i] == '\r';
    };
    while (lo < hi && is_ws(lo)) ++lo;
    while (hi > lo && is_ws(hi - 1)) --hi;
    if (lo < hi && text[lo] != '%' && text[lo] != '#') {
      bool pending_space = false;
      for (std::size_t i = lo; i < hi; ++i) {
        if (is_ws(i)) {
          pending_space = true;
          continue;
        }
        if (pending_space && !out.empty() && out.back() != '\n') out += ' ';
        pending_space = false;
        out += text[i];
      }
      out += '\n';
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  return out;
}

std::map<std::string, std::string> parse_query(const std::string& query) {
  std::map<std::string, std::string> params;
  std::size_t start = 0;
  while (start < query.size()) {
    std::size_t end = query.find('&', start);
    if (end == std::string::npos) end = query.size();
    const std::string pair = query.substr(start, end - start);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos && eq > 0) {
      params[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
    start = end + 1;
  }
  return params;
}

/// Parses one flat-JSON spec line through the hardened manifest parser;
/// failures throw hg::ParseError labelled "request".
JobSpec parse_spec_line(const std::string& line) {
  std::istringstream in(line + "\n");
  hg::LineReader reader(in, "request", '#');
  std::string read;
  if (!reader.next(read)) throw util::InputError("request: empty job spec");
  return job_spec_from_json(read, reader);
}

/// Pulls a top-level string field out of a journal line we wrote
/// ourselves ("" when absent). Only used for the small control lines
/// (event tags, cancel ids) whose values never contain escapes.
std::string scan_string_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return "";
  return line.substr(begin, end - begin);
}

int scan_int_field(const std::string& line, const char* key, int def) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return def;
  return std::atoi(line.c_str() + at + needle.size());
}

std::string json_error(const std::string& message) {
  std::string out = "{\"error\": \"";
  for (const char c : message) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += "\"}\n";
  return out;
}

double parse_double_param(const std::string& key, const std::string& text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw util::InputError("query: " + key + ": not a number: " + text);
  }
}

std::int64_t parse_int_param(const std::string& key,
                             const std::string& text) {
  try {
    std::size_t used = 0;
    const long long value = std::stoll(text, &used);
    if (used != text.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw util::InputError("query: " + key + ": not an integer: " + text);
  }
}

// Live metric ids, registered once: the one svc metric family, whether
// the jobs arrive over HTTP (partitiond) or from a manifest (run_batch).
struct ServerMetrics {
  obs::MetricId submitted, shed, cache_hits, cancelled, recovered;
  obs::MetricId watchdog_fires;
  obs::MetricId queue_depth, inflight, heartbeat_age, trace_bytes;
  obs::MetricId job_seconds, queue_wait_seconds, job_attempts;
  obs::MetricId jobs_by_state[4];  ///< indexed by JobStatus
};

const ServerMetrics& server_metrics() {
  static const ServerMetrics metrics = [] {
    auto& reg = obs::Registry::global();
    return ServerMetrics{
        reg.counter("svc.submitted"),
        reg.counter("svc.shed"),
        reg.counter("svc.cache_hits"),
        reg.counter("svc.cancelled"),
        reg.counter("svc.recovered"),
        reg.counter("svc.watchdog_fires"),
        reg.gauge("svc.queue_depth"),
        reg.gauge("svc.inflight_workers"),
        reg.gauge("svc.heartbeat_age_seconds"),
        reg.gauge("svc.trace_bytes"),
        reg.histogram("svc.job_seconds", 0.0, 30.0, 30),
        reg.histogram("svc.queue_wait_seconds", 0.0, 30.0, 30),
        reg.histogram("svc.job_attempts", 1.0, 11.0, 10),
        {reg.counter(obs::labeled("svc.jobs", {{"state", "ok"}})),
         reg.counter(obs::labeled("svc.jobs", {{"state", "truncated"}})),
         reg.counter(obs::labeled("svc.jobs", {{"state", "failed"}})),
         reg.counter(obs::labeled("svc.jobs", {{"state", "poisoned"}}))},
    };
  }();
  return metrics;
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// One submitted job and everything the server remembers about it. The
/// shared_ptr outlives map eviction, so a worker holding one mid-run is
/// always safe.
struct PartitionServer::ServerJob {
  JobSpec spec;
  int priority = 0;
  std::uint64_t seq = 0;          ///< admission order (FIFO within priority)
  std::int64_t enqueue_ms = 0;    ///< for the queue-wait histogram
  JobState state = JobState::kQueued;
  JobOutcome outcome;             ///< valid when has_outcome
  bool has_outcome = false;
  std::atomic<bool> user_cancelled{false};
  AttemptSlot* slot = nullptr;    ///< non-null while a worker runs it
  /// Per-job span buffer, alive while the job runs (local spans plus
  /// worker spans merged by the process pool); dropped at commit once
  /// `trace` is rendered from it.
  std::shared_ptr<obs::SpanBuffer> spans;
  /// Chrome trace JSON, rendered once at commit and cached with the
  /// result. "" = no trace (unfinished, replayed, or OBS=OFF).
  std::string trace;
};

PartitionServer::PartitionServer(ServerConfig config)
    : config_(std::move(config)) {
  if (config_.workers < 1) {
    throw std::invalid_argument("PartitionServer: workers < 1");
  }
  if (config_.queue_capacity < 1) {
    throw std::invalid_argument("PartitionServer: queue_capacity < 1");
  }
  if (config_.retry.max_attempts < 1) {
    throw std::invalid_argument("PartitionServer: max_attempts < 1");
  }
  runner_ = config_.runner ? config_.runner : run_partition_job;
}

PartitionServer::~PartitionServer() { drain(); }

void PartitionServer::journal_append(const std::string& line) {
  if (journal_ == nullptr) return;
  std::lock_guard<std::mutex> lock(journal_mu_);
  try {
    journal_->append(line);
    appended_since_compact_.fetch_add(1, std::memory_order_acq_rel);
  } catch (const std::exception& error) {
    // Durability degraded, service continues: the in-memory record is
    // still authoritative for this process; a restart may re-run work.
    obs::log_error("svc", "server journal append failed",
                   {{"what", error.what()}});
  }
}

void PartitionServer::replay_journal() {
  const std::vector<std::string> lines = journal_->open_for_append();
  // Replay through a LineReader so corrupt complete lines report
  // path:line like every other parser (torn tails were already dropped).
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  std::istringstream in(text);
  hg::LineReader reader(in, journal_->path(), '#');
  std::string line;
  std::vector<std::string> finish_order;
  while (reader.next(line)) {
    const std::string event = scan_string_field(line, "event");
    if (event == "accept") {
      // The spec fields ride in the same flat object; the parser ignores
      // the event/priority tags.
      JobSpec spec = job_spec_from_json(line, reader);
      std::shared_ptr<ServerJob>& job = jobs_[spec.id];
      if (job == nullptr) job = std::make_shared<ServerJob>();
      job->spec = std::move(spec);
      job->priority = scan_int_field(line, "priority", 0);
      job->seq = next_seq_++;
      job->state = JobState::kQueued;
      job->has_outcome = false;
      job->user_cancelled.store(false, std::memory_order_release);
    } else if (event == "done") {
      JobOutcome outcome = job_outcome_from_json(line, reader);
      std::shared_ptr<ServerJob>& job = jobs_[outcome.id];
      if (job == nullptr) job = std::make_shared<ServerJob>();
      if (job->spec.id.empty()) job->spec.id = outcome.id;
      job->outcome = std::move(outcome);
      job->has_outcome = true;
      if (job->state != JobState::kCancelled) job->state = JobState::kDone;
      finish_order.push_back(job->spec.id);
    } else if (event == "cancel") {
      const std::string id = scan_string_field(line, "id");
      const auto it = jobs_.find(id);
      if (it != jobs_.end()) {
        it->second->state = JobState::kCancelled;
        it->second->user_cancelled.store(true, std::memory_order_release);
        finish_order.push_back(id);
      }
    }
    // Unknown events: skip (a newer writer's lines stay replayable).
  }
  for (const std::string& id : finish_order) {
    const auto it = jobs_.find(id);
    if (it != jobs_.end() && it->second->state != JobState::kQueued) {
      done_order_.push_back(id);
    }
  }
  for (auto& [id, job] : jobs_) {
    if (job->state == JobState::kQueued) {
      job->enqueue_ms = steady_ms();
      queue_.push_back(job);
      ++recovered_;
    } else if (job->has_outcome &&
               (job->outcome.status == JobStatus::kOk ||
                job->outcome.status == JobStatus::kTruncated)) {
      service_seconds_.add(job->outcome.seconds);
      ++done_total_;
    }
  }
  std::sort(queue_.begin(), queue_.end(),
            [](const auto& a, const auto& b) { return a->seq < b->seq; });
  // Count the replayed backlog toward the compaction trigger: a journal
  // that grew long across restarts is compacted shortly after start
  // instead of only after another journal_compact_every fresh appends.
  appended_since_compact_.store(static_cast<std::int64_t>(lines.size()),
                                std::memory_order_release);
  obs::Registry::global().add(server_metrics().recovered, recovered_);
  obs::log_info("svc", "server journal replayed",
                {{"lines", static_cast<std::int64_t>(lines.size())},
                 {"jobs", static_cast<std::int64_t>(jobs_.size())},
                 {"requeued", recovered_}});
}

void PartitionServer::start() {
  if (started_) throw std::logic_error("PartitionServer: already started");
  if (!config_.spool_dir.empty()) {
    std::filesystem::create_directories(config_.spool_dir);
  }
  if (!config_.journal_path.empty()) {
    journal_ = std::make_unique<LineJournal>(config_.journal_path);
    std::lock_guard<std::mutex> lock(mu_);
    replay_journal();
    compact_journal_if_due_locked();
  }
  slots_.clear();
  for (int i = 0; i < config_.workers; ++i) {
    slots_.push_back(std::make_unique<AttemptSlot>());
  }
  // The supervisor makes its first allocation (its metric shard) before
  // any worker exists. glibc binds a thread to a malloc arena at its
  // first allocation and frees arenas in thread-exit order, so a server
  // started and drained once per batch fleet then keeps its workers on
  // the same arenas; otherwise they rotate through one more arena and
  // peak RSS grows by that arena's engine memory (~2 MB on sweep-fixed).
  supervisor_ = std::thread([this] { supervisor_loop(); });
  {
    std::unique_lock<std::mutex> lock(mu_);
    supervisor_cv_.wait(lock, [this] { return supervisor_ready_; });
  }
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(*slots_[i]); });
  }
  started_ = true;
  obs::log_info("svc", "partition server started",
                {{"workers", config_.workers},
                 {"queue_capacity",
                  static_cast<std::int64_t>(config_.queue_capacity)},
                 {"journal", config_.journal_path},
                 {"recovered", recovered_}});
}

void PartitionServer::request_drain() {
  {
    // Stored under mu_: a worker between its wait predicate and its block
    // would otherwise miss the notify and sleep through the drain.
    std::lock_guard<std::mutex> lock(mu_);
    draining_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

void PartitionServer::drain() {
  request_drain();
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (joined_) return;
  joined_ = true;
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // The watchdog outlives the workers: an attempt that hangs during the
  // drain is still cancelled.
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers_joined_ = true;
  }
  supervisor_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  if (started_) {
    std::lock_guard<std::mutex> lock(mu_);
    obs::log_info("svc", "partition server drained",
                  {{"queued_left", static_cast<std::int64_t>(queue_.size())},
                   {"done_total", done_total_}});
  }
}

std::shared_ptr<PartitionServer::ServerJob>
PartitionServer::pop_best_locked() {
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const ServerJob& a = *queue_[i];
    const ServerJob& b = *queue_[best];
    if (a.priority > b.priority ||
        (a.priority == b.priority && a.seq < b.seq)) {
      best = i;
    }
  }
  std::shared_ptr<ServerJob> job = queue_[best];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  return job;
}

void PartitionServer::worker_loop(AttemptSlot& slot) {
  for (;;) {
    std::shared_ptr<ServerJob> job;
    JobSpec spec;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return draining() || !queue_.empty(); });
      // Drain leaves queued jobs behind on purpose: they are journaled
      // as accepted, so the next start re-enqueues them.
      if (draining()) return;
      job = pop_best_locked();
      job->state = JobState::kRunning;
      job->slot = &slot;
      running_.push_back(job);
      spec = job->spec;
      obs::Registry::global().observe(
          server_metrics().queue_wait_seconds,
          static_cast<double>(steady_ms() - job->enqueue_ms) / 1000.0);
    }
    SupervisedHooks hooks = config_.hooks;
    const auto base_stop = config_.hooks.stop_retrying;
    const std::shared_ptr<ServerJob> handle = job;
    hooks.stop_retrying = [this, handle, base_stop] {
      return draining() ||
             handle->user_cancelled.load(std::memory_order_acquire) ||
             (base_stop && base_stop());
    };
    // Fresh buffer per run, never shared across jobs: the trace served
    // at /jobs/<id>/trace must hold exactly this job's spans.
    job->spans = std::make_shared<obs::SpanBuffer>();
    hooks.spans = job->spans;
    finish_job(job,
               run_supervised_job(runner_, spec, config_.retry, slot, hooks));
  }
}

void PartitionServer::finish_job(const std::shared_ptr<ServerJob>& job,
                                 JobOutcome outcome) {
  // The done event reuses the outcome serialization; the accept line
  // already carries the spec, so (accept, done) replays to this state.
  const std::string done_line =
      "{\"event\": \"done\", " + to_json_line(outcome).substr(1);
  JobOutcome committed;  // on_commit's copy, taken under mu_
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Durable before it is visible, like the accept line (lock order
    // mu_ -> journal_mu_): a client that sees the job done and resubmits
    // journals its accept after this line and after any compaction the
    // line makes due, so compaction points depend only on the order of
    // events, never on thread timing.
    journal_append(done_line);
    job->slot = nullptr;
    running_.erase(std::remove(running_.begin(), running_.end(), job),
                   running_.end());
    job->outcome = std::move(outcome);
    job->has_outcome = true;
    // Render the Chrome trace once, cache it with the result, drop the
    // span buffer. Rendering under mu_ keeps /jobs/<id>/trace trivially
    // consistent (whole trace or 404, never a partial one).
    if (job->spans != nullptr) {
      job->trace = obs::trace_events_to_json(job->spans->events());
      job->spans.reset();
      trace_bytes_ += static_cast<std::int64_t>(job->trace.size());
    }
    const bool cancelled =
        job->user_cancelled.load(std::memory_order_acquire);
    job->state = cancelled ? JobState::kCancelled : JobState::kDone;
    service_seconds_.add(job->outcome.seconds);
    if (!cancelled) ++done_total_;
    done_order_.push_back(job->spec.id);
    while (done_order_.size() > config_.done_capacity) {
      const std::string victim = done_order_.front();
      done_order_.pop_front();
      const auto it = jobs_.find(victim);
      // Stale entries (resubmitted-after-cancel ids back in the queue)
      // are skipped, never evicted mid-flight.
      if (it != jobs_.end() && it->second->slot == nullptr &&
          (it->second->state == JobState::kDone ||
           it->second->state == JobState::kCancelled)) {
        trace_bytes_ -= static_cast<std::int64_t>(it->second->trace.size());
        jobs_.erase(it);
      }
    }
    auto& reg = obs::Registry::global();
    reg.set(server_metrics().trace_bytes, static_cast<double>(trace_bytes_));
    reg.observe(server_metrics().job_seconds, job->outcome.seconds);
    reg.observe(server_metrics().job_attempts,
                static_cast<double>(job->outcome.attempts));
    reg.add(server_metrics()
                .jobs_by_state[static_cast<std::size_t>(job->outcome.status)]);
    obs::log_debug("svc", "server job finished",
                   {{"id", job->spec.id},
                    {"state", to_string(job->state)},
                    {"status", to_string(job->outcome.status)},
                    {"cut", static_cast<std::int64_t>(job->outcome.cut)},
                    {"seconds", job->outcome.seconds}});
    if (config_.on_commit) committed = job->outcome;
    compact_journal_if_due_locked();
  }
  if (config_.on_commit) config_.on_commit(committed);
}

void PartitionServer::supervisor_loop() {
  const auto hang_limit_ms =
      static_cast<std::int64_t>(config_.hang_seconds * 1000.0);
  auto& reg = obs::Registry::global();
  std::unique_lock<std::mutex> lock(mu_);
  reg.set(server_metrics().heartbeat_age, 0.0);
  supervisor_ready_ = true;
  supervisor_cv_.notify_all();
  while (!supervisor_cv_.wait_for(lock, std::chrono::milliseconds(10),
                                  [this] { return workers_joined_; })) {
    // (job id, phase) per watchdog fire, dumped after mu_ is released.
    std::vector<std::pair<std::string, std::string>> watchdog_dumps;
    const std::int64_t now = steady_ms();
    std::int64_t oldest_ms = 0;
    for (const std::shared_ptr<ServerJob>& job : running_) {
      AttemptSlot* slot = job->slot;
      if (slot == nullptr) continue;
      // A DELETE that raced an attempt's slot reset is re-applied here,
      // so cooperative cancellation lands within one tick.
      if (job->user_cancelled.load(std::memory_order_acquire)) {
        slot->cancel.store(true, std::memory_order_release);
        continue;
      }
      if (!slot->busy.load(std::memory_order_acquire)) continue;
      const std::int64_t age =
          now - slot->start_ms.load(std::memory_order_acquire);
      oldest_ms = std::max(oldest_ms, age);
      if (config_.hang_seconds <= 0.0 || age <= hang_limit_ms ||
          slot->cancel.load(std::memory_order_acquire)) {
        continue;
      }
      // The stuck phase is read before `cancel` is set: once it is, the
      // runner may return and close its spans before the dump runs.
      const obs::FlightPhase phase =
          obs::FlightRecorder::global().current_phase(
              obs::trace_id_for(job->spec.id));
      if (slot->cancel.exchange(true, std::memory_order_acq_rel)) continue;
      reg.add(server_metrics().watchdog_fires);
      obs::log_warn("svc", "server watchdog cancelled a stuck attempt",
                    {{"id", job->spec.id},
                     {"age_seconds", static_cast<double>(age) / 1000.0}});
      if (!config_.flight_dir.empty()) {
        watchdog_dumps.emplace_back(job->spec.id,
                                    phase.found ? phase.name : "");
      }
    }
    reg.set(server_metrics().queue_depth, static_cast<double>(queue_.size()));
    reg.set(server_metrics().inflight, static_cast<double>(running_.size()));
    reg.set(server_metrics().heartbeat_age,
            static_cast<double>(oldest_ms) / 1000.0);
    if (watchdog_dumps.empty()) continue;
    // Flight dumps happen outside mu_ — they do file IO and walk every
    // recorder shard, neither of which belongs under the server lock.
    lock.unlock();
    for (const auto& [id, phase] : watchdog_dumps) {
      obs::FlightRecorder::global().dump(config_.flight_dir, "watchdog", id,
                                         phase);
    }
    lock.lock();
  }
  reg.set(server_metrics().inflight, 0.0);
  reg.set(server_metrics().heartbeat_age, 0.0);
}

void PartitionServer::compact_journal_if_due_locked() {
  if (journal_ == nullptr || config_.journal_compact_every <= 0 ||
      appended_since_compact_.load(std::memory_order_acquire) <
          config_.journal_compact_every) {
    return;
  }
  // Rewrite the journal to exactly the lines that reconstruct the live
  // job map: per job (in admission order) an accept line, its done line
  // if finished, its cancel line if cancelled. Everything evicted from
  // the done-map is dropped — those ids answer 404 either way, so the
  // journal stays bounded by done_capacity + queued + running instead of
  // lifetime traffic. The caller holds mu_ across the rewrite (lock
  // order mu_ -> journal_mu_), so every accept and done line already
  // appended is also in the rebuilt state: both are appended under mu_
  // with the state they describe. A cancel racing the gap between its
  // state change and its append at worst duplicates its cancel line,
  // which replay treats idempotently. mu_ also serializes compactions.
  std::vector<std::shared_ptr<ServerJob>> by_seq;
  by_seq.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) by_seq.push_back(job);
  std::sort(by_seq.begin(), by_seq.end(),
            [](const auto& a, const auto& b) { return a->seq < b->seq; });
  std::vector<std::string> lines;
  lines.reserve(by_seq.size() * 2);
  for (const std::shared_ptr<ServerJob>& job : by_seq) {
    lines.push_back("{\"event\": \"accept\", \"priority\": " +
                    std::to_string(job->priority) + ", " +
                    to_json_line(job->spec).substr(1));
    if (job->has_outcome) {
      lines.push_back("{\"event\": \"done\", " +
                      to_json_line(job->outcome).substr(1));
    }
    if (job->state == JobState::kCancelled) {
      lines.push_back("{\"event\": \"cancel\", \"id\": \"" + job->spec.id +
                      "\"}");
    }
  }
  const std::int64_t before =
      appended_since_compact_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> journal_lock(journal_mu_);
    try {
      journal_->rewrite(lines);
    } catch (const std::exception& error) {
      // Same degradation contract as journal_append: durability suffers,
      // service continues; try again after the next batch of appends.
      obs::log_error("svc", "server journal compaction failed",
                     {{"what", error.what()}});
      appended_since_compact_.store(0, std::memory_order_release);
      return;
    }
    appended_since_compact_.store(0, std::memory_order_release);
  }
  compactions_.fetch_add(1, std::memory_order_acq_rel);
  obs::log_info("svc", "server journal compacted",
                {{"appended", before},
                 {"kept", static_cast<std::int64_t>(lines.size())},
                 {"jobs", static_cast<std::int64_t>(by_seq.size())}});
}

double PartitionServer::retry_after_locked() const {
  if (service_seconds_.empty()) {
    // No job has completed yet, so there is no observed service rate to
    // extrapolate from. The old behaviour multiplied the default budget
    // (a ceiling, not an estimate) by the backlog — telling the first
    // wave of shed clients to go away for minutes on a server that had
    // simply not finished its first job. Return the configured default:
    // deterministic, and honest about knowing nothing.
    return std::clamp(config_.retry_after_no_data_seconds, 1.0, 600.0);
  }
  const double mean = service_seconds_.mean();
  const double backlog =
      static_cast<double>(queue_.size() + running_.size() + 1);
  const double seconds =
      std::ceil(mean * backlog / static_cast<double>(config_.workers));
  return std::clamp(seconds, 1.0, 600.0);
}

std::string PartitionServer::job_json_locked(const ServerJob& job) const {
  std::string head = std::string("{\"state\": \"") + to_string(job.state) +
                     "\", \"priority\": " + std::to_string(job.priority);
  if (job.has_outcome) {
    // The outcome line carries the id; splice past its '{'.
    return head + ", " + to_json_line(job.outcome).substr(1) + "\n";
  }
  return head + ", \"id\": \"" + job.spec.id + "\"}\n";
}

SubmitResult PartitionServer::submit(const std::string& body,
                                     const std::string& query) {
  SubmitResult result;
  obs::Registry::global().add(server_metrics().submitted);
  try {
    if (draining()) {
      result.http_status = 503;
      result.body = json_error("server is draining; resubmit elsewhere");
      return result;
    }
    const auto params = parse_query(query);
    int priority = 0;
    if (const auto it = params.find("priority"); it != params.end()) {
      priority = static_cast<int>(std::clamp<std::int64_t>(
          parse_int_param("priority", it->second), -100, 100));
    }

    // Classify the body: flat JSON spec vs raw hypergraph upload.
    std::size_t first = body.find_first_not_of(" \t\r\n");
    JobSpec spec;
    std::string upload;      // non-empty = spool this content
    std::string upload_ext;  // ".fpbin", ".fpb" or ".hgr"
    if (hg::is_fpbin(body)) {
      // Binary upload. Sniffed before anything else: the magic sits at
      // byte 0 (no whitespace trimming applies to binary bodies), and
      // the textual "FPB" check below would otherwise claim the
      // "FPBIN..." prefix.
      if (config_.spool_dir.empty()) {
        throw util::InputError(
            "request: raw uploads disabled (no --spool-dir); "
            "submit a JSON job spec instead");
      }
      upload = body;
      upload_ext = ".fpbin";
    } else if (first == std::string::npos) {
      throw util::InputError("request: empty body");
    } else if (body[first] == '{') {
      std::string line = body.substr(first);
      while (!line.empty() &&
             (line.back() == '\n' || line.back() == '\r' ||
              line.back() == ' ' || line.back() == '\t')) {
        line.pop_back();
      }
      if (line.find('\n') != std::string::npos) {
        throw util::InputError("request: job spec must be a single line");
      }
      // The canonical hash becomes the id, so a client-supplied one is
      // not required (and is ignored if present for hashing purposes).
      if (line.find("\"id\"") == std::string::npos) {
        const std::size_t after = line.find_first_not_of(" \t", 1);
        if (after != std::string::npos && line[after] == '}') {
          line = "{\"id\": \"pending\"}";
        } else {
          line = "{\"id\": \"pending\", " + line.substr(1);
        }
      }
      spec = parse_spec_line(line);
    } else {
      if (config_.spool_dir.empty()) {
        throw util::InputError(
            "request: raw uploads disabled (no --spool-dir); "
            "submit a JSON job spec instead");
      }
      upload = body;
      upload_ext = body.compare(first, 3, "FPB") == 0 ? ".fpb" : ".hgr";
    }

    // Engine knobs from the query string override the spec on both paths.
    for (const auto& [key, value] : params) {
      if (key == "priority") continue;
      if (key == "starts") {
        spec.starts = static_cast<int>(parse_int_param(key, value));
      } else if (key == "seed") {
        spec.seed =
            static_cast<std::uint64_t>(parse_int_param(key, value));
      } else if (key == "budget_seconds") {
        spec.budget_seconds = parse_double_param(key, value);
      } else if (key == "tolerance_pct") {
        spec.tolerance_pct = parse_double_param(key, value);
      } else if (key == "fixed_pct") {
        spec.fixed_pct = parse_double_param(key, value);
      } else if (key == "regime") {
        spec.regime = value;
      } else if (key == "scale") {
        spec.scale = value;
      } else if (key == "circuit") {
        spec.circuit = static_cast<int>(parse_int_param(key, value));
      } else if (key == "threads_per_job") {
        spec.threads_per_job = static_cast<int>(parse_int_param(key, value));
      } else if (key == "preflight") {
        spec.preflight = value == "true" || value == "1";
      } else {
        throw util::InputError("query: unknown parameter \"" + key + "\"");
      }
    }

    // Per-request budget policy: unlimited asks get the default, and
    // nothing may exceed the ceiling — an expired budget degrades to the
    // best-so-far partition ("truncated": true), never an error.
    if (spec.budget_seconds <= 0.0) {
      spec.budget_seconds = config_.default_budget_seconds;
    }
    if (config_.max_budget_seconds > 0.0) {
      spec.budget_seconds =
          std::min(spec.budget_seconds, config_.max_budget_seconds);
    }

    // Canonical content hash = job id = cache key. Knobs that change the
    // result are part of it; the volatile id field is pinned first.
    spec.id = "x";
    std::string key_material;
    if (!upload.empty()) {
      spec.instance.clear();  // set to the spool path after hashing
      // .fpbin hashes via its canonical text rendering, which for a
      // plain bipartitioning instance is byte-for-byte the hmetis
      // serialization: the same hypergraph uploaded as .hgr or .fpbin
      // lands on the same job id (and cache entry). This also validates
      // the binary payload (checksum included) before accepting it.
      const std::string canonical =
          upload_ext == ".fpbin"
              ? canonical_content(hg::fpbin_canonical_text(
                    hg::read_fpbin_bytes(upload, "upload")))
              : canonical_content(upload);
      key_material = "content:" + canonical + "|" + to_json_line(spec);
    } else {
      key_material = "spec:" + to_json_line(spec);
    }
    // Round-trip re-parse so range violations on the query-override path
    // fail with the manifest parser's diagnostics.
    spec = parse_spec_line(to_json_line(spec));
    const std::uint64_t h1 = util::fnv1a(key_material);
    const std::uint64_t h2 = util::splitmix64(h1 ^ key_material.size());
    spec.id = hex64(h1) + hex64(h2);
    if (!upload.empty()) {
      spec.instance = config_.spool_dir + "/" + spec.id + upload_ext;
    }
    return submit(std::move(spec), priority, upload);
  } catch (const hg::ParseError& error) {
    result.http_status = 400;
    result.body = json_error(error.what());
  } catch (const util::InputError& error) {
    result.http_status = 400;
    result.body = json_error(error.what());
  } catch (const std::exception& error) {
    result.http_status = 500;
    result.body = json_error(error.what());
  }
  return result;
}

SubmitResult PartitionServer::submit(JobSpec spec, int priority,
                                     const std::string& upload) {
  SubmitResult result;
  result.id = spec.id;
  try {
    std::unique_lock<std::mutex> lock(mu_);
    if (draining()) {
      result.http_status = 503;
      result.id.clear();
      result.body = json_error("server is draining; resubmit elsewhere");
      return result;
    }
    const auto it = jobs_.find(spec.id);
    if (it != jobs_.end()) {
      ServerJob& job = *it->second;
      if (job.state == JobState::kDone) {
        ++cache_hits_;
        obs::Registry::global().add(server_metrics().cache_hits);
        result.http_status = 200;
        result.body = job_json_locked(job);
        return result;
      }
      if (job.state == JobState::kQueued || job.state == JobState::kRunning ||
          job.slot != nullptr) {
        // Idempotent resubmission: same bytes, same handle.
        result.http_status = 202;
        result.body = job_json_locked(job);
        return result;
      }
      // Cancelled and fully unwound: fall through to re-admission below.
    }
    if (queue_.size() >= config_.queue_capacity) {
      ++shed_total_;
      obs::Registry::global().add(server_metrics().shed);
      result.http_status = 429;
      result.retry_after_seconds = retry_after_locked();
      result.body = "{\"error\": \"queue full\", \"retry_after_seconds\": " +
                    std::to_string(static_cast<int>(
                        result.retry_after_seconds)) +
                    "}\n";
      return result;
    }

    if (!upload.empty()) {
      // Spool before journaling the acceptance, so a replayed accept
      // always finds its input bytes (crash between the two just forgets
      // the request — the client retries idempotently).
      util::write_file_atomic(spec.instance, upload);
      util::sync_parent_dir(spec.instance);
    }

    // The acceptance is journaled before the job becomes visible to any
    // worker: a fast job finishing first would otherwise write its done
    // line ahead of the accept line, and a replay would resurrect it.
    // (Lock order mu_ -> journal_mu_ is the house rule.)
    journal_append(
        "{\"event\": \"accept\", \"priority\": " + std::to_string(priority) +
        ", " + to_json_line(spec).substr(1));
    std::shared_ptr<ServerJob>& job = jobs_[spec.id];
    if (job == nullptr) job = std::make_shared<ServerJob>();
    job->spec = std::move(spec);
    job->priority = priority;
    job->seq = next_seq_++;
    job->enqueue_ms = steady_ms();
    job->state = JobState::kQueued;
    job->has_outcome = false;
    job->user_cancelled.store(false, std::memory_order_release);
    queue_.push_back(job);
    result.http_status = 202;
    result.body = job_json_locked(*job);
    lock.unlock();
    cv_.notify_one();
    return result;
  } catch (const std::exception& error) {
    // Only spooling IO can throw here.
    result.http_status = 500;
    result.body = json_error(error.what());
  }
  return result;
}

std::string PartitionServer::status_json(const std::string& id,
                                         int* http_status) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    *http_status = 404;
    return json_error("unknown job \"" + id + "\"");
  }
  *http_status = 200;
  return job_json_locked(*it->second);
}

int PartitionServer::cancel(const std::string& id, std::string* body) {
  std::string cancel_line;
  int status = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      *body = json_error("unknown job \"" + id + "\"");
      return 404;
    }
    ServerJob& job = *it->second;
    switch (job.state) {
      case JobState::kDone:
        *body = job_json_locked(job);
        return 409;  // finished work is immutable (and cached)
      case JobState::kCancelled:
        *body = job_json_locked(job);
        return 200;  // idempotent
      case JobState::kQueued: {
        queue_.erase(std::remove(queue_.begin(), queue_.end(), it->second),
                     queue_.end());
        job.state = JobState::kCancelled;
        job.user_cancelled.store(true, std::memory_order_release);
        done_order_.push_back(id);
        ++cancelled_total_;
        status = 200;
        break;
      }
      case JobState::kRunning: {
        // Cooperative: the attempt unwinds at its next deadline check and
        // finish_job records its best-so-far outcome under kCancelled.
        job.user_cancelled.store(true, std::memory_order_release);
        if (job.slot != nullptr) {
          job.slot->cancel.store(true, std::memory_order_release);
        }
        ++cancelled_total_;
        status = 202;
        break;
      }
    }
    obs::Registry::global().add(server_metrics().cancelled);
    *body = job_json_locked(job);
    cancel_line = "{\"event\": \"cancel\", \"id\": \"" + id + "\"}";
  }
  journal_append(cancel_line);
  return status;
}

bool PartitionServer::handle(const obs::HttpRequest& request,
                             obs::HttpResponse& response) {
  if (request.path == "/partition") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = json_error("POST /partition");
      return true;
    }
    const SubmitResult result = submit(request.body, request.query);
    response.status = result.http_status;
    response.body = result.body;
    if (result.retry_after_seconds > 0.0) {
      response.headers.emplace_back(
          "Retry-After",
          std::to_string(static_cast<int>(
              std::ceil(result.retry_after_seconds))));
    }
    return true;
  }
  if (request.path == "/jobs") {
    response.body = progress_json();
    return true;
  }
  if (request.path == "/debug/flight") {
    if (request.method != "GET") {
      response.status = 405;
      response.body = json_error("GET /debug/flight");
      return true;
    }
    response.body = obs::FlightRecorder::global().to_json() + "\n";
    return true;
  }
  if (request.path.rfind("/jobs/", 0) == 0) {
    const std::string id = request.path.substr(6);
    constexpr const char* kTraceSuffix = "/trace";
    constexpr std::size_t kTraceSuffixLen = 6;
    if (id.size() > kTraceSuffixLen &&
        id.compare(id.size() - kTraceSuffixLen, kTraceSuffixLen,
                   kTraceSuffix) == 0) {
      if (request.method != "GET") {
        response.status = 405;
        response.body = json_error("GET /jobs/<id>/trace");
        return true;
      }
      response.body = trace_json(id.substr(0, id.size() - kTraceSuffixLen),
                                 &response.status);
      return true;
    }
    if (request.method == "GET") {
      response.body = status_json(id, &response.status);
    } else if (request.method == "DELETE") {
      response.status = cancel(id, &response.body);
    } else {
      response.status = 405;
      response.body = json_error("GET or DELETE /jobs/<id>");
    }
    return true;
  }
  return false;
}

std::string PartitionServer::trace_json(const std::string& id,
                                        int* http_status) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second->trace.empty()) {
    // Unknown, unfinished, evicted, journal-replayed (a restart recovers
    // outcomes, never in-flight spans), or OBS=OFF: a clean 404 — the
    // trace contract is all-or-nothing.
    *http_status = 404;
    return json_error("no trace for job: " + id);
  }
  *http_status = 200;
  return it->second->trace;
}

std::string PartitionServer::progress_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  out << "{\"workers\": " << config_.workers
      << ", \"queued\": " << queue_.size()
      << ", \"running\": " << running_.size()
      << ", \"done\": " << done_total_
      << ", \"cancelled\": " << cancelled_total_
      << ", \"shed\": " << shed_total_ << ", \"cache_hits\": " << cache_hits_
      << ", \"recovered\": " << recovered_ << ", \"mean_job_seconds\": "
      << (service_seconds_.empty() ? 0.0 : service_seconds_.mean())
      << ", \"retry_after_seconds\": " << retry_after_locked()
      << ", \"trace_bytes\": " << trace_bytes_
      << ", \"running_jobs\": [";
  // Where each running job is right now, from the flight recorder's
  // open-span stacks (keyed by the job's deterministic trace id). For
  // process-isolated jobs the parent-side phase is the supervision span;
  // the worker-side live phase is in the pool's stats_json instead.
  bool first = true;
  for (const std::shared_ptr<ServerJob>& job : running_) {
    const obs::FlightPhase phase = obs::FlightRecorder::global().current_phase(
        obs::trace_id_for(job->spec.id));
    out << (first ? "" : ", ") << "{\"id\": \"" << job->spec.id
        << "\", \"phase\": \"" << (phase.found ? phase.name : "")
        << "\", \"phase_seconds\": " << (phase.found ? phase.seconds : 0.0)
        << "}";
    first = false;
  }
  out << "], \"draining\": " << (draining() ? "true" : "false") << "}\n";
  return out.str();
}

std::size_t PartitionServer::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t PartitionServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_.size();
}

std::int64_t PartitionServer::done_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_total_;
}

std::int64_t PartitionServer::shed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_total_;
}

std::int64_t PartitionServer::cache_hit_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_hits_;
}

std::int64_t PartitionServer::recovered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_;
}

std::int64_t PartitionServer::journal_compactions() const {
  return compactions_.load(std::memory_order_acquire);
}

double PartitionServer::retry_after_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retry_after_locked();
}

BatchReport run_batch(
    const std::vector<JobSpec>& manifest, ServerConfig config,
    CheckpointJournal* journal, const std::atomic<bool>* drain,
    std::int64_t halt_after,
    const std::function<void(const PartitionServer*)>& attach) {
  std::map<std::string, std::size_t> index;  // id -> manifest position
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    if (!index.emplace(manifest[i].id, i).second) {
      throw util::InputError("batch: duplicate job id \"" + manifest[i].id +
                             "\"");
    }
  }

  // Resume: journaled outcomes are finished work, including permanent
  // failures — only jobs with no outcome are (re)submitted.
  std::vector<std::optional<JobOutcome>> outcomes(manifest.size());
  BatchReport report;
  if (journal != nullptr) {
    std::map<std::string, JobOutcome> done;
    for (JobOutcome& outcome : journal->open_for_append()) {
      done.insert_or_assign(outcome.id, std::move(outcome));
    }
    for (std::size_t i = 0; i < manifest.size(); ++i) {
      const auto it = done.find(manifest[i].id);
      if (it != done.end()) {
        outcomes[i] = it->second;
        ++report.resumed;
      }
    }
  }
  const std::size_t pending =
      manifest.size() - static_cast<std::size_t>(report.resumed);
  obs::log_info("svc", "fleet started",
                {{"jobs", static_cast<std::int64_t>(manifest.size())},
                 {"resumed", report.resumed},
                 {"workers", config.workers}});

  const auto drain_requested = [drain] {
    return drain != nullptr && drain->load(std::memory_order_acquire);
  };
  std::mutex mu;  // guards the fields below and checkpoint appends
  std::condition_variable cv;
  std::size_t committed = 0;
  bool halted = false;  // simulated kill -9 or a failed checkpoint append
  std::exception_ptr journal_error;
  if (pending > 0) {
    config.workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(config.workers), pending));
    config.queue_capacity = pending;
    // The report and the checkpoint are the record: no event journal, and
    // no result cache holding every finished job and its trace.
    config.journal_path.clear();
    config.done_capacity = 0;
    config.hooks.stop_retrying = [drain_requested,
                                  base = config.hooks.stop_retrying] {
      return drain_requested() || (base && base());
    };
    std::optional<PartitionServer> server;
    config.on_commit = [&](const JobOutcome& out) {
      std::unique_lock<std::mutex> lock(mu);
      if (!halted) {
        try {
          if (journal != nullptr) journal->append(out);
          outcomes[index.at(out.id)] = out;
          ++committed;
          halted = halt_after >= 0 &&
                   static_cast<std::int64_t>(committed) >= halt_after;
        } catch (const std::exception& e) {
          obs::log_error("svc", "checkpoint journal append failed",
                         {{"id", out.id}, {"what", e.what()}});
          journal_error = std::current_exception();
          halted = true;
        }
      }
      const bool stop = halted || drain_requested();
      lock.unlock();
      cv.notify_all();
      // Checked at every job boundary, before this worker takes the next
      // job: a drain raised mid-job lets that job finish and nothing after.
      if (stop) server->request_drain();
    };
    server.emplace(std::move(config));
    for (std::size_t i = 0; i < manifest.size(); ++i) {
      if (!outcomes[i].has_value()) server->submit(manifest[i], 0);
    }
    if (drain_requested()) server->request_drain();
    server->start();
    if (attach) attach(&*server);
    {
      // The drain flag is set from a signal handler, which cannot notify:
      // poll it on the supervisor's tick.
      std::unique_lock<std::mutex> lock(mu);
      while (!halted && committed < pending && !drain_requested()) {
        cv.wait_for(lock, std::chrono::milliseconds(10));
      }
    }
    server->drain();  // in-flight jobs finish; after a halt they are dropped
    if (attach) attach(nullptr);
  }
  if (journal_error) std::rethrow_exception(journal_error);

  for (const std::optional<JobOutcome>& outcome : outcomes) {
    if (!outcome.has_value()) {
      ++report.abandoned;
      continue;
    }
    report.outcomes.push_back(*outcome);
    switch (outcome->status) {
      case JobStatus::kOk: ++report.ok; break;
      case JobStatus::kTruncated: ++report.truncated; break;
      case JobStatus::kFailed: ++report.failed; break;
      case JobStatus::kPoisoned: ++report.poisoned; break;
    }
    if (outcome->attempts > 1) ++report.retried;
  }
  report.drained = halted || drain_requested();
  obs::log_info("svc", "fleet finished",
                {{"summary", report.summary()},
                 {"drained", report.drained},
                 {"exit_code", report.exit_code()}});
  return report;
}

}  // namespace fixedpart::svc
