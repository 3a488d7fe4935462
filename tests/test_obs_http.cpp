// Prometheus exposition and the embedded /metrics endpoint (ctest label:
// obs-http): a golden rendering plus a promtool-compatible line-grammar
// validator, every HTTP route exercised through a raw loopback socket,
// concurrent scrapes against 8 writer threads (the TSan certification of
// the gauge/label hot paths), and an endpoint lifecycle that must not leak
// file descriptors.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.hpp"
#include "obs/exposition.hpp"
#include "obs/http.hpp"
#include "obs/registry.hpp"

#ifdef __unix__
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace fixedpart;

// --- exposition format ---------------------------------------------------

TEST(Exposition, PrometheusNameSanitizesInvalidChars) {
  EXPECT_EQ(obs::prometheus_name("fm.moves_attempted"), "fm_moves_attempted");
  EXPECT_EQ(obs::prometheus_name("svc.jobs{state=\"ok\"}"), "svc_jobs");
  EXPECT_EQ(obs::prometheus_name("9lives"), "_lives");
  EXPECT_EQ(obs::prometheus_name(""), "_");
}

TEST(Exposition, LabeledRendersAndEscapes) {
  EXPECT_EQ(obs::labeled("svc.jobs", {{"state", "ok"}}),
            "svc.jobs{state=\"ok\"}");
  EXPECT_EQ(obs::labeled("a", {{"k1", "v1"}, {"k2", "v2"}}),
            "a{k1=\"v1\",k2=\"v2\"}");
  // Backslash, quote and newline must be escaped per the exposition spec.
  EXPECT_EQ(obs::labeled("a", {{"k", "x\\y\"z\n"}}),
            "a{k=\"x\\\\y\\\"z\\n\"}");
}

obs::Snapshot golden_snapshot() {
  obs::Snapshot snap;
  snap.counters.push_back({"fm.moves", 42});
  snap.counters.push_back({"svc.jobs{state=\"ok\"}", 5});
  snap.counters.push_back({"svc.jobs{state=\"failed\"}", 1});
  snap.gauges.push_back({"svc.queue_depth", 7.0});
  snap.gauges.push_back({"svc.heartbeat_age_seconds", 0.25});
  obs::HistogramValue h;
  h.name = "ml.run_seconds";
  h.lo = 0.0;
  h.hi = 4.0;
  h.counts = {3, 1, 0, 2};  // top bin holds clamped >= hi observations
  h.total = 6;
  h.sum = 9.5;
  snap.histograms.push_back(h);
  return snap;
}

TEST(Exposition, GoldenRendering) {
  const std::string expected =
      "# TYPE fm_moves counter\n"
      "fm_moves 42\n"
      "# TYPE svc_jobs counter\n"
      "svc_jobs{state=\"ok\"} 5\n"
      "svc_jobs{state=\"failed\"} 1\n"
      "# TYPE svc_queue_depth gauge\n"
      "svc_queue_depth 7\n"
      "# TYPE svc_heartbeat_age_seconds gauge\n"
      "svc_heartbeat_age_seconds 0.25\n"
      "# TYPE ml_run_seconds histogram\n"
      "ml_run_seconds_bucket{le=\"1\"} 3\n"
      "ml_run_seconds_bucket{le=\"2\"} 4\n"
      "ml_run_seconds_bucket{le=\"3\"} 4\n"
      "ml_run_seconds_bucket{le=\"+Inf\"} 6\n"
      "ml_run_seconds_sum 9.5\n"
      "ml_run_seconds_count 6\n";
  EXPECT_EQ(obs::to_prometheus(golden_snapshot()), expected);
}

// A promtool-shaped validator for Prometheus text format 0.0.4: every
// line is a comment, a sample `name{labels} value`, or blank; each family
// gets exactly one `# TYPE` line, emitted before any of its samples;
// cumulative bucket counts never decrease and end at `+Inf` == _count.
void validate_prometheus_text(const std::string& text) {
  const auto valid_name = [](const std::string& name) {
    if (name.empty()) return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9');
      if (!ok) return false;
    }
    return true;
  };
  const auto base_family = [](std::string name) {
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        return name.substr(0, name.size() - s.size());
      }
    }
    return name;
  };

  std::vector<std::string> typed;       // families with a TYPE line seen
  std::vector<std::string> typed_kind;  // parallel: counter/gauge/histogram
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    SCOPED_TRACE("line " + std::to_string(lineno) + ": " + line);
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream fields(line);
      std::string hash, keyword, name, kind;
      fields >> hash >> keyword >> name >> kind;
      ASSERT_EQ(keyword, "TYPE") << "only TYPE comments are emitted";
      ASSERT_TRUE(valid_name(name));
      ASSERT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "histogram" || kind == "summary" ||
                  kind == "untyped");
      for (const std::string& seen : typed) {
        ASSERT_NE(seen, name) << "duplicate TYPE line";
      }
      typed.push_back(name);
      typed_kind.push_back(kind);
      continue;
    }
    // Sample line: name[{labels}] value
    std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos);
    const std::string name = line.substr(0, name_end);
    ASSERT_TRUE(valid_name(name));
    std::size_t value_at = name_end;
    if (line[name_end] == '{') {
      // Label body: key="value" pairs; quotes must balance even with
      // escaped characters inside.
      std::size_t i = name_end + 1;
      bool in_quotes = false;
      while (i < line.size() && (in_quotes || line[i] != '}')) {
        if (line[i] == '\\' && in_quotes) {
          i += 2;
          continue;
        }
        if (line[i] == '"') in_quotes = !in_quotes;
        ++i;
      }
      ASSERT_LT(i, line.size()) << "unterminated label body";
      value_at = i + 1;
    }
    ASSERT_LT(value_at, line.size());
    ASSERT_EQ(line[value_at], ' ');
    const std::string value = line.substr(value_at + 1);
    ASSERT_FALSE(value.empty());
    if (value != "NaN" && value != "+Inf" && value != "-Inf") {
      std::size_t parsed = 0;
      EXPECT_NO_THROW({
        (void)std::stod(value, &parsed);
      });
      EXPECT_EQ(parsed, value.size()) << "trailing junk after value";
    }
    // The family must have announced its type before its first sample.
    const std::string family = base_family(name);
    bool announced = false;
    for (std::size_t t = 0; t < typed.size(); ++t) {
      if (typed[t] == family || typed[t] == name) announced = true;
    }
    EXPECT_TRUE(announced) << "sample before its TYPE line: " << name;
  }
}

TEST(Exposition, GoldenPassesLineGrammar) {
  validate_prometheus_text(obs::to_prometheus(golden_snapshot()));
}

TEST(Exposition, NonFiniteGaugesRenderAsSpecTokens) {
  obs::Snapshot snap;
  snap.gauges.push_back({"g.pos", std::numeric_limits<double>::infinity()});
  snap.gauges.push_back({"g.neg", -std::numeric_limits<double>::infinity()});
  const std::string text = obs::to_prometheus(snap);
  EXPECT_NE(text.find("g_pos +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("g_neg -Inf\n"), std::string::npos);
  validate_prometheus_text(text);
}

TEST(Exposition, LiveRegistryRoundTrip) {
  obs::Registry registry;
  const auto jobs_ok = registry.counter(
      obs::labeled("svc.jobs", {{"state", "ok"}}));
  const auto depth = registry.gauge("svc.queue_depth");
  const auto seconds = registry.histogram("job.seconds", 0.0, 10.0, 5);
  registry.add(jobs_ok, 3);
  registry.set(depth, 17.0);
  registry.observe(seconds, 1.0);
  registry.observe(seconds, 99.0);  // clamps into the top bin and to hi=10

  const std::string text = obs::to_prometheus(registry.scrape());
  validate_prometheus_text(text);
  EXPECT_NE(text.find("svc_jobs{state=\"ok\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("svc_queue_depth 17\n"), std::string::npos);
  EXPECT_NE(text.find("job_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("job_seconds_sum 11\n"), std::string::npos);
  EXPECT_NE(text.find("job_seconds_count 2\n"), std::string::npos);
}

TEST(Registry, GaugeLastWriteWinsAcrossThreads) {
  obs::Registry registry;
  const auto id = registry.gauge("g");
  registry.set(id, 1.0);
  std::thread other([&] { registry.set(id, 2.0); });
  other.join();
  // The other thread's write carries the higher sequence number.
  const obs::Snapshot snap = registry.scrape();
  ASSERT_NE(snap.gauge("g"), nullptr);
  EXPECT_EQ(snap.gauge("g")->value, 2.0);
}

TEST(Registry, LabelSetCapThrows) {
  obs::Registry registry;
  for (std::uint32_t i = 0; i < obs::Registry::kMaxLabelSets; ++i) {
    registry.counter(
        obs::labeled("fam", {{"k", "v" + std::to_string(i)}}));
  }
  EXPECT_THROW(registry.counter(obs::labeled("fam", {{"k", "overflow"}})),
               std::length_error);
  // Other families are unaffected by the cap.
  EXPECT_NO_THROW(registry.counter(obs::labeled("other", {{"k", "v"}})));
}

// --- the HTTP endpoint ---------------------------------------------------

#ifdef __unix__

/// Minimal blocking HTTP client: one request, reads until EOF (the server
/// always closes after responding).
std::string http_get(std::uint16_t port, const std::string& request_text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::size_t sent = 0;
  while (sent < request_text.size()) {
    const ssize_t n =
        ::send(fd, request_text.data() + sent, request_text.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string simple_get(std::uint16_t port, const std::string& path) {
  return http_get(port, "GET " + path +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Connection: close\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

TEST(HttpEndpoint, ServesEveryRoute) {
  obs::Registry registry;
  registry.add(registry.counter("test.hits"), 3);
  registry.set(registry.gauge("test.depth"), 4.0);

  obs::HttpEndpointConfig config;
  config.registry = &registry;
  config.progress = [] { return std::string("{\"done\": 1}\n"); };
  obs::HttpEndpoint endpoint(config);
  endpoint.start();
  ASSERT_GT(endpoint.port(), 0);

  const std::string metrics = simple_get(endpoint.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("test_hits 3\n"), std::string::npos);
  EXPECT_NE(metrics.find("test_depth 4\n"), std::string::npos);
  validate_prometheus_text(body_of(metrics));

  const std::string json = simple_get(endpoint.port(), "/metrics.json");
  EXPECT_NE(json.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"test.hits\": 3"), std::string::npos);

  const std::string health = simple_get(endpoint.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string progress = simple_get(endpoint.port(), "/progress");
  EXPECT_NE(progress.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(progress), "{\"done\": 1}\n");

  const std::string missing = simple_get(endpoint.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  const std::string post = http_get(
      endpoint.port(),
      "POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

  EXPECT_GE(endpoint.requests_served(), 6u);
  endpoint.stop();
  EXPECT_FALSE(endpoint.running());
}

TEST(HttpEndpoint, ProgressDefaultsToEmptyObject) {
  obs::Registry registry;
  obs::HttpEndpointConfig config;
  config.registry = &registry;
  obs::HttpEndpoint endpoint(config);
  endpoint.start();
  EXPECT_EQ(body_of(simple_get(endpoint.port(), "/progress")), "{}\n");
}

// SIGPIPE regression: a scraper that vanishes halfway through a large
// response body is routine (timeouts, ^C'd curls), and historically a
// write to the half-closed socket could raise SIGPIPE and kill the whole
// daemon. The endpoint must instead absorb the abort (MSG_NOSIGNAL +
// ignored disposition + EPIPE/ECONNRESET handling in send_all), count it
// in obs.http_peer_gone, and keep serving.
TEST(HttpEndpoint, SurvivesClientAbortMidLargeMetricsBody) {
  obs::Registry registry;
  obs::HttpEndpointConfig config;
  config.registry = &registry;
  config.io_timeout_seconds = 10.0;
  // A body far larger than any plausible socket-buffer capacity (sndbuf
  // autotuning can reach several MB on loopback), so the server is still
  // mid-send when the client aborts. /progress shares send_all with
  // /metrics, and its body size is not capped by registry capacity.
  config.progress = [] { return std::string(16u << 20, 'x') + "\n"; };
  obs::HttpEndpoint endpoint(config);
  endpoint.start();

  const std::int64_t gone_before =
      obs::Registry::global().scrape().counter("obs.http_peer_gone");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A tiny receive window keeps the in-flight byte count small, so most
  // of the body is still unsent at abort time.
  const int tiny = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET /progress HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  char first = 0;
  ASSERT_EQ(::recv(fd, &first, 1, 0), 1);  // the response is under way
  // SO_LINGER{on, 0} turns close() into an immediate RST: the server's
  // next send on this connection fails with ECONNRESET/EPIPE mid-body.
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(fd);

  // The serve loop handles connections synchronously, so by the time the
  // next request is answered the aborted one has fully unwound. The
  // process not having died of SIGPIPE is the actual regression check.
  const std::string health = simple_get(endpoint.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_GE(obs::Registry::global().scrape().counter("obs.http_peer_gone"),
            gone_before + 1);
  endpoint.stop();
}

// The TSan certification of the gauge/label hot paths: 8 writer threads
// hammer counters, labeled counters and gauges while the main thread
// scrapes through real GET /metrics requests.
TEST(HttpEndpoint, ConcurrentScrapesUnderWriterLoad) {
  obs::Registry registry;
  const auto hits = registry.counter("load.hits");
  const auto depth = registry.gauge("load.depth");
  const auto seconds = registry.histogram("load.seconds", 0.0, 1.0, 8);
  std::vector<obs::MetricId> labeled_ids;
  for (int t = 0; t < 8; ++t) {
    labeled_ids.push_back(registry.counter(
        obs::labeled("load.jobs", {{"worker", std::to_string(t)}})));
  }

  obs::HttpEndpointConfig config;
  config.registry = &registry;
  obs::HttpEndpoint endpoint(config);
  endpoint.start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        registry.add(hits);
        registry.add(labeled_ids[static_cast<std::size_t>(t)]);
        registry.set(depth, static_cast<double>(i % 100));
        registry.observe(seconds, static_cast<double>(i % 10) / 10.0);
        ++i;
      }
    });
  }
  for (int scrapes = 0; scrapes < 20; ++scrapes) {
    const std::string response = simple_get(endpoint.port(), "/metrics");
    ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    validate_prometheus_text(body_of(response));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();

  // A final quiescent scrape must balance exactly.
  const obs::Snapshot snap = registry.scrape();
  std::int64_t labeled_total = 0;
  for (int t = 0; t < 8; ++t) {
    labeled_total += snap.counter(
        obs::labeled("load.jobs", {{"worker", std::to_string(t)}}));
  }
  EXPECT_EQ(labeled_total, snap.counter("load.hits"));
}

int open_fd_count() {
  int count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(HttpEndpoint, LifecycleDoesNotLeakFds) {
  obs::Registry registry;
  const int before = open_fd_count();
  if (before < 0) GTEST_SKIP() << "/proc/self/fd unavailable";
  for (int round = 0; round < 10; ++round) {
    obs::HttpEndpointConfig config;
    config.registry = &registry;
    obs::HttpEndpoint endpoint(config);
    endpoint.start();
    simple_get(endpoint.port(), "/healthz");
    endpoint.stop();
    endpoint.stop();  // idempotent
  }
  EXPECT_EQ(open_fd_count(), before);
}

TEST(HttpEndpoint, StartStopWithoutRequests) {
  obs::Registry registry;
  obs::HttpEndpointConfig config;
  config.registry = &registry;
  for (int round = 0; round < 3; ++round) {
    obs::HttpEndpoint endpoint(config);
    endpoint.start();
    EXPECT_TRUE(endpoint.running());
  }  // destructor stops
}

#endif  // __unix__

// --- the exporter --------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Exporter, TickNowWritesBothFormats) {
  obs::Registry registry;
  registry.add(registry.counter("exp.ticks_seen"), 9);
  const std::string dir = ::testing::TempDir();
  obs::ExporterConfig config;
  config.registry = &registry;
  config.json_path = dir + "/exporter_test.json";
  config.prom_path = dir + "/exporter_test.prom";
  obs::Exporter exporter(config);
  exporter.tick_now();
  EXPECT_EQ(exporter.ticks(), 1u);

  const std::string json = slurp(config.json_path);
  EXPECT_NE(json.find("\"exp.ticks_seen\": 9"), std::string::npos);
  const std::string prom = slurp(config.prom_path);
  EXPECT_NE(prom.find("exp_ticks_seen 9\n"), std::string::npos);
}

TEST(Exporter, BackgroundThreadTicksPeriodically) {
  obs::Registry registry;
  registry.add(registry.counter("exp.bg"), 1);
  const std::string dir = ::testing::TempDir();
  obs::ExporterConfig config;
  config.registry = &registry;
  config.interval_seconds = 0.01;
  config.json_path = dir + "/exporter_bg.json";
  obs::Exporter exporter(config);
  exporter.start();
  for (int i = 0; i < 200 && exporter.ticks() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  exporter.stop();
  EXPECT_GE(exporter.ticks(), 3u);
  EXPECT_NE(slurp(config.json_path).find("\"exp.bg\": 1"),
            std::string::npos);
}

}  // namespace
