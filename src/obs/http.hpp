#pragma once
// Minimal embedded HTTP endpoint (docs/OBSERVABILITY.md): a blocking
// HTTP/1.1 server over plain POSIX sockets, bound to 127.0.0.1 only, with
// no dependencies. One background accept thread serves one request per
// connection (Connection: close). Built-in operator routes:
//
//   GET /metrics       Prometheus text format 0.0.4 of a fresh scrape
//   GET /metrics.json  Snapshot::to_json of a fresh scrape
//   GET /healthz       "ok"
//   GET /progress      the configured progress callback's JSON (else {})
//
// Everything else — any method, any path — is offered to the optional
// `handler` callback, which is how svc::PartitionServer layers POST
// /partition and friends on top (docs/ROBUSTNESS.md). Requests may carry
// a Content-Length body, capped at `max_request_bytes` (413 past the
// cap), and every connection lives under a wall-clock I/O budget
// (`io_timeout_seconds`): a client that trickles bytes or stalls
// mid-request is cut off when the budget expires instead of wedging the
// accept loop forever (the slowloris guard — per-recv socket timeouts
// alone do not bound the total connection time).
//
// start() binds (port 0 = kernel-assigned, read back via port()) and
// spawns the serve thread; stop() (idempotent, also run by the
// destructor) wakes the thread through a self-pipe, joins it, and closes
// every fd — the lifecycle test holds the no-fd-leak contract.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/registry.hpp"

namespace fixedpart::obs {

/// One parsed request, as handed to HttpEndpointConfig::handler.
struct HttpRequest {
  std::string method;  ///< "GET", "POST", "DELETE", ... (verbatim)
  std::string path;    ///< request target with the query string stripped
  std::string query;   ///< raw query string after '?' ("" when absent)
  std::string body;    ///< Content-Length bytes (possibly empty)
};

/// What a handler sends back. `headers` carries extras such as
/// Retry-After; Content-Type/Content-Length/Connection are always set by
/// the endpoint itself.
struct HttpResponse {
  int status = 200;
  std::string reason;  ///< "" = derived from `status`
  std::string content_type = "application/json";
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;
};

struct HttpEndpointConfig {
  /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port.
  std::uint16_t port = 0;
  /// Scraped per /metrics and /metrics.json request; never owned.
  Registry* registry = nullptr;  ///< nullptr = Registry::global()
  /// Body of GET /progress (should be a JSON object). Called from the
  /// serve thread; must be thread-safe. Empty = a constant "{}".
  std::function<std::string()> progress;
  /// Application routes: consulted for every request the built-in GET
  /// routes above do not claim. Return true when handled; false falls
  /// through to 404 (or 405 for a non-GET on a built-in path). Called
  /// from the serve thread; must be thread-safe and must not block for
  /// long — one connection is served at a time.
  std::function<bool(const HttpRequest&, HttpResponse&)> handler;
  /// Total wall-clock budget for one connection (read + handle + write).
  /// A slow or stalled client is dropped when it expires, so the worst
  /// case head-of-line delay for the next connection is bounded.
  double io_timeout_seconds = 5.0;
  /// Cap on the request size (header block and body, each). Larger
  /// requests are answered 413 and the connection is closed.
  std::size_t max_request_bytes = 1u << 20;
};

class HttpEndpoint {
 public:
  explicit HttpEndpoint(HttpEndpointConfig config);
  ~HttpEndpoint();
  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Binds, listens and starts the serve thread. Throws
  /// std::runtime_error on socket errors (port in use, ...).
  void start();
  /// Stops serving and releases every fd. Safe to call twice.
  void stop();

  bool running() const { return thread_.joinable(); }
  /// The bound port (after start()); 0 before.
  std::uint16_t port() const { return port_; }
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void serve();
  void handle_connection(int fd);

  HttpEndpointConfig config_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
};

}  // namespace fixedpart::obs
