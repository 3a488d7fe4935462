#include "obs/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/exposition.hpp"
#include "obs/log.hpp"
#include "util/subprocess.hpp"

// MSG_NOSIGNAL is POSIX.1-2008 but historically absent on some BSDs;
// degrade to 0 there and rely on the process-wide SIGPIPE disposition
// installed in start().
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace fixedpart::obs {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// Every endpoint fd is CLOEXEC: other threads fork worker processes, and
// an inherited socket would keep the peer's connection open until the
// worker exits.
void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("obs::HttpEndpoint: " + what + ": " +
                           std::strerror(errno));
}

const char* reason_for(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

/// Wall-clock budget for one connection. Every socket operation sets its
/// per-call timeout from the remaining budget, so the *total* time a
/// client can hold the serve thread is bounded — per-call socket timeouts
/// alone would let a byte-at-a-time client (slowloris) stretch a request
/// indefinitely.
class ConnBudget {
 public:
  explicit ConnBudget(double seconds)
      : deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(seconds))) {}

  bool expired() const {
    return std::chrono::steady_clock::now() >= deadline_;
  }

  /// Arms SO_RCVTIMEO/SO_SNDTIMEO with the remaining budget. Returns
  /// false when the budget is already gone.
  bool arm(int fd) const {
    const auto left = std::chrono::duration<double>(
                          deadline_ - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0.0) return false;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(left);
    tv.tv_usec = static_cast<suseconds_t>((left - static_cast<double>(
                                                      tv.tv_sec)) *
                                          1e6);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    return true;
  }

 private:
  std::chrono::steady_clock::time_point deadline_;
};

/// recv with EINTR retry under the connection budget. Returns > 0 on
/// data, 0 on orderly close, < 0 on timeout/error/budget-exhaustion.
ssize_t recv_some(int fd, char* buffer, std::size_t size,
                  const ConnBudget& budget) {
  while (true) {
    if (!budget.arm(fd)) return -1;
    const ssize_t n = ::recv(fd, buffer, size, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;  // signal mid-read: not a failure
    return -1;                     // timeout (EAGAIN) or a real error
  }
}

/// Sends all of `data`; gives up on budget expiry or a gone peer. EINTR
/// retries like recv_some. A client that closes (or resets) mid-response
/// is routine — scrapers time out, curls get ^C'd — so it must surface
/// as a counted early return, never as SIGPIPE killing the process:
/// MSG_NOSIGNAL suppresses the signal per-call and the EPIPE/ECONNRESET
/// result is swallowed here after bumping obs.http_peer_gone.
void send_all(int fd, const std::string& data, const ConnBudget& budget) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    if (!budget.arm(fd)) return;
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      static const MetricId peer_gone =
          Registry::global().counter("obs.http_peer_gone");
      Registry::global().add(peer_gone);
      return;
    }
    if (n <= 0) return;  // timeout or budget exhausted
    sent += static_cast<std::size_t>(n);
  }
}

std::string render_response(const HttpResponse& response) {
  const char* reason = response.reason.empty() ? reason_for(response.status)
                                               : response.reason.c_str();
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    reason + "\r\nContent-Type: " + response.content_type +
                    "\r\nContent-Length: " +
                    std::to_string(response.body.size());
  for (const auto& [key, value] : response.headers) {
    out += "\r\n" + key + ": " + value;
  }
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpResponse text_response(int status, const std::string& body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "text/plain";
  response.body = body;
  return response;
}

bool iequals(const std::string& a, const char* b) {
  const std::size_t len = std::strlen(b);
  if (a.size() != len) return false;
  for (std::size_t i = 0; i < len; ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Header field value by case-insensitive name from the raw header block
/// (without the request line). nullopt-like: returns false when absent.
bool find_header(const std::string& headers, const char* name,
                 std::string* value) {
  std::size_t start = 0;
  while (start < headers.size()) {
    std::size_t end = headers.find("\r\n", start);
    if (end == std::string::npos) end = headers.size();
    const std::string line = headers.substr(start, end - start);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string key = line.substr(0, colon);
      if (iequals(key, name)) {
        std::size_t vbegin = colon + 1;
        while (vbegin < line.size() &&
               std::isspace(static_cast<unsigned char>(line[vbegin]))) {
          ++vbegin;
        }
        std::size_t vend = line.size();
        while (vend > vbegin &&
               std::isspace(static_cast<unsigned char>(line[vend - 1]))) {
          --vend;
        }
        *value = line.substr(vbegin, vend - vbegin);
        return true;
      }
    }
    start = end + 2;
    if (end == headers.size()) break;
  }
  return false;
}

bool is_builtin_path(const std::string& path) {
  return path == "/metrics" || path == "/metrics.json" ||
         path == "/healthz" || path == "/progress";
}

}  // namespace

HttpEndpoint::HttpEndpoint(HttpEndpointConfig config)
    : config_(std::move(config)) {
  if (config_.registry == nullptr) config_.registry = &Registry::global();
  if (config_.io_timeout_seconds <= 0.0) config_.io_timeout_seconds = 5.0;
  if (config_.max_request_bytes == 0) config_.max_request_bytes = 1u << 20;
}

HttpEndpoint::~HttpEndpoint() { stop(); }

void HttpEndpoint::start() {
  if (thread_.joinable()) {
    throw std::logic_error("obs::HttpEndpoint: already started");
  }
  // Belt and braces with send_all's MSG_NOSIGNAL: MSG_NOSIGNAL only
  // covers ::send calls (and is 0 where the platform lacks it), while a
  // default SIGPIPE disposition turns any stray write to a dead peer
  // into process death. Idempotent, and an application-installed handler
  // is left alone.
  util::ignore_sigpipe();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  set_cloexec(listen_fd_);
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int saved = errno;
    close_fd(listen_fd_);
    errno = saved;
    throw_errno("bind 127.0.0.1:" + std::to_string(config_.port));
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int saved = errno;
    close_fd(listen_fd_);
    errno = saved;
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    const int saved = errno;
    close_fd(listen_fd_);
    errno = saved;
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  if (::pipe(wake_pipe_) != 0) {
    const int saved = errno;
    close_fd(listen_fd_);
    errno = saved;
    throw_errno("pipe");
  }
  set_cloexec(wake_pipe_[0]);
  set_cloexec(wake_pipe_[1]);
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
}

void HttpEndpoint::stop() {
  if (!thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  const char wake = 'x';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &wake, 1);
  thread_.join();
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  port_ = 0;
}

void HttpEndpoint::serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, 500);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (ready <= 0) continue;  // timeout or EINTR: re-check the flag
    if ((fds[0].revents & POLLIN) != 0) {
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn >= 0) {
        // CLOEXEC before handling: a worker forked while this connection
        // is open would otherwise inherit the socket and hold it — the
        // client then sees EOF only when the worker exits, not when the
        // response is done.
        set_cloexec(conn);
        handle_connection(conn);
        ::close(conn);
      }
    }
  }
}

void HttpEndpoint::handle_connection(int fd) {
  const ConnBudget budget(config_.io_timeout_seconds);
  const auto started = std::chrono::steady_clock::now();

  // Read the header block. Bytes past "\r\n\r\n" belong to the body and
  // are kept. The whole block is capped: a client pumping unbounded
  // headers gets 413, a client trickling them runs out the budget.
  std::string data;
  std::size_t header_end = std::string::npos;
  char buffer[4096];
  while (true) {
    header_end = data.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    if (data.size() > config_.max_request_bytes) {
      send_all(fd, render_response(
                       text_response(413, "request header block too large\n")),
               budget);
      return;
    }
    const ssize_t n = recv_some(fd, buffer, sizeof(buffer), budget);
    if (n < 0 && budget.expired()) {
      // Slowloris guard: the connection ran out its wall budget before
      // producing a complete request. 408 is best-effort — the client
      // may well be gone.
      send_all(fd, render_response(text_response(408, "request timeout\n")),
               budget);
      return;
    }
    if (n <= 0) return;  // peer closed or errored mid-request: drop
    data.append(buffer, static_cast<std::size_t>(n));
  }

  const std::size_t line_end = data.find("\r\n");
  if (line_end == std::string::npos || line_end > header_end) return;
  const std::string line = data.substr(0, line_end);
  const std::string header_block =
      data.substr(line_end + 2, header_end - line_end - 2);

  const std::size_t method_end = line.find(' ');
  const std::size_t target_end =
      method_end == std::string::npos ? std::string::npos
                                      : line.find(' ', method_end + 1);
  if (target_end == std::string::npos) {
    send_all(fd, render_response(text_response(400, "bad request\n")),
             budget);
    return;
  }

  HttpRequest request;
  request.method = line.substr(0, method_end);
  std::string target =
      line.substr(method_end + 1, target_end - method_end - 1);
  const std::size_t query = target.find('?');
  if (query != std::string::npos) {
    request.query = target.substr(query + 1);
    target.resize(query);
  }
  request.path = target;

  // Body: exactly Content-Length bytes, capped. "Expect: 100-continue"
  // clients are told to proceed (otherwise they stall for their own
  // timeout before sending the body).
  std::size_t content_length = 0;
  std::string header_value;
  if (find_header(header_block, "Content-Length", &header_value)) {
    char* parse_end = nullptr;
    const unsigned long long parsed =
        std::strtoull(header_value.c_str(), &parse_end, 10);
    if (parse_end == header_value.c_str() || *parse_end != '\0') {
      send_all(fd, render_response(text_response(400, "bad Content-Length\n")),
               budget);
      return;
    }
    content_length = static_cast<std::size_t>(parsed);
  }
  if (content_length > config_.max_request_bytes) {
    send_all(fd,
             render_response(text_response(
                 413, "request body exceeds " +
                          std::to_string(config_.max_request_bytes) +
                          " bytes\n")),
             budget);
    return;
  }
  if (find_header(header_block, "Expect", &header_value) &&
      iequals(header_value, "100-continue")) {
    send_all(fd, "HTTP/1.1 100 Continue\r\n\r\n", budget);
  }
  request.body = data.substr(header_end + 4);
  while (request.body.size() < content_length) {
    const ssize_t n = recv_some(fd, buffer, sizeof(buffer), budget);
    if (n <= 0) return;  // torn body within budget: nothing to salvage
    request.body.append(buffer, static_cast<std::size_t>(n));
  }
  request.body.resize(content_length);  // ignore pipelined extra bytes

  requests_.fetch_add(1, std::memory_order_relaxed);
  static const MetricId requests_counter =
      Registry::global().counter("obs.http_requests");
  Registry::global().add(requests_counter);

  HttpResponse response;
  try {
    const bool builtin = is_builtin_path(request.path);
    if (builtin && request.method == "GET") {
      if (request.path == "/metrics") {
        response.content_type = "text/plain; version=0.0.4; charset=utf-8";
        response.body = to_prometheus(config_.registry->scrape());
      } else if (request.path == "/metrics.json") {
        response.body = config_.registry->scrape().to_json();
      } else if (request.path == "/healthz") {
        response.content_type = "text/plain";
        response.body = "ok\n";
      } else {  // /progress
        response.body =
            config_.progress ? config_.progress() : std::string("{}\n");
      }
    } else if (config_.handler && config_.handler(request, response)) {
      // handled by the application routes
    } else if (builtin) {
      response = text_response(405, "only GET is supported\n");
    } else {
      response = text_response(404, "unknown path\n");
    }
  } catch (const std::exception& error) {
    // A scrape/progress/handler failure must not kill the serve thread.
    log_error("obs", "http request failed",
              {{"path", request.path}, {"what", error.what()}});
    response = text_response(500, "request failed\n");
  }
  send_all(fd, render_response(response), budget);

  static const MetricId latency = Registry::global().histogram(
      "obs.http_request_seconds", 0.0, 2.0, 40);
  Registry::global().observe(
      latency, std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started)
                   .count());
}

}  // namespace fixedpart::obs
