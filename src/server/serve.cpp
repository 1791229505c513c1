#include "server/serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace mdd::server {

namespace {

struct ServeMetrics {
  obs::Counter& connections =
      obs::registry().counter("server.connections");
  /// Failed response writes (client hung up mid-request). These used to
  /// be swallowed silently; now each one is counted and logged.
  obs::Counter& connection_errors =
      obs::registry().counter("server.connection_errors");
  obs::Counter& parse_errors = obs::registry().counter("server.parse_errors");
  /// Writes that hit a full socket buffer and had to wait for POLLOUT —
  /// a slow reader behind a multi-KB response (streamed batches, big
  /// reports). Waiting is fine; only a stall past the write deadline
  /// fails the connection.
  obs::Counter& write_stalls = obs::registry().counter("server.write_stalls");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m;
  return m;
}

bool blank(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

/// Tracks in-flight requests so shutdown/EOF can drain before returning.
class Outstanding {
 public:
  void add() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++count_;
  }
  void done() {
    // Notify under the lock: wait_idle()'s waker may destroy this object
    // the moment it returns, so the last touch here must happen before
    // the waiter can reacquire the mutex.
    std::lock_guard<std::mutex> lock(mutex_);
    --count_;
    idle_.notify_all();
  }
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable idle_;
  std::size_t count_ = 0;
};

Json parse_error_response(const std::string& what) {
  Json r;
  r.set("status", "error");
  r.set("error", what);
  return r;
}

/// How long one response write may make zero progress before the
/// connection is declared dead. Generous: a scraper or batch client that
/// stops reading for 30s has effectively hung up.
constexpr int kWriteStallTimeoutMs = 30000;

// MSG_NOSIGNAL: a client that disconnects mid-response must surface as
// EPIPE here, not as a process-killing SIGPIPE. A short write is never
// dropped: the loop resumes at the unwritten tail, and a full socket
// buffer (EAGAIN — possible under SO_SNDTIMEO or a nonblocking fd) waits
// for POLLOUT instead of discarding the remainder.
void write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        serve_metrics().write_stalls.inc();
        pollfd p{fd, POLLOUT, 0};
        const int ready = ::poll(&p, 1, kWriteStallTimeoutMs);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0)
          throw std::runtime_error("write: receiver stalled past deadline");
        continue;
      }
      throw std::runtime_error(std::string("write: ") + std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

int serve_stdio(DiagnosisService& service, std::istream& in,
                std::ostream& out) {
  std::mutex out_mutex;
  Outstanding outstanding;
  const auto respond = [&](const Json& response) {
    std::lock_guard<std::mutex> lock(out_mutex);
    out << response.dump() << "\n";
    out.flush();
  };

  std::string line;
  while (std::getline(in, line)) {
    if (blank(line)) continue;
    Json request;
    try {
      request = Json::parse(line);
    } catch (const std::exception& e) {
      serve_metrics().parse_errors.inc();
      respond(parse_error_response(e.what()));
      continue;
    }
    if (request.get_string("op") == "shutdown") {
      outstanding.wait_idle();
      Json ack;
      if (const Json* id = request.find("id")) ack.set("id", *id);
      ack.set("status", "ok");
      ack.set("op", "shutdown");
      respond(ack);
      return 0;
    }
    if (request.get_string("op") == "ping") {
      respond(service.handle(request));  // liveness probe: jumps the queue
      continue;
    }
    outstanding.add();
    service.submit(
        std::move(request),
        [&](Json response) {
          respond(response);
          outstanding.done();
        },
        [&](const Json& streamed) { respond(streamed); });
  }
  outstanding.wait_idle();
  return 0;
}

int serve_tcp(DiagnosisService& service, std::uint16_t port,
              std::ostream& log,
              const std::function<void(std::uint16_t)>& on_listening) {
  const int listen_fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    log << "openmdd_serve: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd, 64) < 0) {
    log << "openmdd_serve: bind/listen: " << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return 1;
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  const std::uint16_t bound_port = ntohs(addr.sin_port);
  log << "openmdd_serve: listening on 127.0.0.1:" << bound_port << "\n";
  log.flush();
  if (on_listening) on_listening(bound_port);

  // One reader thread per connection, all feeding the shared service
  // queue; a shutdown op drains, acknowledges, and closes the listener.
  std::atomic<bool> stop{false};
  std::mutex threads_mutex;
  std::vector<std::thread> threads;
  std::mutex log_mutex;  // connection threads share `log`

  const auto connection_main = [&](int fd) {
    serve_metrics().connections.inc();
    std::mutex write_mutex;
    Outstanding outstanding;
    // One log line per connection, not per failed write: once the client
    // is gone every queued response for it fails the same way.
    bool write_failed = false;
    const auto respond = [&](const Json& response) {
      const std::string line = response.dump() + "\n";
      std::lock_guard<std::mutex> lock(write_mutex);
      if (write_failed) return;
      try {
        write_all(fd, line.data(), line.size());
      } catch (const std::exception& e) {
        // Client went away; outstanding work still drains harmlessly —
        // but the event is counted and logged, not swallowed.
        write_failed = true;
        serve_metrics().connection_errors.inc();
        Json record;
        record.set("event", "connection_error");
        record.set("fd", fd);
        record.set("error", e.what());
        std::lock_guard<std::mutex> log_lock(log_mutex);
        log << record.dump() << "\n";
        log.flush();
      }
    };

    std::string buffer;
    char chunk[4096];
    bool shutdown_server = false;
    for (;;) {
      const ssize_t r = ::read(fd, chunk, sizeof chunk);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(r));
      std::size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        if (blank(line)) continue;
        Json request;
        try {
          request = Json::parse(line);
        } catch (const std::exception& e) {
          serve_metrics().parse_errors.inc();
          respond(parse_error_response(e.what()));
          continue;
        }
        if (request.get_string("op") == "shutdown") {
          outstanding.wait_idle();
          Json ack;
          if (const Json* id = request.find("id")) ack.set("id", *id);
          ack.set("status", "ok");
          ack.set("op", "shutdown");
          respond(ack);
          shutdown_server = true;
          break;
        }
        if (request.get_string("op") == "ping") {
          // Answered on the reader thread, ahead of the queue: a
          // supervisor's health probe must measure process liveness, not
          // queue depth (a daemon deep into a batch is busy, not hung).
          respond(service.handle(request));
          continue;
        }
        outstanding.add();
        service.submit(
            std::move(request),
            [&](Json response) {
              respond(response);
              outstanding.done();
            },
            [&](const Json& streamed) { respond(streamed); });
      }
      if (shutdown_server) break;
    }
    outstanding.wait_idle();
    ::close(fd);
    if (shutdown_server) {
      stop.store(true);
      ::shutdown(listen_fd, SHUT_RDWR);  // unblocks accept()
    }
  };

  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (shutdown) or fatal
    }
    if (stop.load()) {
      ::close(fd);
      break;
    }
    std::lock_guard<std::mutex> lock(threads_mutex);
    // An exception escaping a thread entry would std::terminate the whole
    // daemon; downgrade to one logged, counted connection error.
    threads.emplace_back(
        [&](int cfd) {
          try {
            connection_main(cfd);
          } catch (const std::exception& e) {
            serve_metrics().connection_errors.inc();
            Json record;
            record.set("event", "connection_thread_error");
            record.set("fd", cfd);
            record.set("error", e.what());
            std::lock_guard<std::mutex> log_lock(log_mutex);
            log << record.dump() << "\n";
            log.flush();
            ::close(cfd);
          }
        },
        fd);
  }
  ::close(listen_fd);
  {
    std::lock_guard<std::mutex> lock(threads_mutex);
    for (std::thread& t : threads) t.join();
    threads.clear();
  }
  log << "openmdd_serve: shut down\n";
  return 0;
}

int connect_tcp_fd(const std::string& host, std::uint16_t port,
                   int connect_timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("bad host address: " + host);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(connect_timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
      throw std::runtime_error(std::string("socket: ") +
                               std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= give_up)
      throw std::runtime_error("cannot connect to " + host + ":" +
                               std::to_string(port));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send_line(const std::string& line) {
  const std::string framed = line + "\n";
  write_all(fd_, framed.data(), framed.size());
}

std::string LineClient::recv_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t r = ::read(fd_, chunk, sizeof chunk);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) throw std::runtime_error("connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(r));
  }
}

std::optional<std::string> LineClient::recv_line_for(int timeout_ms) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        give_up - std::chrono::steady_clock::now());
    if (left.count() <= 0) return std::nullopt;
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) return std::nullopt;
    char chunk[4096];
    const ssize_t r = ::read(fd_, chunk, sizeof chunk);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) throw std::runtime_error("connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(r));
  }
}

std::string LineClient::roundtrip(const std::string& line) {
  send_line(line);
  return recv_line();
}

}  // namespace mdd::server
