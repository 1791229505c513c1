// openmdd — transports for the diagnosis daemon.
//
// The service itself is transport-free (JSON in, JSON out); this layer
// frames it as line-delimited JSON over two transports:
//
//  * serve_stdio — one request object per stdin line, one response object
//    per stdout line. Responses are written as they complete, so they can
//    arrive out of order relative to requests — clients match on `id`.
//  * serve_tcp — same framing on a loopback-only TCP socket, one reader
//    thread per connection, all feeding the shared service queue.
//
// Both loops understand {"op":"shutdown"}: drain outstanding work,
// acknowledge, and return. The matching blocking client (LineClient and
// its TCP flavor) is used by openmdd_loadgen and the smoke tests.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "server/service.hpp"

namespace mdd::server {

/// Serves until EOF or a shutdown op; returns 0 on clean exit.
int serve_stdio(DiagnosisService& service, std::istream& in,
                std::ostream& out);

/// Binds 127.0.0.1:`port` (0 = ephemeral), writes the readiness line
/// `openmdd_serve: listening on 127.0.0.1:<port>` to `log` (scripts parse
/// it for the port), reports the bound port through `on_listening`, and
/// serves until a shutdown op. Returns 0 on clean exit, nonzero on socket
/// errors. Loopback only by design — the daemon speaks an unauthenticated
/// protocol.
int serve_tcp(DiagnosisService& service, std::uint16_t port,
              std::ostream& log,
              const std::function<void(std::uint16_t)>& on_listening = {});

/// Connects a blocking TCP stream socket to `host`:`port`, retrying for
/// up to `connect_timeout_ms` (server startup races). Returns the
/// connected fd (CLOEXEC); throws std::runtime_error on timeout.
int connect_tcp_fd(const std::string& host, std::uint16_t port,
                   int connect_timeout_ms = 5000);

/// Blocking JSONL client over an adopted stream socket: one line out, one
/// line in. Throws std::runtime_error on IO failure.
class LineClient {
 public:
  /// Adopts `fd` (closed by the destructor).
  explicit LineClient(int fd) : fd_(fd) {}
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends one request line and blocks for one response line.
  std::string roundtrip(const std::string& line);

  void send_line(const std::string& line);
  std::string recv_line();
  /// recv_line with a poll deadline: nullopt if no complete line arrived
  /// within `timeout_ms` (the connection stays usable); throws on EOF or
  /// socket error like recv_line.
  std::optional<std::string> recv_line_for(int timeout_ms);

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// LineClient connected to 127.0.0.1:`port`, retrying the connect for up
/// to `connect_timeout_ms` (server startup races in scripts/CI).
class TcpLineClient : public LineClient {
 public:
  TcpLineClient(const std::string& host, std::uint16_t port,
                int connect_timeout_ms = 5000)
      : LineClient(connect_tcp_fd(host, port, connect_timeout_ms)) {}
};

}  // namespace mdd::server
