// Minimal POSIX socket server + client helper for the tuckerd line
// protocol. Unix-domain and 127.0.0.1 TCP listeners are supported; the
// target string picks the transport: anything containing '/' is a unix
// socket path, otherwise it is host:port (client) or a bare port was
// already resolved by the caller (server).
//
// The server runs one accept loop and one thread per connection; each
// connection reads newline-delimited requests (at most kMaxLineBytes each)
// and writes one response line per request via a caller-supplied handler.
// Finished connections are reaped on the next accept, so idle clients never
// hold up new ones. A failed accept() (out of descriptors, say) is retried
// after a short back-off that also reaps finished connections; the loop
// ends only on shutdown(). shutdown() closes the listen socket, unblocks
// accept() and every live connection's recv(), and joins every worker —
// call it from a thread other than a handler's (tuckerd defers it to its
// main thread).
#pragma once

#if defined(__unix__) || defined(__APPLE__)
#define HT_HAVE_SOCKETS 1
#else
#define HT_HAVE_SOCKETS 0
#endif

#if HT_HAVE_SOCKETS

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ht::serve {

/// Longest request line the server accepts; a longer one is answered with
/// "ERR line too long" and the connection is closed. 1 MiB holds a SCOREB
/// of over 23,000 four-mode queries at full 10-digit coordinates.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

class SocketServer {
 public:
  /// Handler: one request line in (no newline), one response line out.
  using Handler = std::function<std::string(const std::string&)>;

  SocketServer() = default;
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Listen on a unix-domain socket path (unlinks a stale socket first).
  void listen_unix(const std::string& path);
  /// Listen on 127.0.0.1:port; port 0 picks a free port (see port()).
  void listen_tcp(int port);

  /// Bound TCP port (after listen_tcp), 0 for unix sockets.
  [[nodiscard]] int port() const { return port_; }

  /// Accept + serve until shutdown(). Blocks the calling thread.
  void serve(Handler handler);
  /// Run serve() on a background thread.
  void serve_async(Handler handler);

  /// Stop accepting, close the listen socket, hang up every connection and
  /// join all workers.
  void shutdown();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

 private:
  /// One client: its socket stays open until the worker is joined, so
  /// shutdown() can never hit an fd number the kernel has reused.
  struct Connection {
    int fd = -1;
    std::thread worker;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void handle_connection(Connection& c);
  /// Join and close the connections whose worker has finished.
  void reap_finished();

  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::string unix_path_;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::list<Connection> connections_;  // stable addresses for the workers
};

/// Client: connect to `target`, send each line, collect one response line
/// per request. A target containing '/' is a unix socket path, otherwise
/// "host:port". Throws ht::Error on connection or I/O failure.
std::vector<std::string> query_lines(const std::string& target,
                                     const std::vector<std::string>& lines);

/// Single-request convenience wrapper over query_lines().
std::string query_line(const std::string& target, const std::string& line);

}  // namespace ht::serve

#endif  // HT_HAVE_SOCKETS
