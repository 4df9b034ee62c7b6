#include "serve/net.hpp"

#if HT_HAVE_SOCKETS

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "util/error.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace ht::serve {

namespace {

void send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      HT_CHECK_MSG(false, "socket send failed: " << std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

void send_line(int fd, const std::string& line) {
  std::string framed = line;
  framed += '\n';
  send_all(fd, framed.data(), framed.size());
}

enum class Recv { kLine, kEof, kTooLong };

/// Pull one newline-terminated line out of (fd, carry). kEof on clean EOF
/// with no buffered data; kTooLong as soon as the line exceeds max_bytes.
Recv recv_line(int fd, std::string& carry, std::string& line,
               std::size_t max_bytes) {
  std::size_t scanned = 0;  // carry[0, scanned) holds no newline
  for (;;) {
    const std::size_t pos = carry.find('\n', scanned);
    if (pos != std::string::npos) {
      if (pos > max_bytes) return Recv::kTooLong;
      line.assign(carry, 0, pos);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      carry.erase(0, pos + 1);
      return Recv::kLine;
    }
    if (carry.size() > max_bytes) return Recv::kTooLong;
    scanned = carry.size();
    char buf[4096];
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Recv::kEof;  // connection reset: treat as EOF
    }
    if (r == 0) {
      if (carry.empty()) return Recv::kEof;
      line = std::move(carry);  // final unterminated line
      carry.clear();
      return Recv::kLine;
    }
    carry.append(buf, static_cast<std::size_t>(r));
  }
}

int connect_target(const std::string& target) {
  if (target.find('/') != std::string::npos) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    HT_CHECK_MSG(target.size() < sizeof(addr.sun_path),
                 "unix socket path too long: " << target);
    std::strncpy(addr.sun_path, target.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    HT_CHECK_MSG(fd >= 0, "socket(): " << std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const int err = errno;
      ::close(fd);
      HT_CHECK_MSG(false, "connect(" << target
                                     << "): " << std::strerror(err));
    }
    return fd;
  }

  std::string host = "127.0.0.1", port = target;
  const std::size_t colon = target.rfind(':');
  if (colon != std::string::npos) {
    host = target.substr(0, colon);
    port = target.substr(colon + 1);
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  HT_CHECK_MSG(rc == 0 && res != nullptr,
               "cannot resolve " << target << ": " << ::gai_strerror(rc));
  int fd = -1;
  int err = 0;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) { err = errno; continue; }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    err = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  HT_CHECK_MSG(fd >= 0,
               "connect(" << target << "): " << std::strerror(err));
  return fd;
}

}  // namespace

SocketServer::~SocketServer() {
  shutdown();
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void SocketServer::listen_unix(const std::string& path) {
  HT_CHECK_MSG(listen_fd_ < 0, "server is already listening");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  HT_CHECK_MSG(path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " << path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  HT_CHECK_MSG(fd >= 0, "socket(): " << std::strerror(errno));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    HT_CHECK_MSG(false, "bind/listen(" << path
                                       << "): " << std::strerror(err));
  }
  listen_fd_ = fd;
  unix_path_ = path;
}

void SocketServer::listen_tcp(int port) {
  HT_CHECK_MSG(listen_fd_ < 0, "server is already listening");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HT_CHECK_MSG(fd >= 0, "socket(): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    HT_CHECK_MSG(false, "bind/listen(127.0.0.1:"
                            << port << "): " << std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
}

void SocketServer::serve(Handler handler) {
  HT_CHECK_MSG(listen_fd_ >= 0, "serve() before listen");
  handler_ = std::move(handler);
  running_.store(true, std::memory_order_release);
  accept_loop();
}

void SocketServer::serve_async(Handler handler) {
  HT_CHECK_MSG(listen_fd_ >= 0, "serve_async() before listen");
  handler_ = std::move(handler);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&SocketServer::accept_loop, this);
}

void SocketServer::accept_loop() {
  // Snapshot the fd: shutdown() closes it (which unblocks accept) but only
  // clears the member after this thread is joined, so no racy member read.
  const int listen_fd = listen_fd_;
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      // shutdown() closed the listen socket: the only way out.
      if (!running_.load(std::memory_order_acquire)) break;
      if (err == EINTR || err == ECONNABORTED) continue;
      // Out of descriptors or kernel memory (EMFILE, ENFILE, ENOBUFS,
      // ENOMEM) or any other failure: the pending connection stays queued.
      // Release what finished connections hold and retry shortly.
      reap_finished();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    reap_finished();
    std::lock_guard<std::mutex> lock(connections_mutex_);
    // shutdown() clears running_ before it takes the lock to hang up and
    // join, so a connection added here is always one it will see.
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    Connection& c = connections_.emplace_back();
    c.fd = fd;
    c.worker = std::thread([this, &c] { handle_connection(c); });
  }
}

void SocketServer::handle_connection(Connection& c) {
  std::string carry, line;
  for (;;) {
    const Recv got = recv_line(c.fd, carry, line, kMaxLineBytes);
    if (got == Recv::kEof) break;
    std::string response = "ERR line too long";
    if (got == Recv::kLine) {
      try {
        response = handler_(line);
      } catch (const std::exception& e) {
        response = std::string("ERR ") + e.what();
      }
    }
    try {
      send_line(c.fd, response);
    } catch (const std::exception&) {
      break;  // peer went away mid-response
    }
    // Protocol-level close: QUIT/SHUTDOWN answer "OK bye" then hang up.
    if (got == Recv::kTooLong || response == "OK bye") break;
  }
  // Hang up now so the peer sees EOF; the fd is closed once reaped.
  ::shutdown(c.fd, SHUT_RDWR);
  c.done.store(true, std::memory_order_release);
}

void SocketServer::reap_finished() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (!it->done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    it->worker.join();
    ::close(it->fd);
    it = connections_.erase(it);
  }
}

void SocketServer::shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel) &&
      listen_fd_ < 0) {
    return;
  }
  if (listen_fd_ >= 0) {
    // Closing the listen socket unblocks the accept loop; the member is
    // cleared only after the accept thread is joined below (it still
    // holds its own copy of the fd value).
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  std::lock_guard<std::mutex> lock(connections_mutex_);
  // Workers of idle clients sit in recv(); hanging up makes it return.
  for (auto& c : connections_) ::shutdown(c.fd, SHUT_RDWR);
  for (auto& c : connections_) {
    c.worker.join();
    ::close(c.fd);
  }
  connections_.clear();
}

std::vector<std::string> query_lines(const std::string& target,
                                     const std::vector<std::string>& lines) {
#if !defined(MSG_NOSIGNAL) || MSG_NOSIGNAL == 0
  ::signal(SIGPIPE, SIG_IGN);
#endif
  const int fd = connect_target(target);
  std::vector<std::string> responses;
  responses.reserve(lines.size());
  std::string carry, line;
  try {
    for (const std::string& req : lines) {
      send_line(fd, req);
      HT_CHECK_MSG(
          recv_line(fd, carry, line, std::string::npos) == Recv::kLine,
          "server closed the connection before responding");
      responses.push_back(line);
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return responses;
}

std::string query_line(const std::string& target, const std::string& line) {
  return query_lines(target, {line}).front();
}

}  // namespace ht::serve

#endif  // HT_HAVE_SOCKETS
