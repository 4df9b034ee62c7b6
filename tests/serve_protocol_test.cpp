// Wire protocol and dispatcher: request parsing, %.17g double round-trip,
// dispatcher responses against a live handle (including engine rebuild on
// hot swap), a loopback SocketServer end-to-end exchange, and the server's
// behaviour under idle, departing and oversized clients.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker_model.hpp"
#include "serve/dispatcher.hpp"
#include "serve/model_handle.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_model.hpp"
#include "tensor/generators.hpp"

#if HT_HAVE_SOCKETS
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <future>
#include <mutex>
#endif

namespace {

using ht::core::TuckerModel;
using ht::serve::Dispatcher;
using ht::serve::DispatcherHooks;
using ht::serve::ModelHandle;
using ht::serve::QueryOptions;
using ht::serve::Request;
using ht::serve::RequestType;
using ht::serve::ServeModel;
using ht::tensor::CooTensor;
using ht::tensor::index_t;

std::shared_ptr<const ServeModel> tiny_model() {
  static const std::shared_ptr<const ServeModel> model = [] {
    CooTensor x = ht::tensor::random_zipf({12, 9, 6}, 400, {0.8, 0.8, 0.5},
                                          31);
    ht::tensor::plant_low_rank_values(x, 2, 0.1, 32);
    ht::core::HooiOptions options;
    options.ranks = {3, 3, 2};
    options.max_iterations = 2;
    return std::make_shared<const ServeModel>(
        TuckerModel::from_hooi(x, ht::core::hooi(x, options)));
  }();
  return model;
}

TEST(ProtocolTest, ParsesEveryRequestKind) {
  EXPECT_EQ(ht::serve::parse_request("PING").type, RequestType::kPing);
  EXPECT_EQ(ht::serve::parse_request("  INFO  ").type, RequestType::kInfo);
  EXPECT_EQ(ht::serve::parse_request("STATS").type, RequestType::kStats);
  EXPECT_EQ(ht::serve::parse_request("RELOAD").type, RequestType::kReload);
  EXPECT_EQ(ht::serve::parse_request("SHUTDOWN").type,
            RequestType::kShutdown);
  EXPECT_EQ(ht::serve::parse_request("QUIT").type, RequestType::kQuit);

  const Request score = ht::serve::parse_request("SCORE 3 17 5");
  ASSERT_EQ(score.type, RequestType::kScore);
  ASSERT_EQ(score.queries.size(), 1u);
  EXPECT_EQ(score.queries[0], (std::vector<index_t>{3, 17, 5}));

  const Request batch = ht::serve::parse_request("SCOREB 1,2,3;4,5,6");
  ASSERT_EQ(batch.type, RequestType::kScoreBatch);
  ASSERT_EQ(batch.queries.size(), 2u);
  EXPECT_EQ(batch.queries[1], (std::vector<index_t>{4, 5, 6}));

  const Request topk = ht::serve::parse_request("TOPK 7 10 2");
  ASSERT_EQ(topk.type, RequestType::kTopk);
  EXPECT_EQ(topk.entity, 7u);
  EXPECT_EQ(topk.k, 10u);
  EXPECT_EQ(topk.rest, (std::vector<index_t>{2}));
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  for (const char* bad :
       {"", "   ", "FROB", "SCORE", "SCORE 1 x 3", "SCORE -1 2 3",
        "SCOREB", "SCOREB 1,2,;3", "TOPK", "TOPK 5", "TOPK 5 0",
        "TOPK x 3", "SCORE 99999999999"}) {
    const Request r = ht::serve::parse_request(bad);
    EXPECT_EQ(r.type, RequestType::kInvalid) << "input: '" << bad << "'";
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(ProtocolTest, DoubleRoundTripsTheWireBitExactly) {
  for (const double v : {0.0, -0.0, 1.0 / 3.0, -2.718281828459045e-12,
                         123456789.123456789}) {
    const std::string line = ht::serve::format_value(v);
    ASSERT_TRUE(ht::serve::response_ok(line));
    const double parsed = std::strtod(line.c_str() + 3, nullptr);
    EXPECT_EQ(std::memcmp(&parsed, &v, sizeof v), 0) << line;
  }
}

TEST(ProtocolTest, ResponseOkDiscriminates) {
  EXPECT_TRUE(ht::serve::response_ok("OK"));
  EXPECT_TRUE(ht::serve::response_ok("OK pong"));
  EXPECT_FALSE(ht::serve::response_ok("ERR nope"));
  EXPECT_FALSE(ht::serve::response_ok("OKAY"));
  EXPECT_FALSE(ht::serve::response_ok(""));
}

TEST(DispatcherTest, AnswersQueriesAndErrors) {
  ModelHandle handle;
  handle.publish(tiny_model());
  Dispatcher dispatcher(handle, QueryOptions{});

  EXPECT_EQ(dispatcher.handle_line("PING"), "OK pong");
  EXPECT_TRUE(ht::serve::response_ok(dispatcher.handle_line("INFO")));

  // SCORE through the wire == direct model query, bit-exactly.
  const std::vector<index_t> idx = {3, 4, 5};
  const std::string line = dispatcher.handle_line("SCORE 3 4 5");
  ASSERT_TRUE(ht::serve::response_ok(line)) << line;
  const double wire = std::strtod(line.c_str() + 3, nullptr);
  const double direct = tiny_model()->score(idx);
  EXPECT_EQ(std::memcmp(&wire, &direct, sizeof wire), 0);

  // Errors: bounds, arity, unknown commands, hooks not installed.
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("SCORE 99 0 0")));
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("SCORE 1 2")));
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("NONSENSE")));
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("RELOAD")));
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("TOPK 0 3")));
  EXPECT_TRUE(ht::serve::response_ok(dispatcher.handle_line("TOPK 0 3 1")));
}

TEST(DispatcherTest, NoModelPublishedIsAnError) {
  ModelHandle handle;
  Dispatcher dispatcher(handle, QueryOptions{});
  EXPECT_EQ(dispatcher.handle_line("PING"), "OK pong");
  EXPECT_FALSE(ht::serve::response_ok(dispatcher.handle_line("SCORE 0 0 0")));
}

TEST(DispatcherTest, RebuildsEngineOnEpochChange) {
  ModelHandle handle;
  handle.publish(tiny_model());
  Dispatcher dispatcher(handle, QueryOptions{});

  ASSERT_TRUE(ht::serve::response_ok(dispatcher.handle_line("SCORE 1 1 1")));
  const auto engine_before = dispatcher.engine();

  handle.publish(tiny_model());  // same model, new epoch
  ASSERT_TRUE(ht::serve::response_ok(dispatcher.handle_line("SCORE 1 1 1")));
  const auto engine_after = dispatcher.engine();
  EXPECT_NE(engine_before.get(), engine_after.get())
      << "dispatcher must rebuild the engine (cold cache) after a swap";

  // The old engine handle stays usable for in-flight requests.
  EXPECT_EQ(engine_before->score(std::vector<index_t>{1, 1, 1}),
            engine_after->score(std::vector<index_t>{1, 1, 1}));
}

#if HT_HAVE_SOCKETS
TEST(SocketServerTest, LoopbackEndToEnd) {
  ModelHandle handle;
  handle.publish(tiny_model());
  bool reloaded = false;
  DispatcherHooks hooks;
  hooks.reload = [&reloaded, &handle] {
    reloaded = true;
    handle.publish(tiny_model());
  };
  Dispatcher dispatcher(handle, QueryOptions{}, hooks);

  ht::serve::SocketServer server;
  server.listen_tcp(0);  // free port
  ASSERT_GT(server.port(), 0);
  server.serve_async(
      [&dispatcher](const std::string& line) {
        return dispatcher.handle_line(line);
      });

  const std::string target = "127.0.0.1:" + std::to_string(server.port());
  const auto responses = ht::serve::query_lines(
      target, {"PING", "SCORE 3 4 5", "SCOREB 3,4,5;1,1,1", "TOPK 3 2 1",
               "RELOAD", "STATS", "QUIT"});
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(responses[0], "OK pong");
  for (const auto& r : responses) {
    EXPECT_TRUE(ht::serve::response_ok(r)) << r;
  }
  EXPECT_TRUE(reloaded);

  // SCORE over the socket == direct query, bit-exact through %.17g.
  const double wire = std::strtod(responses[1].c_str() + 3, nullptr);
  const double direct = tiny_model()->score(std::vector<index_t>{3, 4, 5});
  EXPECT_EQ(std::memcmp(&wire, &direct, sizeof wire), 0);

  // Several sequential clients; then shut the server down.
  for (int c = 0; c < 5; ++c) {
    EXPECT_EQ(ht::serve::query_line(target, "PING"), "OK pong");
  }
  server.shutdown();
  EXPECT_THROW(ht::serve::query_line(target, "PING"), ht::Error);
}

// Raw unix-socket client pieces, so a test can hold a connection open
// without sending anything and bound every wait.
std::string test_socket_path(const std::string& name) {
  return ::testing::TempDir() + "ht_" + std::to_string(::getpid()) + "_" +
         name + ".sock";
}

int connect_unix(const std::string& path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  return fd;
}

/// Send all of `data`; false once the peer stops taking it.
bool send_raw(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Read one line; empty optional on EOF or when the receive timeout hits.
std::optional<std::string> read_line(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line += c;
  }
  return std::nullopt;
}

std::string echo_size(const std::string& line) {
  return line == "PING" ? "OK pong" : "OK " + std::to_string(line.size());
}

TEST(SocketServerTest, SixtyFifthClientAnsweredWhile64AreIdle) {
  const std::string path = test_socket_path("idle64");
  ht::serve::SocketServer server;
  server.listen_unix(path);
  server.serve_async(echo_size);

  std::vector<int> idle;
  for (int i = 0; i < 64; ++i) idle.push_back(connect_unix(path, 1.0));
  const int fd = connect_unix(path, 1.0);
  ASSERT_TRUE(send_raw(fd, "PING\n"));
  EXPECT_EQ(read_line(fd), std::optional<std::string>("OK pong"));

  ::close(fd);
  for (const int c : idle) ::close(c);
  server.shutdown();
}

TEST(SocketServerTest, ShutdownHangsUpIdleClients) {
  // tuckerd's SHUTDOWN path: the handler only signals, and another thread
  // tears the server down while a second client sits idle.
  const std::string path = test_socket_path("shutdown");
  std::mutex m;
  std::condition_variable cv;
  bool requested = false;
  ht::serve::SocketServer server;
  server.listen_unix(path);
  server.serve_async([&](const std::string& line) -> std::string {
    if (line != "SHUTDOWN") return echo_size(line);
    {
      std::lock_guard<std::mutex> lock(m);
      requested = true;
    }
    cv.notify_all();
    return "OK bye";
  });

  const int idle = connect_unix(path, 2.0);
  ASSERT_TRUE(send_raw(idle, "PING\n"));  // accepted and now idle
  ASSERT_EQ(read_line(idle), std::optional<std::string>("OK pong"));
  EXPECT_EQ(ht::serve::query_line(path, "SHUTDOWN"), "OK bye");
  {
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(2),
                            [&] { return requested; }));
  }
  auto stopped = std::async(std::launch::async, [&] { server.shutdown(); });
  const bool in_time =
      stopped.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  EXPECT_TRUE(in_time) << "shutdown() still waiting on the idle client";
  if (in_time) {
    EXPECT_EQ(read_line(idle), std::nullopt);  // hung up: EOF
  }
  ::close(idle);  // lets a stuck shutdown() finish so the test can end
  stopped.wait();
}

TEST(SocketServerTest, AcceptSurvivesDescriptorExhaustion) {
  const std::string path = test_socket_path("emfile");
  ht::serve::SocketServer server;
  server.listen_unix(path);
  server.serve_async(echo_size);

  // Closes the clients and restores the descriptor limit on every exit, so
  // a failed assertion cannot leave the later tests in this binary with
  // almost no descriptors.
  struct LimitGuard {
    std::vector<int> clients;
    rlimit saved{};
    bool lowered = false;
    bool release() {
      for (const int fd : clients) ::close(fd);
      clients.clear();
      const bool ok = !lowered || ::setrlimit(RLIMIT_NOFILE, &saved) == 0;
      lowered = false;
      return ok;
    }
    ~LimitGuard() { release(); }
  } guard;

  // Client sockets are made before the limit drops: connect() needs no new
  // descriptor, but every accept() on the server side does.
  constexpr int kClients = 24;
  for (int i = 0; i < kClients; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    guard.clients.push_back(fd);
    timeval tv{};
    tv.tv_usec = 300000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  // At most two free descriptor numbers below the new soft limit.
  const int lowest_free = ::dup(0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &guard.saved), 0);
  rlimit low = guard.saved;
  low.rlim_cur = static_cast<rlim_t>(lowest_free) + 2;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  guard.lowered = true;

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (const int fd : guard.clients) {
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
  }
  // The last client queues behind accept() failures: no answer.
  EXPECT_TRUE(send_raw(guard.clients.back(), "PING\n"));
  EXPECT_EQ(read_line(guard.clients.back()), std::nullopt);

  ASSERT_TRUE(guard.release());
  const int fd = connect_unix(path, 5.0);
  ASSERT_TRUE(send_raw(fd, "PING\n"));
  EXPECT_EQ(read_line(fd), std::optional<std::string>("OK pong"));
  ::close(fd);
  server.shutdown();
}

TEST(SocketServerTest, OverlongLineIsRefusedAndClosed) {
  const std::string path = test_socket_path("overlong");
  ht::serve::SocketServer server;
  server.listen_unix(path);
  server.serve_async(echo_size);

  // A line right at the cap is still served.
  const int ok = connect_unix(path, 5.0);
  ASSERT_TRUE(send_raw(ok, std::string(ht::serve::kMaxLineBytes, 'x') + "\n"));
  EXPECT_EQ(read_line(ok), "OK " + std::to_string(ht::serve::kMaxLineBytes));
  ::close(ok);

  // 2 MiB with no newline: refused once past the cap, then hung up.
  const int fd = connect_unix(path, 5.0);
  EXPECT_FALSE(send_raw(fd, std::string(std::size_t{2} << 20, 'x')));
  EXPECT_EQ(read_line(fd), std::optional<std::string>("ERR line too long"));
  EXPECT_EQ(read_line(fd), std::nullopt);
  ::close(fd);

  EXPECT_EQ(ht::serve::query_line(path, "PING"), "OK pong");
  server.shutdown();
}
#endif  // HT_HAVE_SOCKETS

}  // namespace
