// serve-zipf: request to response through the tuckerd socket.
//
// The generator trains a Netflix-shaped model on all but 1% of the
// nonzeros and writes it as a bundle, with the held-out entries and a
// request trace: users drawn Zipf(1.1) over mode 0, 80% SCORE and 20%
// TOPK k=10. Set-up is spawning tuckerd until its first correct SCORE
// answer. The load is a closed loop of two persistent connections from
// this one process: the line protocol answers one request per line, so
// each connection is a caller waiting for its reply.
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/hooi.hpp"
#include "core/split.hpp"
#include "core/tucker_model.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/serve_model.hpp"
#include "storage/bundle.hpp"
#include "tensor/generators.hpp"
#include "tensor/io.hpp"
#include "workloads.hpp"

extern char** environ;

namespace hb {

namespace {

using namespace ht;
using tensor::index_t;

constexpr std::size_t kRequests = 100000;
constexpr double kZipf = 1.1;
constexpr double kTopkShare = 0.2;
constexpr int kTopk = 10;
constexpr int kConnections = 2;
constexpr std::size_t kWarmup = 500;      // per connection, discarded
constexpr std::size_t kSampleEvery = 50;  // answers checked in-process
constexpr std::size_t kTestQueries = 2000;
constexpr std::size_t kCacheEntries = 4096;  // tuckerd's default

/// One persistent line-protocol connection to the daemon.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Send one request line and wait for its one response line.
  std::string call(const std::string& line) {
    std::string out = line + '\n';
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::write(fd_, out.data() + sent, out.size() - sent);
      if (n <= 0) throw std::runtime_error("write to tuckerd failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t eol = carry_.find('\n');
      if (eol != std::string::npos) {
        std::string response = carry_.substr(0, eol);
        carry_.erase(0, eol + 1);
        return response;
      }
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("tuckerd closed the connection");
      carry_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string carry_;
};

/// A tuckerd child process; stopped and reaped on destruction.
class Daemon {
 public:
  Daemon(const std::string& bundle, const std::string& socket) {
    std::string exe(4096, '\0');
    const ssize_t n = ::readlink("/proc/self/exe", exe.data(), exe.size() - 1);
    if (n <= 0) throw std::runtime_error("cannot locate htbench");
    exe.resize(static_cast<std::size_t>(n));
    exe = exe.substr(0, exe.rfind('/') + 1) + "tuckerd";
    std::vector<std::string> args = {exe,      "--model",   bundle,
                                     "--socket", socket,     "--threads",
                                     "1",        "--reload-interval", "3600"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::unlink(socket.c_str());
    if (::posix_spawn(&pid_, exe.c_str(), nullptr, nullptr, argv.data(),
                      environ) != 0) {
      throw std::runtime_error("cannot spawn " + exe);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const { return pid_; }

  /// Connect, retrying until the daemon listens (or 30 s pass).
  std::unique_ptr<Conn> connect(const std::string& socket) const {
    const double deadline = now_s() + 30.0;
    for (;;) {
      auto c = std::make_unique<Conn>(socket);
      if (c->connected()) return c;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        throw std::runtime_error("tuckerd exited before listening");
      }
      if (now_s() > deadline) throw std::runtime_error("tuckerd never listened");
      ::usleep(500);
    }
  }

  /// SIGTERM (tuckerd's clean shutdown), then SIGKILL after 10 s; reaps.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const double deadline = now_s() + 10.0;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(1000);
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string score_line(const tensor::CooTensor& x, tensor::nnz_t t) {
  std::string s = "SCORE";
  for (std::size_t n = 0; n < x.order(); ++n) {
    s += ' ' + std::to_string(x.index(n, t));
  }
  return s;
}

/// The answer tuckerd must give, computed by an in-process QueryEngine.
std::string expected_answer(serve::QueryEngine& engine, const std::string& line) {
  const serve::Request r = serve::parse_request(line);
  if (r.type == serve::RequestType::kScore) {
    return serve::format_value(engine.score(r.queries[0]));
  }
  if (r.type == serve::RequestType::kTopk) {
    const auto top = engine.topk(r.entity, r.k, r.rest);
    return serve::format_topk(top);
  }
  throw std::runtime_error("unexpected request in trace: " + line);
}

bool sampled(std::uint64_t seed, std::size_t idx) {
  std::uint64_t h = (seed + 0x9e3779b97f4a7c15ull) ^ (idx * 0xbf58476d1ce4e5b9ull);
  h ^= h >> 31;
  return h % kSampleEvery == 0;
}

struct LoopResult {
  std::vector<double> latency;  // seconds, every connection
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  double seconds = 0;
  std::vector<std::pair<std::size_t, std::string>> samples;
  std::vector<std::string> errors;
};

/// Closed loop: each connection sends its share of the trace, one request
/// at a time, until `seconds` pass. With traces, every request is a span.
LoopResult closed_loop(std::vector<std::unique_ptr<Conn>>& conns,
                       const std::vector<std::string>& requests,
                       std::uint64_t seed, double seconds,
                       std::vector<Trace>* traces) {
  std::vector<LoopResult> parts(conns.size());
  const double start = now_s();
  const double end = start + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      LoopResult& out = parts[c];
      Trace* tr = traces ? &(*traces)[c] : nullptr;
      try {
        for (std::size_t k = 0; now_s() < end; ++k) {
          const std::size_t idx = (c + k * conns.size()) % requests.size();
          const double t0 = now_s();
          std::string response;
          {
            Trace::Scope s(tr, "client.request");
            response = conns[c]->call(requests[idx]);
          }
          out.latency.push_back(now_s() - t0);
          ++out.attempted;
          if (serve::response_ok(response)) {
            ++out.ok;
          } else if (out.errors.size() < 5) {
            out.errors.push_back(requests[idx] + " -> " + response);
          }
          if (sampled(seed, idx)) out.samples.emplace_back(idx, std::move(response));
        }
      } catch (const std::exception& e) {
        ++out.attempted;
        out.errors.push_back(e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopResult all;
  all.seconds = now_s() - start;
  for (auto& p : parts) {
    all.latency.insert(all.latency.end(), p.latency.begin(), p.latency.end());
    all.attempted += p.attempted;
    all.ok += p.ok;
    for (auto& s : p.samples) all.samples.push_back(std::move(s));
    for (auto& e : p.errors) all.errors.push_back(std::move(e));
  }
  return all;
}

/// hits / (hits + misses) from the daemon's STATS line.
double cache_hit_ratio(const std::string& stats) {
  const auto field = [&](const char* key) {
    const std::size_t at = stats.find(key);
    return at == std::string::npos
               ? 0.0
               : std::strtod(stats.c_str() + at + std::strlen(key), nullptr);
  };
  const double hits = field("hits=");
  const double misses = field("misses=");
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

}  // namespace

void gen_serve(const Args& args) {
  const tensor::PresetSpec preset =
      tensor::paper_preset("netflix", kNetflixScale);
  const tensor::CooTensor x = tensor::generate_preset(preset, kDatasetSeed);
  core::SplitOptions so;
  so.test_fraction = 0.01;
  so.seed = args.seed;
  const core::TensorSplit split = core::split_tensor(x, so);
  core::HooiOptions o;
  o.ranks = preset.ranks;
  o.max_iterations = 3;
  o.fit_tolerance = 0.0;
  o.num_threads = kThreads;
  const core::TuckerModel model =
      core::TuckerModel::from_hooi(split.train, core::hooi(split.train, o));
  storage::save_bundle(model, args.data + "/model.htb");
  tensor::write_tns_file(args.data + "/test.tns", split.test);

  // Zipf(kZipf) over users: rank r has weight r^-s; a seeded permutation
  // maps ranks to user ids, so the hot users are not the low ids.
  const index_t users = x.dim(0);
  std::mt19937_64 rng(args.seed * 0x2545f4914f6cdd1dull + 7);
  std::vector<index_t> perm(users);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<double> cdf(users);
  double total = 0;
  for (index_t r = 0; r < users; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipf);
    cdf[r] = total;
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::ofstream out(args.data + "/requests.txt");
  for (std::size_t q = 0; q < kRequests; ++q) {
    const double u = unit(rng) * total;
    const auto rank = std::min<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(), users - 1);
    const index_t user = perm[rank];
    const bool topk = unit(rng) < kTopkShare;
    const index_t item = static_cast<index_t>(unit(rng) * x.dim(1));
    const index_t time = static_cast<index_t>(unit(rng) * x.dim(2));
    if (topk) {
      out << "TOPK " << user << ' ' << kTopk << ' ' << time << '\n';
    } else {
      out << "SCORE " << user << ' ' << item << ' ' << time << '\n';
    }
  }
  Meta meta;
  for (const index_t d : x.shape()) meta["shape"].push_back(d);
  write_meta(args.data + "/meta.txt", meta);
  if (!out) throw std::runtime_error("cannot write the request trace");
}

void run_serve(const Args& args, Report& report) {
  const Meta meta = read_meta(args.data + "/meta.txt");
  const tensor::Shape shape = meta_shape(meta);
  const std::string bundle = args.data + "/model.htb";
  const std::string socket = args.data + "/tuckerd.sock";
  const std::vector<std::string> requests = read_lines(args.data + "/requests.txt");
  const tensor::CooTensor test = tensor::read_tns_file(args.data + "/test.tns", shape);

  Trace trace;
  Trace* tr = args.trace ? &trace : nullptr;
  std::shared_ptr<const serve::ServeModel> model;
  {
    Trace::Scope s(tr, "storage.load_bundle");
    model = serve::ServeModel::load(bundle, /*verify=*/true);
  }
  serve::QueryOptions qopt;
  qopt.cache_entries = kCacheEntries;
  serve::QueryEngine reference(model, qopt);
  const std::string first_line = score_line(test, 0);
  const std::string first_answer = expected_answer(reference, first_line);

  // Set-up: spawn to first correct answer, repeated; the last daemon stays.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  const auto spawn = [&] {
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(bundle, socket);
    const std::string answer = daemon->connect(socket)->call(first_line);
    const double seconds = now_s() - t0;
    report.attempt();
    if (answer != first_answer) {
      report.fail("first answer '" + answer + "' != '" + first_answer + "'");
    }
    return seconds;
  };
  for (const double start = now_s(); more_setups(setup_s, start);) {
    setup_s.push_back(spawn());
  }
  if (tr != nullptr) {  // one more, traced and not timed
    Trace::Scope s(tr, "setup");
    spawn();
  }

  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kConnections; ++c) conns.push_back(daemon->connect(socket));
  for (int c = 0; c < kConnections; ++c) {
    for (std::size_t k = 0; k < kWarmup; ++k) {
      conns[c]->call(requests[(c + k * kConnections) % requests.size()]);
    }
  }

  const double loop_s = args.trace ? args.seconds / 2 : args.seconds;
  LoopResult loop = closed_loop(conns, requests, args.seed, loop_s, nullptr);
  std::vector<Trace> client_traces(kConnections);
  LoopResult traced;
  if (args.trace) {
    traced = closed_loop(conns, requests, args.seed, loop_s, &client_traces);
  }
  for (const LoopResult* l : {&loop, &traced}) {
    report.attempt(l->attempted);
    for (const auto& e : l->errors) std::fprintf(stderr, "htbench: %s\n", e.c_str());
    if (l->attempted > l->ok) report.fail("requests not answered OK", l->attempted - l->ok);
  }

  // A seeded sample of answers must match the in-process engine bit for bit.
  bool corrupted = false;
  for (auto* l : {&loop, &traced}) {
    for (auto& [idx, response] : l->samples) {
      if (args.inject == "answer" && !corrupted) {
        response.back() = response.back() == '1' ? '2' : '1';
        corrupted = true;
      }
      if (response != expected_answer(reference, requests[idx])) {
        report.fail("answer to '" + requests[idx] + "' differs: " + response);
      }
    }
  }
  report.note("answers_checked",
              static_cast<double>(loop.samples.size() + traced.samples.size()));

  // Held-out entries scored through the socket: test_rmse as served.
  double sse = 0;
  const std::size_t nq = std::min<std::size_t>(kTestQueries, test.nnz());
  for (std::size_t t = 0; t < nq; ++t) {
    const std::string line = score_line(test, t);
    const std::string answer = conns[0]->call(line);
    report.attempt();
    if (answer != expected_answer(reference, line)) {
      report.fail("held-out answer to '" + line + "' differs: " + answer);
    }
    const double v = std::strtod(answer.c_str() + 3, nullptr) - test.value(t);
    sse += v * v;
  }
  const double test_rmse = std::sqrt(sse / static_cast<double>(nq));
  const double hit_ratio = cache_hit_ratio(conns[0]->call("STATS"));
  const double daemon_rss = peak_rss_mb(daemon->pid());

  std::vector<double> ping;
  if (args.trace) {
    for (int i = 0; i < 1000; ++i) {
      const double t0 = now_s();
      conns[0]->call("PING");
      ping.push_back(now_s() - t0);
    }
  }
  conns.clear();
  daemon->stop();

  const double lat = median(loop.latency);
  report.note("latency_samples", static_cast<double>(loop.latency.size()));
  report.note("cache_hit_ratio", hit_ratio);
  if (!args.trace) {
    report.add("latency_ms", lat * 1e3, "ms");
    report.add("p99_ms", percentile(loop.latency, 99) * 1e3, "ms");
    report.add("throughput_per_s", static_cast<double>(loop.ok) / loop.seconds,
               "1/s");
    report.add("setup_s", median(setup_s), "s");
    report.add("fit", model->fit(), "ratio");
    report.add("test_rmse", test_rmse, "value");
    report.add("success_rate", report.success_rate(), "ratio");
    report.add("peak_rss_mb", daemon_rss, "MiB");
    return;
  }

  // In-process layers over the same trace and cache size, one thread.
  serve::QueryEngine engine(model, qopt);
  std::vector<double> score_s;
  std::vector<double> topk_s;
  std::vector<double> values;
  std::vector<std::vector<serve::Scored>> tops;
  for (const std::string& line : requests) {
    const serve::Request r = serve::parse_request(line);
    const double t0 = now_s();
    if (r.type == serve::RequestType::kScore) {
      values.push_back(engine.score(r.queries[0]));
      score_s.push_back(now_s() - t0);
    } else {
      tops.push_back(engine.topk(r.entity, r.k, r.rest));
      topk_s.push_back(now_s() - t0);
    }
  }
  std::size_t bytes = 0;
  double t0 = now_s();
  std::size_t vi = 0;
  std::size_t ti = 0;
  for (const std::string& line : requests) {
    const serve::Request r = serve::parse_request(line);
    bytes += r.type == serve::RequestType::kScore
                 ? serve::format_value(values[vi++]).size()
                 : serve::format_topk(tops[ti++]).size();
  }
  const double protocol_s = now_s() - t0;
  report.note("protocol_bytes", static_cast<double>(bytes));

  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  const auto load = trace.self_seconds(trace.last_root("storage.load_bundle"));
  report.add("storage.load_bundle_s", load.at("storage.load_bundle"), "s");
  report.add("serve.ping_rtt_ms", median(ping) * 1e3, "ms");
  report.add("serve.protocol_us",
             protocol_s / static_cast<double>(requests.size()) * 1e6, "us");
  report.add("serve.query.score_us", mean(score_s) * 1e6, "us");
  report.add("serve.query.topk_us", mean(topk_s) * 1e6, "us");
  report.add("serve.query.cache_hit_ratio", hit_ratio, "ratio");
  report.add("trace.overhead_ratio", median(traced.latency) / lat, "ratio");
  trace.append_jsonl(args.trace_out, 0);
  for (int c = 0; c < kConnections; ++c) {
    client_traces[c].append_jsonl(args.trace_out, c + 1);
  }
}

}  // namespace hb
