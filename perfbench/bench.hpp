// Shared pieces of htbench: command-line arguments, the result
// report, statistics, process memory, and the in-memory span trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "tensor/types.hpp"

namespace hb {

/// Every solver and OpenMP region in the benchmark runs on this many
/// threads: fewer than the cores of a shared machine, so one preempted
/// thread does not stall every barrier.
inline constexpr int kThreads = 2;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set-up is repeated at least kSetupRepeats times and for at least
/// kSetupSeconds, and reported as the median: a short set-up gets more
/// samples, so one slow moment of a shared machine does not decide it.
inline constexpr std::size_t kSetupRepeats = 3;
inline constexpr double kSetupSeconds = 4.0;

inline bool more_setups(const std::vector<double>& done, double started) {
  return done.size() < kSetupRepeats || now_s() - started < kSetupSeconds;
}

/// Set-up samples spread over the whole run instead of taken in one block
/// before it. The host's load drifts over seconds, so a median over the
/// same window as the timed units is about as steady as they are. Set-up
/// runs once before the first unit; after each unit it runs again until the
/// set-up time has caught up with `share` of the units' time.
class SetupSamples {
 public:
  explicit SetupSamples(double share) : share_(share) {}

  /// Runs and times one set-up and returns what it built.
  template <class F>
  auto time(F&& setup) {
    const double t0 = now_s();
    auto built = setup();
    samples_.push_back(now_s() - t0);
    total_ += samples_.back();
    return built;
  }
  [[nodiscard]] bool due(double unit_seconds) const {
    return total_ < share_ * unit_seconds;
  }
  [[nodiscard]] double total() const { return total_; }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  double share_;
  double total_ = 0;
  std::vector<double> samples_;
};

/// Each workload's dataset is generated from this fixed seed; Args::seed
/// draws the sample of it a run uses (held-out entries, splits, request
/// trace). Every seed then does the same amount of work, so the spread
/// between runs measures the machine rather than the dataset.
inline constexpr std::uint64_t kDatasetSeed = 42;


struct Args {
  std::string mode;      // "gen" or "run"
  std::string workload;
  std::string data;      // directory holding the generated inputs
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // JSON-lines span file (trace runs)
  /// Fault injection for the benchmark's own test: "fit" perturbs one
  /// solve's fit or RMSE, "answer" corrupts one served answer.
  std::string inject;
};

/// Metrics in print order plus the operation counts behind success_rate.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Extra numeric field of the full record (sample counts, references).
  void note(const std::string& name, double value);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count failed or wrong operations, with the reason on stderr.
  void fail(const std::string& why, std::uint64_t n = 1);
  [[nodiscard]] double success_rate() const;
  /// The full record: workload, seed, host stamp, counts, metrics, notes.
  [[nodiscard]] std::string json(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);
/// Peak resident set (VmHWM) of a process in MiB; pid 0 is this process.
double peak_rss_mb(int pid = 0);
bool bitwise_equal(double a, double b);
/// Value of a key in a name -> seconds map; 0 when the key is absent.
double seconds_of(const std::map<std::string, double>& m,
                  const std::string& name);

/// Generated-input metadata: whitespace-separated "key value..." lines.
using Meta = std::map<std::string, std::vector<double>>;
void write_meta(const std::string& path, const Meta& meta);
Meta read_meta(const std::string& path);
ht::tensor::Shape meta_shape(const Meta& meta);

/// Spans around the calls the benchmark makes into each layer: name,
/// start, end and parent, kept in memory and written out at the end. Not
/// thread-safe; give each thread its own Trace.
class Trace {
 public:
  /// Opens a span on construction and closes it on destruction. A null
  /// trace records nothing, so traced and untraced paths share code.
  class Scope {
   public:
    Scope(Trace* trace, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int index_ = -1;
  };

  /// Self time of each top-level span's subtree, summed by span name:
  /// a span's duration minus the time its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds(int root) const;
  /// Index of the latest top-level span with this name.
  [[nodiscard]] int last_root(const std::string& name) const;
  /// Share of a top-level span's wall time spent in spans whose name
  /// starts with one of `layers` (their self time).
  [[nodiscard]] double coverage(int root,
                                const std::vector<std::string>& layers) const;
  void append_jsonl(const std::string& path, int thread) const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace hb
