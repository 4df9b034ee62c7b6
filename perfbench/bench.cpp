#include "bench.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/version.hpp"

namespace hb {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& name, double value) {
  notes_.emplace_back(name, value);
}

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  std::fprintf(stderr, "htbench: check failed: %s\n", why.c_str());
}

double Report::success_rate() const {
  if (attempted_ == 0) return 0.0;
  const std::uint64_t ok = attempted_ > failed_ ? attempted_ - failed_ : 0;
  return static_cast<double>(ok) / static_cast<double>(attempted_);
}

std::string Report::json(const Args& args) const {
  std::string s = "{\"workload\": " + json_string(args.workload);
  s += ", \"seed\": " + std::to_string(args.seed);
  s += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  s += ", \"host\": {\"nproc\": " +
       std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"threads\": " + std::to_string(kThreads);
  s += ", \"compiler\": " + json_string(ht::kCompiler);
  s += ", \"flags\": " + json_string(ht::kCompileFlags);
  s += ", \"build_type\": " + json_string(ht::kBuildType);
  s += ", \"git\": " + json_string(ht::kGitHash);
  s += ", \"version\": " + json_string(ht::kVersion) + "}";
  s += ", \"correct\": ";
  s += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) s += ", ";
    s += json_string(metrics_[i].name) + ": {\"value\": " +
         json_number(metrics_[i].value) +
         ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  s += "}, \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i) s += ", ";
    s += json_string(notes_[i].first) + ": " + json_number(notes_[i].second);
  }
  return s + "}}";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

double seconds_of(const std::map<std::string, double>& m,
                  const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

void write_meta(const std::string& path, const Meta& meta) {
  std::ofstream out(path);
  for (const auto& [key, values] : meta) {
    out << key;
    for (const double v : values) out << ' ' << json_number(v);
    out << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

Meta read_meta(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Meta meta;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;
    auto& values = meta[key];
    double v = 0;
    while (fields >> v) values.push_back(v);
  }
  return meta;
}

ht::tensor::Shape meta_shape(const Meta& meta) {
  ht::tensor::Shape shape;
  for (const double d : meta.at("shape")) {
    shape.push_back(static_cast<ht::tensor::index_t>(d));
  }
  return shape;
}

Trace::Scope::Scope(Trace* trace, std::string name) : trace_(trace) {
  if (trace_ == nullptr) return;
  index_ = static_cast<int>(trace_->spans_.size());
  const int parent = trace_->open_.empty() ? -1 : trace_->open_.back();
  trace_->spans_.push_back({std::move(name), now_s(), 0.0, parent});
  trace_->open_.push_back(index_);
}

Trace::Scope::~Scope() {
  if (trace_ == nullptr) return;
  trace_->spans_[index_].end = now_s();
  trace_->open_.pop_back();
}

std::map<std::string, double> Trace::self_seconds(int root) const {
  // Spans are appended in open order and nest strictly, so a subtree is a
  // contiguous index range starting at its root.
  std::map<std::string, double> self;
  std::vector<double> child(spans_.size(), 0.0);
  std::size_t last = root;
  while (last + 1 < spans_.size() && spans_[last + 1].parent >= root) {
    ++last;
  }
  for (std::size_t i = root + 1; i <= last; ++i) {
    child[spans_[i].parent] += spans_[i].end - spans_[i].start;
  }
  for (std::size_t i = root; i <= last; ++i) {
    self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
  }
  return self;
}

int Trace::last_root(const std::string& name) const {
  for (std::size_t i = spans_.size(); i-- > 0;) {
    if (spans_[i].parent < 0 && spans_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  throw std::runtime_error("no span named " + name);
}

double Trace::coverage(int root, const std::vector<std::string>& layers) const {
  double covered = 0;
  for (const auto& [name, seconds] : self_seconds(root)) {
    for (const std::string& layer : layers) {
      if (name.rfind(layer, 0) == 0) {
        covered += seconds;
        break;
      }
    }
  }
  return covered / (spans_[root].end - spans_[root].start);
}

void Trace::append_jsonl(const std::string& path, int thread) const {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::app);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"thread\": " << thread << ", \"id\": " << i
        << ", \"parent\": " << s.parent << ", \"name\": " << json_string(s.name)
        << ", \"start_s\": " << json_number(s.start)
        << ", \"end_s\": " << json_number(s.end) << "}\n";
  }
}

}  // namespace hb
