// htbench: the benchmark program behind perfbench/run.py.
//
//   htbench gen --workload W --seed N --data DIR
//       writes every input of workload W for seed N into DIR;
//   htbench run --workload W --seed N --data DIR --seconds S --trace 0|1
//       [--trace-out FILE] [--inject fit|answer]
//       reads only DIR, measures for S seconds and prints one JSON record.
//
// Workloads: train-netflix, complete-planted, serve-zipf.
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "parallel/thread_info.hpp"
#include "workloads.hpp"

namespace {

hb::Args parse(int argc, char** argv) {
  hb::Args a;
  if (argc < 2) throw std::invalid_argument("usage: htbench gen|run ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--data") {
      a.data = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--inject") {
      a.inject = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.data.empty()) throw std::invalid_argument("--data is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const hb::Args args = parse(argc, argv);
    ht::parallel::ThreadScope threads(hb::kThreads);
    struct Workload {
      void (*gen)(const hb::Args&);
      void (*run)(const hb::Args&, hb::Report&);
    };
    const std::map<std::string, Workload> workloads = {
        {"train-netflix", {hb::gen_train, hb::run_train}},
        {"complete-planted", {hb::gen_complete, hb::run_complete}},
        {"serve-zipf", {hb::gen_serve, hb::run_serve}},
    };
    const auto w = workloads.find(args.workload);
    if (w == workloads.end()) {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    if (args.mode == "gen") {
      w->second.gen(args);
      return 0;
    }
    if (args.mode != "run") throw std::invalid_argument("mode is gen or run");
    hb::Report report;
    w->second.run(args, report);
    std::printf("%s\n", report.json(args).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "htbench: %s\n", e.what());
    return 1;
  }
}
