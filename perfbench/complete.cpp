// complete-planted: from a planted low-rank tensor to held-out RMSE.
//
// The `.tns` is read once; set-up splits it 80/10/10 into train, validation
// and test entries. The timed unit is one tucker_complete on the training part,
// steered by the validation part; its test RMSE is then set against the
// planted noise floor and against the global-mean predictor.
#include <cmath>
#include <limits>
#include <optional>

#include "core/completion.hpp"
#include "core/hosvd.hpp"
#include "core/split.hpp"
#include "tensor/generators.hpp"
#include "tensor/io.hpp"
#include "workloads.hpp"

namespace hb {

namespace {

using namespace ht;

const tensor::Shape kShape{200, 200, 200};
const tensor::Shape kRanks{5, 5, 5};
constexpr tensor::nnz_t kNnz = 200000;
constexpr double kNoise = 0.1;

/// Set-up (one split, about 20 ms) repeats until it has had a tenth of the
/// solves' time: some twenty splits after each solve.
constexpr double kSetupShare = 0.1;

/// Traced spans that map to a layer metric; trace.coverage counts only these.
const std::vector<std::string> kLayerSpans = {
    "core.completion.factor", "core.completion.core", "core.completion.eval"};

core::CompletionOptions completion_options() {
  // The annealed-ridge recipe of bench_ablation arm 11, with a fixed sweep
  // count: no early stopping.
  core::CompletionOptions o;
  o.ranks.assign(kRanks.begin(), kRanks.end());
  o.max_sweeps = 10;
  o.lambda = 0.01;
  o.lambda_anneal_factor = 100.0;
  o.lambda_anneal_sweeps = 5;
  o.core_cg_iterations = 8;
  o.objective_tolerance = 0.0;
  o.early_stopping_patience = 0;
  o.num_threads = kThreads;
  return o;
}

core::TensorSplit split(const tensor::CooTensor& x, std::uint64_t seed) {
  core::SplitOptions so;
  so.validation_fraction = 0.1;
  so.test_fraction = 0.1;
  so.seed = seed;
  return core::split_tensor(x, so);
}

/// tucker_complete (core/completion.cpp) driven through its public pieces,
/// with a span around each call. Returns the final decomposition.
core::TuckerDecomposition traced_complete(const tensor::CooTensor& train,
                                          const tensor::CooTensor& validation,
                                          const core::CompletionOptions& o,
                                          Trace& tr, double& cg_iterations) {
  Trace::Scope unit(&tr, "unit");
  core::SymbolicTtmc symbolic;
  {
    Trace::Scope s(&tr, "core.completion.symbolic");
    symbolic = core::SymbolicTtmc::build(train, /*with_fibers=*/false);
  }
  core::TuckerDecomposition t;
  {
    Trace::Scope s(&tr, "core.completion.init");
    t.factors = core::random_orthonormal_factors(train.shape(), o.ranks, o.seed);
    for (std::size_t n = 0; n < train.order(); ++n) {
      const auto& observed = symbolic.modes[n].rows;
      std::size_t next = 0;
      for (tensor::index_t i = 0; i < train.dim(n); ++i) {
        if (next < observed.size() && observed[next] == i) {
          ++next;
          continue;
        }
        auto row = t.factors[n].row(i);
        std::fill(row.begin(), row.end(), 0.0);
      }
    }
    t.core = tensor::DenseTensor(tensor::Shape(o.ranks.begin(), o.ranks.end()));
  }
  const auto effective_lambda = [&o](int sweep) {
    if (o.lambda_anneal_sweeps <= 0 || o.lambda_anneal_factor <= 1.0 ||
        sweep >= o.lambda_anneal_sweeps) {
      return o.lambda;
    }
    const double frac = static_cast<double>(o.lambda_anneal_sweeps - sweep) /
                        static_cast<double>(o.lambda_anneal_sweeps);
    return o.lambda * std::pow(o.lambda_anneal_factor, frac);
  };
  {
    Trace::Scope s(&tr, "core.completion.core");
    cg_iterations += core::masked_update_core(
        train, effective_lambda(0), o.core_cg_iterations, o.core_cg_tolerance, t);
  }
  // The options fix the sweep count (no early stopping, no objective
  // tolerance), so only the best-validation restore is replayed.
  double best_val = std::numeric_limits<double>::infinity();
  std::optional<core::TuckerDecomposition> best_snapshot;
  int best_sweep = -1;
  for (int sweep = 0; sweep < o.max_sweeps; ++sweep) {
    const double lambda = effective_lambda(sweep);
    {
      Trace::Scope s(&tr, "core.completion.factor");
      for (std::size_t n = 0; n < train.order(); ++n) {
        core::masked_update_mode(train, symbolic.modes[n], n, lambda, t);
      }
    }
    {
      Trace::Scope s(&tr, "core.completion.core");
      cg_iterations += core::masked_update_core(
          train, lambda, o.core_cg_iterations, o.core_cg_tolerance, t);
    }
    {
      Trace::Scope s(&tr, "core.completion.eval");
      // tucker_complete scores the training objective every sweep; the
      // replay does the same work.
      core::masked_objective(train, t, lambda);
      const double val = core::evaluate_model(validation, t).rmse;
      if (val < best_val) {
        best_val = val;
        best_sweep = sweep;
        if (o.restore_best) best_snapshot = t;
      }
    }
  }
  if (o.restore_best && best_snapshot && best_sweep + 1 != o.max_sweeps) {
    t = std::move(*best_snapshot);
  }
  return t;
}

/// RMSE of predicting every test entry by the mean training value.
double global_mean_rmse(const tensor::CooTensor& train,
                        const tensor::CooTensor& test) {
  double mean = 0;
  for (const double v : train.values()) mean += v;
  mean /= static_cast<double>(train.nnz());
  double sse = 0;
  for (const double v : test.values()) sse += (v - mean) * (v - mean);
  return std::sqrt(sse / static_cast<double>(test.nnz()));
}

}  // namespace

void gen_complete(const Args& args) {
  const tensor::LowRankTensor planted =
      tensor::random_low_rank(kShape, kNnz, kRanks, kNoise, kDatasetSeed);
  tensor::write_tns_file(args.data + "/tensor.tns", planted.tensor);
  Meta meta;
  for (const tensor::index_t d : kShape) meta["shape"].push_back(d);
  meta["noise_sigma"] = {planted.noise_sigma};
  write_meta(args.data + "/meta.txt", meta);
}

void run_complete(const Args& args, Report& report) {
  const Meta meta = read_meta(args.data + "/meta.txt");
  const tensor::Shape shape = meta_shape(meta);
  const std::string path = args.data + "/tensor.tns";
  const core::CompletionOptions o = completion_options();

  Trace trace;
  tensor::CooTensor x;
  {
    Trace::Scope s(args.trace ? &trace : nullptr, "tensor.read_tns");
    x = tensor::read_tns_file(path, shape);
  }
  SetupSamples setups(kSetupShare);
  core::TensorSplit parts;
  if (args.trace) {  // one split, traced and not timed
    Trace::Scope s(&trace, "core.split");
    parts = split(x, args.seed);
  } else {
    parts = setups.time([&] { return split(x, args.seed); });
  }
  const tensor::CooTensor& train = parts.train;
  const tensor::CooTensor& validation = parts.validation;
  const tensor::CooTensor& test = parts.test;
  const double mean_rmse = global_mean_rmse(train, test);

  // Reference and warm-up: every later solve must give this test RMSE bit
  // for bit, and it must beat the global-mean predictor.
  const auto check = [&](double rmse, const char* what) {
    report.attempt();
    if (!(rmse < mean_rmse)) {
      report.fail(std::string(what) + " test RMSE " + std::to_string(rmse) +
                  " does not beat the global mean's " +
                  std::to_string(mean_rmse));
    }
  };
  core::CompletionResult first = core::tucker_complete(train, &validation, o);
  const double ref_rmse = core::evaluate_model(test, first.decomposition).rmse;
  check(ref_rmse, "reference");
  const auto check_same = [&](double rmse, const char* what) {
    check(rmse, what);
    if (!bitwise_equal(rmse, ref_rmse)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s test RMSE %.17g != reference %.17g",
                    what, rmse, ref_rmse);
      report.fail(buf);
    }
  };

  std::vector<double> latency;
  std::vector<double> traced;
  std::vector<std::map<std::string, double>> layers;
  std::vector<double> coverage;
  double cg_iterations = 0;
  double unit_s = 0;
  core::CompletionResult last = std::move(first);
  const double start = now_s();
  const double setup_before = setups.total();
  // The run's clock leaves out the splits repeated between solves.
  while (latency.empty() ||
         now_s() - start - (setups.total() - setup_before) < args.seconds) {
    double t0 = now_s();
    core::CompletionResult r = core::tucker_complete(train, &validation, o);
    latency.push_back(now_s() - t0);
    unit_s += latency.back();
    double rmse = core::evaluate_model(test, r.decomposition).rmse;
    if (args.inject == "fit" && latency.size() == 1) {
      rmse = std::nextafter(rmse, 2.0);
    }
    check_same(rmse, "timed");
    last = std::move(r);
    if (!args.trace) {
      // Each split is built and dropped; the solves keep using `parts`.
      while (setups.due(unit_s)) setups.time([&] { return split(x, args.seed); });
      continue;
    }
    double cg = 0;
    t0 = now_s();
    const core::TuckerDecomposition t =
        traced_complete(train, validation, o, trace, cg);
    traced.push_back(now_s() - t0);
    check_same(core::evaluate_model(test, t).rmse, "traced");
    const int root = trace.last_root("unit");
    layers.push_back(trace.self_seconds(root));
    coverage.push_back(trace.coverage(root, kLayerSpans));
    cg_iterations = cg;
  }

  const double lat = median(latency);
  const double test_rmse = core::evaluate_model(test, last.decomposition).rmse;
  const int sweeps = last.sweeps;
  report.note("latency_samples", static_cast<double>(latency.size()));
  report.note("train_nnz", static_cast<double>(train.nnz()));
  report.note("sweeps", sweeps);
  report.note("noise_floor", meta.at("noise_sigma").at(0));
  report.note("global_mean_rmse", mean_rmse);
  report.note("setup_samples", static_cast<double>(setups.samples().size()));
  if (!args.trace) {
    const double fit = core::completion_model(train, std::move(last), o).fit;
    report.add("latency_ms", lat * 1e3, "ms");
    report.add("p99_ms", percentile(latency, 99) * 1e3, "ms");
    report.add("throughput_per_s",
               static_cast<double>(train.nnz()) * sweeps / lat,
               "1/s");
    report.add("setup_s", median(setups.samples()), "s");
    report.add("fit", fit, "ratio");
    report.add("test_rmse", test_rmse, "value");
    report.add("success_rate", report.success_rate(), "ratio");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  const auto layer = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto& l : layers) v.push_back(seconds_of(l, name));
    return median(v);
  };
  const auto root_seconds = [&](const std::string& name) {
    return seconds_of(trace.self_seconds(trace.last_root(name)), name);
  };
  report.add("tensor.read_tns_s", root_seconds("tensor.read_tns"), "s");
  report.add("core.split_s", root_seconds("core.split"), "s");
  report.add("core.completion.factor_s", layer("core.completion.factor"), "s");
  report.add("core.completion.core_s", layer("core.completion.core"), "s");
  report.add("core.completion.cg_iters", cg_iterations, "count");
  report.add("core.completion.eval_s", layer("core.completion.eval"), "s");
  report.add("trace.coverage", median(coverage), "ratio");
  report.add("trace.overhead_ratio", median(traced) / lat, "ratio");
  trace.append_jsonl(args.trace_out, 0);
}

}  // namespace hb
