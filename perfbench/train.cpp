// train-netflix: `.tns` in, `.htb` out.
//
// Set-up is what a user pays once per input: reading the `.tns` and the
// pattern-only structures HOOI reuses (symbolic TTMc, dimension-tree plan,
// CSF or ALTO when the kernel options want them). The timed unit is one
// solve over those prebuilt structures: core::hooi, TuckerModel::from_hooi
// and save_bundle.
#include <cmath>
#include <filesystem>
#include <optional>

#include "core/completion.hpp"
#include "core/dim_tree.hpp"
#include "core/hooi.hpp"
#include "core/hosvd.hpp"
#include "core/split.hpp"
#include "core/tucker_model.hpp"
#include "la/blas.hpp"
#include "storage/bundle.hpp"
#include "tensor/alto.hpp"
#include "tensor/csf.hpp"
#include "tensor/generators.hpp"
#include "tensor/io.hpp"
#include "workloads.hpp"

namespace hb {

namespace {

using namespace ht;
using tensor::index_t;

constexpr int kSweeps = 3;
/// Share of the generated nonzeros held out to score the model (test_rmse).
constexpr double kTestFraction = 0.01;

/// The Netflix-shaped paper preset: 3 modes and moderate rows, so TTMc is
/// a real share of the solve.
constexpr const char* kPreset = "netflix";

/// Set-up (about 4 s) repeats until it has had half the solves' time:
/// three set-ups in a 22 s run.
constexpr double kSetupShare = 0.5;

/// Traced spans that map to a layer metric; trace.coverage counts only these.
const std::vector<std::string> kLayerSpans = {
    "core.ttmc.m", "core.trsvd.m", "core.core_step", "storage.save_bundle"};

core::HooiOptions hooi_options(const Meta& meta) {
  core::HooiOptions o;
  for (const double r : meta.at("ranks")) {
    o.ranks.push_back(static_cast<index_t>(r));
  }
  o.max_iterations = kSweeps;
  o.fit_tolerance = 0.0;  // never converges early: every solve runs kSweeps
  o.num_threads = kThreads;
  return o;
}

core::TtmcOptions ttmc_options(const core::HooiOptions& o) {
  return {o.ttmc_schedule, o.ttmc_kernel, o.ttmc_fiber_threshold,
          o.ttmc_strategy, o.ttmc_structure_budget};
}

/// The input and the pattern-only structures core::hooi would build.
struct Prepared {
  tensor::CooTensor x;
  core::SymbolicTtmc symbolic;
  std::optional<core::DimTreePlan> tree;
  std::optional<tensor::CsfTensor> csf;
  std::optional<tensor::AltoTensor> alto;

  [[nodiscard]] const core::DimTreePlan* tree_ptr() const {
    return tree ? &*tree : nullptr;
  }
  [[nodiscard]] const tensor::CsfTensor* csf_ptr() const {
    return csf ? &*csf : nullptr;
  }
  [[nodiscard]] const tensor::AltoTensor* alto_ptr() const {
    return alto ? &*alto : nullptr;
  }
  [[nodiscard]] double structure_bytes() const {
    double bytes = 0;
    for (const auto& m : symbolic.modes) bytes += m.format_bytes();
    if (csf) bytes += csf->format_bytes();
    if (alto) bytes += alto->format_bytes();
    return bytes;
  }
};

/// The same preprocessing decisions core::hooi makes, through the public
/// build functions, so each one is timed on its own.
Prepared prepare(const std::string& path, const tensor::Shape& shape,
                 const core::HooiOptions& o, Trace* tr) {
  Prepared p;
  {
    Trace::Scope s(tr, "tensor.read_tns");
    p.x = tensor::read_tns_file(path, shape);
  }
  const bool with_fibers = o.ttmc_kernel == core::TtmcKernel::kAuto ||
                           o.ttmc_kernel == core::TtmcKernel::kFiberFactored;
  {
    Trace::Scope s(tr, "core.symbolic");
    p.symbolic = core::SymbolicTtmc::build(p.x, with_fibers);
  }
  if (o.ttmc_strategy != core::TtmcStrategy::kDirect) {
    Trace::Scope s(tr, "core.dim_tree");
    p.tree.emplace(core::DimTreePlan::build(p.x));
  }
  const core::TtmcOptions topts = ttmc_options(o);
  if (core::ttmc_wants_csf(p.symbolic, topts)) {
    Trace::Scope s(tr, "tensor.csf_build");
    p.csf.emplace(tensor::CsfTensor::build(p.x));
  }
  if (core::ttmc_wants_alto(p.symbolic, p.x.shape(), topts)) {
    Trace::Scope s(tr, "tensor.alto_build");
    p.alto.emplace(tensor::AltoTensor::build(p.x));
  }
  return p;
}

/// One untraced solve: the timed unit.
core::TuckerModel solve(const Prepared& p, const core::HooiOptions& o,
                        const std::string& bundle) {
  core::HooiResult r = core::hooi(p.x, o, p.symbolic, p.tree_ptr(),
                                  p.csf_ptr(), p.alto_ptr());
  core::TuckerModel m = core::TuckerModel::from_hooi(p.x, std::move(r));
  storage::save_bundle(m, bundle);
  return m;
}

/// One traced solve: the sweep loop of core::hooi (core/hooi.cpp) driven
/// through the same public pieces, with a span around each call.
core::TuckerModel traced_solve(const Prepared& p, const core::HooiOptions& o,
                               const std::string& bundle, Trace& tr,
                               double& trsvd_steps) {
  Trace::Scope unit(&tr, "unit");
  const std::size_t order = p.x.order();
  std::vector<la::Matrix> factors;
  double x_norm2 = 0;
  {
    Trace::Scope s(&tr, "core.hooi_init");
    factors = core::random_orthonormal_factors(p.x.shape(), o.ranks, o.seed);
    x_norm2 = p.x.norm2_squared();
  }
  std::optional<core::TtmcScheduler> scheduler;
  {
    Trace::Scope s(&tr, "core.ttmc_scheduler");
    scheduler.emplace(p.x, p.symbolic, p.tree_ptr(), o.ranks, ttmc_options(o),
                      p.csf_ptr(), p.alto_ptr());
  }
  core::HooiResult result;
  la::Matrix y;
  la::Matrix last_compact_u;
  for (int iter = 0; iter < o.max_iterations; ++iter) {
    for (std::size_t n = 0; n < order; ++n) {
      const std::string m = ".m" + std::to_string(n);
      {
        Trace::Scope s(&tr, "core.ttmc" + m);
        scheduler->compute(factors, n, y);
      }
      core::FactorTrsvd svd;
      {
        Trace::Scope s(&tr, "core.trsvd" + m);
        svd = core::trsvd_factor(y, p.symbolic.modes[n].rows, p.x.dim(n),
                                 o.ranks[n], o.trsvd_method, o.trsvd);
      }
      trsvd_steps += static_cast<double>(svd.solver_steps);
      factors[n] = std::move(svd.factor);
      if (n + 1 == order) last_compact_u = std::move(svd.compact_u);
    }
    double fit = 0;
    {
      Trace::Scope s(&tr, "core.core_step");
      const la::Matrix g_mat = la::gemm_tn(last_compact_u, y);
      tensor::Shape core_shape(o.ranks.begin(), o.ranks.end());
      result.decomposition.core =
          tensor::DenseTensor::dematricize(g_mat, core_shape, order - 1);
      const double core_norm = result.decomposition.core.frobenius_norm();
      fit = core::fit_from_core_norm(x_norm2, core_norm * core_norm);
    }
    result.fits.push_back(fit);
    result.iterations = iter + 1;
  }
  result.decomposition.factors = std::move(factors);
  core::TuckerModel model;
  {
    Trace::Scope s(&tr, "core.from_hooi");
    model = core::TuckerModel::from_hooi(p.x, std::move(result));
  }
  {
    Trace::Scope s(&tr, "storage.save_bundle");
    storage::save_bundle(model, bundle);
  }
  return model;
}

/// Nominal TTMc flops of one sweep: 2 * nnz * prod_{t != n} R_t per mode,
/// the direct per-nonzero formulation. Computed, not counted: the tree and
/// CSF kernels do fewer.
double ttmc_sweep_flops(const tensor::CooTensor& x,
                        const std::vector<index_t>& ranks) {
  double flops = 0;
  for (std::size_t n = 0; n < ranks.size(); ++n) {
    double width = 1;
    for (std::size_t t = 0; t < ranks.size(); ++t) {
      if (t != n) width *= static_cast<double>(ranks[t]);
    }
    flops += 2.0 * static_cast<double>(x.nnz()) * width;
  }
  return flops;
}

void check_fit(double fit, double reference, const char* what,
               Report& report) {
  if (!bitwise_equal(fit, reference)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s fit %.17g != reference %.17g", what,
                  fit, reference);
    report.fail(buf);
  }
}

}  // namespace

void gen_train(const Args& args) {
  const tensor::PresetSpec preset =
      tensor::paper_preset(kPreset, kNetflixScale);
  const tensor::CooTensor x = tensor::generate_preset(preset, kDatasetSeed);
  core::SplitOptions so;
  so.test_fraction = kTestFraction;
  so.seed = args.seed;
  const core::TensorSplit split = core::split_tensor(x, so);
  tensor::write_tns_file(args.data + "/tensor.tns", split.train);
  tensor::write_tns_file(args.data + "/test.tns", split.test);
  Meta meta;
  for (const index_t d : x.shape()) meta["shape"].push_back(d);
  for (const index_t r : preset.ranks) meta["ranks"].push_back(r);
  write_meta(args.data + "/meta.txt", meta);
}

void run_train(const Args& args, Report& report) {
  const Meta meta = read_meta(args.data + "/meta.txt");
  const tensor::Shape shape = meta_shape(meta);
  const core::HooiOptions o = hooi_options(meta);
  const std::string tensor_path = args.data + "/tensor.tns";
  const std::string bundle = args.data + "/model.htb";
  const tensor::CooTensor test =
      tensor::read_tns_file(args.data + "/test.tns", shape);

  // Reference and warm-up: a plain core::hooi call on a freshly read
  // tensor, building its own structures. It runs and frees them before set-up
  // builds the benchmark's, so peak_rss_mb counts one set, and its read puts
  // the `.tns` in the page cache. Every later solve must reproduce its fit
  // bit for bit.
  report.attempt();
  const core::HooiResult reference =
      core::hooi(tensor::read_tns_file(tensor_path, shape), o);
  const double ref_fit = reference.final_fit();
  if (reference.iterations != kSweeps || !(ref_fit > 0.0 && ref_fit <= 1.0)) {
    report.fail("reference solve ran " + std::to_string(reference.iterations) +
                " sweeps to fit " + std::to_string(ref_fit));
  }
  report.note("reference_peak_rss_mb", peak_rss_mb());

  Trace trace;
  SetupSamples setups(kSetupShare);
  Prepared p;
  if (args.trace) {  // one set-up, traced and not timed
    Trace::Scope s(&trace, "setup");
    p = prepare(tensor_path, shape, o, &trace);
  } else {
    p = setups.time([&] { return prepare(tensor_path, shape, o, nullptr); });
  }

  std::vector<double> latency;
  std::vector<double> traced;
  std::vector<std::map<std::string, double>> layers;
  std::vector<double> coverage;
  double trsvd_steps = 0;
  double unit_s = 0;
  double path_rss_mb = 0;
  core::TuckerModel last;
  const double start = now_s();
  const double setup_before = setups.total();
  // The run's clock leaves out the set-ups repeated between solves.
  while (latency.empty() ||
         now_s() - start - (setups.total() - setup_before) < args.seconds) {
    double t0 = now_s();
    core::TuckerModel m = solve(p, o, bundle);
    latency.push_back(now_s() - t0);
    unit_s += latency.back();
    report.attempt();
    double fit = m.fit;
    if (args.inject == "fit" && latency.size() == 1) {
      fit = std::nextafter(fit, 2.0);
    }
    check_fit(fit, ref_fit, "timed", report);
    last = std::move(m);
    // A user's path from `.tns` to `.htb` ends with the first solve. The
    // set-ups repeated for timing would add allocator fragmentation to it.
    if (latency.size() == 1) path_rss_mb = peak_rss_mb();
    if (!args.trace) {
      while (setups.due(unit_s)) {
        p = Prepared{};  // freed before the next set-up, outside its clock
        p = setups.time([&] { return prepare(tensor_path, shape, o, nullptr); });
      }
      continue;
    }
    // Trace runs alternate untraced and traced solves, so the overhead is
    // measured against untraced solves of the same run.
    double steps = 0;
    t0 = now_s();
    core::TuckerModel t = traced_solve(p, o, bundle, trace, steps);
    traced.push_back(now_s() - t0);
    report.attempt();
    check_fit(t.fit, ref_fit, "traced", report);
    const int root = trace.last_root("unit");
    layers.push_back(trace.self_seconds(root));
    coverage.push_back(trace.coverage(root, kLayerSpans));
    trsvd_steps = steps;
  }

  const double test_rmse = core::evaluate_model(test, last.decomposition).rmse;
  const double lat = median(latency);
  report.note("latency_samples", static_cast<double>(latency.size()));
  report.note("nnz", static_cast<double>(p.x.nnz()));
  report.note("sweeps", kSweeps);
  report.note("reference_fit", ref_fit);
  report.note("setup_samples", static_cast<double>(setups.samples().size()));

  if (!args.trace) {
    report.add("latency_ms", lat * 1e3, "ms");
    report.add("p99_ms", percentile(latency, 99) * 1e3, "ms");
    report.add("throughput_per_s",
               static_cast<double>(p.x.nnz()) * kSweeps / lat, "1/s");
    report.add("setup_s", median(setups.samples()), "s");
    report.add("fit", last.fit, "ratio");
    report.add("test_rmse", test_rmse, "value");
    report.add("success_rate", report.success_rate(), "ratio");
    report.add("peak_rss_mb", path_rss_mb, "MiB");
    return;
  }

  const auto setup = trace.self_seconds(trace.last_root("setup"));
  report.add("tensor.read_tns_s", seconds_of(setup, "tensor.read_tns"), "s");
  report.add("core.symbolic_s", seconds_of(setup, "core.symbolic"), "s");
  report.add("core.dim_tree_s", seconds_of(setup, "core.dim_tree"), "s");
  report.add("tensor.csf_build_s", seconds_of(setup, "tensor.csf_build"), "s");
  report.add("tensor.structure_mb", p.structure_bytes() / (1 << 20), "MiB");

  // Per-layer seconds of one traced solve: median over the traced solves.
  const auto layer = [&](const std::string& prefix) {
    std::vector<double> v;
    for (const auto& l : layers) {
      double s = 0;
      for (const auto& [name, sec] : l) {
        if (name.rfind(prefix, 0) == 0) s += sec;
      }
      v.push_back(s);
    }
    return median(v);
  };
  const double ttmc = layer("core.ttmc.m");
  report.add("core.ttmc_s", ttmc, "s");
  for (std::size_t n = 0; n < p.x.order(); ++n) {
    report.add("core.ttmc.m" + std::to_string(n) + "_s",
               layer("core.ttmc.m" + std::to_string(n)), "s");
  }
  report.add("core.ttmc_gflop_per_s",
             ttmc_sweep_flops(p.x, o.ranks) * kSweeps / ttmc / 1e9,
             "GFLOP/s");
  report.add("core.trsvd_s", layer("core.trsvd.m"), "s");
  for (std::size_t n = 0; n < p.x.order(); ++n) {
    report.add("core.trsvd.m" + std::to_string(n) + "_s",
               layer("core.trsvd.m" + std::to_string(n)), "s");
  }
  report.add("core.trsvd_steps", trsvd_steps, "count");
  report.add("core.core_step_s", layer("core.core_step"), "s");
  report.add("storage.save_bundle_s", layer("storage.save_bundle"), "s");
  report.add("storage.bundle_mb",
             static_cast<double>(std::filesystem::file_size(bundle)) /
                 (1 << 20),
             "MiB");
  report.add("trace.coverage", median(coverage), "ratio");
  report.add("trace.overhead_ratio", median(traced) / lat, "ratio");
  trace.append_jsonl(args.trace_out, 0);
}

}  // namespace hb
