#include "core/hooi.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/hosvd.hpp"
#include "la/blas.hpp"
#include "parallel/thread_info.hpp"
#include "tensor/semi_sparse.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace ht::core {

void validate_hooi_options(const CooTensor& x, const HooiOptions& options) {
  if (x.nnz() == 0) throw InvalidArgument("HOOI needs a nonempty tensor");
  if (options.ranks.size() != x.order()) {
    throw InvalidArgument("need one rank per tensor mode");
  }
  for (std::size_t n = 0; n < x.order(); ++n) {
    if (options.ranks[n] < 1 || options.ranks[n] > x.dim(n)) {
      throw InvalidArgument("rank out of range for mode " + std::to_string(n));
    }
  }
  if (options.max_iterations < 1) {
    throw InvalidArgument("max_iterations must be >= 1");
  }
}

HooiStructures HooiStructures::build(const CooTensor& x,
                                     const TtmcOptions& options) {
  WallTimer timer;
  HooiStructures s;
  // Only kAuto and an explicit fiber request consult the fiber index; skip
  // the per-row sorts it would cost otherwise (kCsf walks its own trees).
  const bool with_fibers = options.kernel == TtmcKernel::kAuto ||
                           options.kernel == TtmcKernel::kFiberFactored;
  s.symbolic = SymbolicTtmc::build(x, with_fibers);
  if (options.strategy != TtmcStrategy::kDirect && x.order() >= 2) {
    s.tree.emplace(DimTreePlan::build(x));
  }
  if (x.nnz() > 0 && ttmc_wants_csf(s.symbolic, options)) {
    s.csf = std::make_shared<const tensor::CsfTensor>(
        tensor::CsfTensor::build(x));
  }
  if (x.nnz() > 0 && ttmc_wants_alto(s.symbolic, x.shape(), options)) {
    s.alto = std::make_shared<const tensor::AltoTensor>(
        tensor::AltoTensor::build(x));
  }
  s.seconds = timer.seconds();
  return s;
}

HooiResult hooi(const CooTensor& x, const HooiOptions& options) {
  validate_hooi_options(x, options);
  parallel::ThreadScope threads(options.num_threads);
  const HooiStructures s = HooiStructures::build(x, options.ttmc_options());
  HooiResult result =
      hooi(x, options, s.symbolic, s.tree_ptr(), s.csf.get(), s.alto.get());
  result.timers.symbolic += s.seconds;
  return result;
}

namespace {

// The ALS sweep loop of paper Algorithm 3, shared by hooi and
// hooi_met_baseline, which differ only in how they evaluate the TTMc:
// compute_y(factors, n, y) leaves the compact Y(n) in `y` and returns the
// global row of each of its rows.
HooiResult run_sweeps(const CooTensor& x, const HooiOptions& options,
                      auto&& compute_y) {
  const std::size_t order = x.order();
  HooiResult result;

  std::vector<la::Matrix> factors =
      options.init == HooiInit::kRandom
          ? random_orthonormal_factors(x.shape(), options.ranks, options.seed)
          : randomized_range_factors(x, options.ranks, options.seed);

  const double x_norm2 = x.norm2_squared();

  la::Matrix y;  // compact Y(n), reused across modes/iterations
  la::Matrix last_compact_u;
  double previous_fit = -1.0;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (std::size_t n = 0; n < order; ++n) {
      WallTimer t_ttmc;
      const std::span<const index_t> rows = compute_y(factors, n, y);
      result.timers.ttmc += t_ttmc.seconds();

      WallTimer t_trsvd;
      FactorTrsvd svd = trsvd_factor(y, rows, x.dim(n), options.ranks[n],
                                     options.trsvd_method, options.trsvd);
      result.timers.trsvd += t_trsvd.seconds();
      if (!svd.converged) ++result.trsvd_unconverged;

      factors[n] = std::move(svd.factor);
      if (n + 1 == order) last_compact_u = std::move(svd.compact_u);
    }

    // Core tensor: G(N) = U_N^T Y(N); Y still holds the mode-(N-1) TTMc.
    WallTimer t_core;
    const la::Matrix g_mat = la::gemm_tn(last_compact_u, y);
    tensor::Shape core_shape(options.ranks.begin(), options.ranks.end());
    result.decomposition.core =
        tensor::DenseTensor::dematricize(g_mat, core_shape, order - 1);
    result.timers.core += t_core.seconds();

    const double core_norm = result.decomposition.core.frobenius_norm();
    const double fit = fit_from_core_norm(x_norm2, core_norm * core_norm);
    result.fits.push_back(fit);
    result.iterations = iter + 1;

    if (previous_fit >= 0.0 &&
        std::abs(fit - previous_fit) < options.fit_tolerance) {
      result.converged = true;
      break;
    }
    previous_fit = fit;
  }

  result.decomposition.factors = std::move(factors);
  return result;
}

}  // namespace

HooiResult hooi(const CooTensor& x, const HooiOptions& options,
                const SymbolicTtmc& symbolic, const DimTreePlan* tree,
                const tensor::CsfTensor* csf, const tensor::AltoTensor* alto) {
  validate_hooi_options(x, options);
  HT_CHECK_MSG(symbolic.modes.size() == x.order(),
               "symbolic structure does not match tensor");
  parallel::ThreadScope threads(options.num_threads);

  TtmcScheduler scheduler(x, symbolic, tree, options.ranks,
                          options.ttmc_options(), csf, alto);
  return run_sweeps(x, options,
                    [&](const std::vector<la::Matrix>& factors, std::size_t n,
                        la::Matrix& y) -> std::span<const index_t> {
                      scheduler.compute(factors, n, y);
                      return symbolic.modes[n].rows;
                    });
}

HooiResult hooi_met_baseline(const CooTensor& x, const HooiOptions& options) {
  validate_hooi_options(x, options);
  parallel::ThreadScope threads(options.num_threads);

  const tensor::SemiSparse lifted = tensor::SemiSparse::lift(x);
  std::vector<index_t> rows;
  return run_sweeps(
      x, options,
      [&](const std::vector<la::Matrix>& factors, std::size_t n,
          la::Matrix& y) -> std::span<const index_t> {
        // Materialized TTM chain over all modes but n, in increasing order —
        // the dense block dimension ordering then matches ttmc_mode's. Each
        // ttm_contract builds its merge plan from scratch: MET's cost model,
        // unlike the dimension-tree scheduler which builds plans once.
        tensor::SemiSparse z = lifted;
        for (std::size_t t = 0; t < x.order(); ++t) {
          if (t == n) continue;
          z = tensor::ttm_contract(z, t, factors[t]);
        }
        // z is now sparse in mode n only, merged and sorted by row index
        // (the contraction orders groups by the surviving coordinates): its
        // entries are exactly the compact rows of Y(n).
        HT_CHECK(z.sparse_modes.size() == 1 && z.sparse_modes[0] == n);
        rows.assign(z.idx[0].begin(), z.idx[0].end());
        y.resize(z.entries(), z.block);
        std::copy(z.values.begin(), z.values.end(), y.data());
        return rows;
      });
}

}  // namespace ht::core
