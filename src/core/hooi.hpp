// Shared-memory parallel HOOI (paper Algorithm 3).
//
// Symbolic TTMc runs once; each ALS sweep then performs, per mode,
//   (i)  numeric TTMc into the compact Y(n)            [lock-free parfor]
//   (ii) TRSVD of Y(n) -> U_n                          [matrix-free Lanczos]
// and forms the core G = Y x_N U_N^T after the last mode (one GEMM, since
// Y(N) already holds X x_{-N} U). Convergence is monitored through the fit
// 1 - ||X - Xhat||/||X||, evaluated exactly from ||G|| (paper's check).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/dim_tree.hpp"
#include "core/symbolic.hpp"
#include "core/trsvd.hpp"
#include "core/ttmc.hpp"
#include "core/tucker.hpp"
#include "tensor/coo_tensor.hpp"

namespace ht::core {

enum class HooiInit { kRandom, kRandomizedRange };

struct HooiOptions {
  /// Decomposition ranks, one per mode (required).
  std::vector<index_t> ranks;
  int max_iterations = 5;  // the paper's benchmark setting
  /// Stop when the fit improves by less than this between sweeps.
  double fit_tolerance = 1e-6;
  HooiInit init = HooiInit::kRandom;
  /// TRSVD backend per mode; kAuto applies resolve_trsvd_method to each
  /// mode's compact problem (oversample/power knobs live in `trsvd` below).
  TrsvdMethod trsvd_method = TrsvdMethod::kLanczos;
  Schedule ttmc_schedule = Schedule::kDynamic;
  /// Kernel family per TTMc mode; kAuto applies the fiber-length heuristic.
  TtmcKernel ttmc_kernel = TtmcKernel::kAuto;
  /// Average-fiber-length threshold used by TtmcKernel::kAuto.
  double ttmc_fiber_threshold = TtmcOptions{}.fiber_threshold;
  /// Cross-mode evaluation strategy: direct kernels per mode, dimension-tree
  /// serving from shared partials, or the per-mode flop model (kAuto).
  TtmcStrategy ttmc_strategy = TtmcStrategy::kAuto;
  /// Soft memory budget (bytes) for per-kernel index structures under
  /// kAuto: when the CSF forest estimate exceeds it but the single ALTO
  /// array fits, kAuto builds ALTO instead. 0 = unlimited (no trade).
  double ttmc_structure_budget = 0.0;
  /// OpenMP threads (0 = runtime default). Paper Table V sweeps this.
  int num_threads = 0;
  std::uint64_t seed = 42;
  /// Inner-solver controls; ALS does not need tight residuals here (the
  /// factors move every sweep anyway).
  la::TrsvdOptions trsvd = {.tol = 1e-7};

  [[nodiscard]] TtmcOptions ttmc_options() const {
    return {ttmc_schedule, ttmc_kernel, ttmc_fiber_threshold, ttmc_strategy,
            ttmc_structure_budget};
  }
};

/// The pattern-only preprocessing of paper Algorithm 3: built once, reused
/// across sweeps, rank choices (rank_sweep) and, for CSF/ALTO, saved models.
/// hooi, rank_sweep, every dist_hooi rank and tucker_cli build it here, so
/// the "which structures do these options need" decision lives in one place.
struct HooiStructures {
  /// Symbolic TTMc; carries the fiber index only for kAuto/kFiberFactored.
  SymbolicTtmc symbolic;
  /// Dimension-tree plan, absent for kDirect or order < 2.
  std::optional<DimTreePlan> tree;
  /// Built when ttmc_wants_csf/ttmc_wants_alto say so and the tensor has a
  /// nonzero; shared so a TuckerModel can carry them into a bundle.
  std::shared_ptr<const tensor::CsfTensor> csf;
  std::shared_ptr<const tensor::AltoTensor> alto;
  /// Wall time of build().
  double seconds = 0;

  static HooiStructures build(const CooTensor& x, const TtmcOptions& options);

  [[nodiscard]] const DimTreePlan* tree_ptr() const {
    return tree ? &*tree : nullptr;
  }
};

struct HooiTimers {
  double symbolic = 0;
  double ttmc = 0;
  double trsvd = 0;
  double core = 0;

  [[nodiscard]] double iteration_total() const { return ttmc + trsvd + core; }
};

struct HooiResult {
  TuckerDecomposition decomposition;
  /// Fit after each completed sweep.
  std::vector<double> fits;
  int iterations = 0;
  bool converged = false;
  /// Factor solves (one per mode per sweep) whose TRSVD backend stopped
  /// short of its residual tolerance, e.g. at TrsvdOptions::max_steps.
  int trsvd_unconverged = 0;
  HooiTimers timers;

  [[nodiscard]] double final_fit() const {
    return fits.empty() ? 0.0 : fits.back();
  }
};

/// Run HOOI; builds its HooiStructures internally (time charged to
/// timers.symbolic).
HooiResult hooi(const CooTensor& x, const HooiOptions& options);

/// Run HOOI over prebuilt pattern-only structures (the paper reuses them
/// across runs with different ranks). `tree`, `csf` and `alto` may be null,
/// meaning "not available": nothing is built here, so a null tree evaluates
/// every mode directly and a null CSF/ALTO keeps the direct path off that
/// kernel. ALTO carries its own value array, so a prebuilt one must have
/// values attached. HooiStructures::build makes exactly the structures
/// hooi(x, options) would, and the two calls then give bitwise-equal fits.
HooiResult hooi(const CooTensor& x, const HooiOptions& options,
                const SymbolicTtmc& symbolic, const DimTreePlan* tree,
                const tensor::CsfTensor* csf, const tensor::AltoTensor* alto);

/// MET-style baseline (paper Sec. V, "87.2 s MET vs 11.3 s ours"): the
/// same sweeps as hooi(), but each mode's TTMc is a fresh materialized TTM
/// chain over the shared semi-sparse contraction (tensor/semi_sparse.*),
/// the evaluation order of the Tensor Toolbox's Memory-Efficient Tucker:
/// merge plans rebuilt every contraction, no cross-mode reuse.
/// ttmc_schedule/kernel/strategy are ignored (the chain parallelizes per
/// merge group).
HooiResult hooi_met_baseline(const CooTensor& x, const HooiOptions& options);

/// Validate options against the tensor; throws ht::InvalidArgument.
void validate_hooi_options(const CooTensor& x, const HooiOptions& options);

}  // namespace ht::core
