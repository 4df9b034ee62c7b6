#include "core/trsvd.hpp"

#include <algorithm>

#include "la/linear_operator.hpp"
#include "la/qr.hpp"
#include "la/randomized_trsvd.hpp"
#include "util/error.hpp"

namespace ht::core {

namespace {

// Problems whose compact Y(n) fits comfortably in cache gain nothing from
// blocking — the scalar solver converges in fewer effective passes and has
// the lowest per-step constant.
constexpr std::size_t kSmallProblemEntries = std::size_t{1} << 18;
// Below this tolerance the fixed-budget randomized sketch cannot be
// trusted to hit the target; the iterate-to-tolerance scalar solver takes
// over.
constexpr double kRandomizedTolFloor = 1e-9;

}  // namespace

TrsvdMethod resolve_trsvd_method(TrsvdMethod method, std::size_t rows,
                                 std::size_t cols,
                                 const la::TrsvdOptions& options) {
  if (method != TrsvdMethod::kAuto) return method;
  // Small problems: every backend is sub-millisecond and the scalar
  // solver's constant is lowest (measured on the bench_ablation small-mode
  // control) — stay within noise of kLanczos.
  if (rows * cols <= kSmallProblemEntries) return TrsvdMethod::kLanczos;
  // Tight tolerances need an iterate-to-tolerance Krylov solver; the
  // randomized sketch's accuracy is capped by its fixed budget.
  if (options.tol < kRandomizedTolFloor) return TrsvdMethod::kLanczos;
  // ALS-grade tolerances on large problems: randomized subspace iteration
  // makes the fewest passes over Y(n) (2q+2 versus 2*steps) and measures
  // fastest.
  return TrsvdMethod::kRandomized;
}

std::optional<TrsvdMethod> parse_trsvd_method(std::string_view name) {
  if (name == "lanczos") return TrsvdMethod::kLanczos;
  if (name == "gram") return TrsvdMethod::kGram;
  if (name == "rand" || name == "randomized") return TrsvdMethod::kRandomized;
  if (name == "auto") return TrsvdMethod::kAuto;
  return std::nullopt;
}

const char* trsvd_method_name(TrsvdMethod method) {
  switch (method) {
    case TrsvdMethod::kLanczos: return "lanczos";
    case TrsvdMethod::kGram: return "gram";
    case TrsvdMethod::kRandomized: return "rand";
    case TrsvdMethod::kAuto: return "auto";
  }
  return "?";
}

la::TrsvdResult run_trsvd_backend(la::TrsvdOperator& op, TrsvdMethod method,
                                  std::size_t rank,
                                  const la::TrsvdOptions& options) {
  switch (method) {
    case TrsvdMethod::kLanczos:
      return la::lanczos_trsvd(op, rank, options);
    case TrsvdMethod::kRandomized:
      return la::randomized_trsvd(op, rank, options);
    case TrsvdMethod::kGram:
    case TrsvdMethod::kAuto:
      break;
  }
  HT_CHECK_MSG(false, "run_trsvd_backend needs a resolved matrix-free method");
  return {};
}

FactorTrsvd trsvd_factor(const la::Matrix& y, std::span<const index_t> rows,
                         index_t dim, std::size_t rank, TrsvdMethod method,
                         const la::TrsvdOptions& options) {
  HT_CHECK_MSG(rank >= 1, "rank must be positive");
  HT_CHECK_MSG(rank <= dim, "rank " << rank << " exceeds mode size " << dim);
  HT_CHECK_MSG(y.rows() == rows.size(), "compact row map arity mismatch");

#ifndef NDEBUG
  // Debug-only: HOOI calls this once per mode per iteration with the
  // symbolic row map, which is fixed at symbolic construction; a serial
  // O(|J_n|) scan per call sits needlessly in the per-mode hot path (same
  // bug class as the subset bounds scan ttmc_mode_subset used to pay).
  // Callers own the contract; CI's Debug job keeps the check live.
  for (index_t r : rows) {
    HT_CHECK_MSG(r < dim, "compact row index out of range");
  }
#endif

  // The compact problem can only deliver min(y.rows, y.cols) directions;
  // remaining columns are completed over the empty rows afterwards.
  const std::size_t solvable = std::min({rank, y.rows(), y.cols()});
  const TrsvdMethod resolved =
      resolve_trsvd_method(method, y.rows(), y.cols(), options);

  la::TrsvdResult solved;
  if (solvable >= 1) {
    if (resolved == TrsvdMethod::kGram) {
      solved = la::gram_trsvd(y, solvable);
    } else {
      la::DenseOperator op(y);
      solved = run_trsvd_backend(op, resolved, solvable, options);
    }
  }
  FactorTrsvd out = scatter_trsvd_solution(solved, solvable, rows, dim, rank);
  out.method_used = resolved;
  return out;
}

FactorTrsvd scatter_trsvd_solution(const la::TrsvdResult& solved,
                                   std::size_t solvable,
                                   std::span<const index_t> rows, index_t dim,
                                   std::size_t rank) {
  FactorTrsvd out;
  out.solver_steps = solved.steps;
  out.converged = solvable == 0 || solved.converged;

  out.sigma.assign(rank, 0.0);
  std::copy(solved.sigma.begin(), solved.sigma.end(), out.sigma.begin());

  // O(|J_n|*R) per mode per HOOI iteration; rows are distinct by the
  // compact-row-map contract, so the scatter is race-free.
  const std::size_t nrows = rows.size();
  [[maybe_unused]] const bool par =
      la::blas_threading() && nrows * rank >= (std::size_t{1} << 14);
  out.factor.resize_zero(dim, rank);
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t r = 0; r < nrows; ++r) {
    for (std::size_t j = 0; j < solvable; ++j) {
      out.factor(rows[r], j) = solved.u(r, j);
    }
  }

  if (solvable < rank || !solved.converged) {
    // Rank-deficient or unconverged compact problem: make sure the factor
    // still has orthonormal columns (HOOI's fit formula depends on it).
    la::orthonormalize_columns(out.factor);
  }

  out.compact_u.resize_zero(nrows, rank);
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t r = 0; r < nrows; ++r) {
    for (std::size_t j = 0; j < rank; ++j) {
      out.compact_u(r, j) = out.factor(rows[r], j);
    }
  }
  return out;
}

}  // namespace ht::core
