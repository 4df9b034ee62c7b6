// TRSVD step of HOOI: leading left singular vectors of the (compact)
// matricized TTMc result Y(n) (paper Section III-A.2).
//
// Three interchangeable backends sit behind TrsvdMethod:
//   kLanczos       matrix-free scalar Golub–Kahan–Lanczos (the paper's
//                  SLEPc substitute) — lowest constant, but every step is a
//                  bandwidth-bound gemv pass over Y(n);
//   kGram          eigendecomposition of Y^T Y (prod-of-ranks sized);
//                  cross-check/ablation only — the paper's argument against
//                  Gram methods concerns Y Y^T and, in the fine-grain
//                  distributed setting, any method that would require
//                  assembling Y(n);
//   kRandomized    HMT randomized subspace iteration: fixed budget of
//                  2q+2 block passes, accuracy set by oversampling/power
//                  iterations — the cheapest backend at ALS-grade
//                  tolerances;
//   kAuto          per-mode choice by problem size and tolerance in
//                  resolve_trsvd_method (the TRSVD analog of
//                  TtmcStrategy::kAuto).
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "la/lanczos.hpp"
#include "la/matrix.hpp"
#include "tensor/types.hpp"

namespace ht::core {

using tensor::index_t;

enum class TrsvdMethod { kLanczos, kGram, kRandomized, kAuto };

/// Resolve kAuto for a compact problem of `rows` x `cols` (returns non-auto
/// methods unchanged): small problems (rows*cols under a cache-sized
/// threshold) stay on the scalar Lanczos solver whose constant is lowest;
/// large problems at ALS-grade tolerances go to gemm-rich randomized
/// subspace iteration, which makes the fewest passes over Y(n); a tolerance
/// too tight for its fixed budget goes back to the iterate-to-tolerance
/// scalar Lanczos solver.
TrsvdMethod resolve_trsvd_method(TrsvdMethod method, std::size_t rows,
                                 std::size_t cols,
                                 const la::TrsvdOptions& options);

/// CLI/bench name <-> enum helpers ("lanczos", "gram", "rand", "auto");
/// parse returns nullopt on unknown names.
std::optional<TrsvdMethod> parse_trsvd_method(std::string_view name);
const char* trsvd_method_name(TrsvdMethod method);

/// Run a *matrix-free* backend (kLanczos/kRandomized) over an
/// operator. Shared by the shared-memory dispatch below and the distributed
/// driver, so a new backend is wired in exactly one place. kGram (needs the
/// assembled matrix) and unresolved kAuto are programming errors here.
la::TrsvdResult run_trsvd_backend(la::TrsvdOperator& op, TrsvdMethod method,
                                  std::size_t rank,
                                  const la::TrsvdOptions& options);

struct FactorTrsvd {
  /// Full factor U_n: dim x rank, orthonormal columns. Rows outside the
  /// compact row set are zero (or canonical completions when the compact
  /// problem is rank-deficient).
  la::Matrix factor;
  /// Compact left singular vectors (rows.size() x rank) — the rows of
  /// `factor` at the compact row positions; the HOOI core step uses this.
  la::Matrix compact_u;
  std::vector<double> sigma;
  std::size_t solver_steps = 0;
  /// Whether the backend met its residual tolerance (la::TrsvdResult::
  /// converged; true when there was nothing to solve). An unconverged
  /// factor is still completed to orthonormal columns.
  bool converged = true;
  /// Backend that actually ran (kAuto resolved).
  TrsvdMethod method_used = TrsvdMethod::kLanczos;
};

/// Compute the leading `rank` left singular vectors of the compact matrix
/// `y` whose row r is global row rows[r] of the full (dim x y.cols())
/// matricized tensor, and scatter them into a dim x rank factor.
FactorTrsvd trsvd_factor(const la::Matrix& y, std::span<const index_t> rows,
                         index_t dim, std::size_t rank,
                         TrsvdMethod method = TrsvdMethod::kLanczos,
                         const la::TrsvdOptions& options = {});

/// Scatter an already-solved compact SVD (`solved.u`: rows.size() x
/// >=solvable) into a full dim x rank factor, completing rank-deficient or
/// unconverged solutions to orthonormal columns. This is the tail of
/// trsvd_factor, exposed so the distributed driver — which obtains
/// `solved` from a Lanczos run over a row-distributed operator — goes
/// through the exact same completion path as the shared-memory solver.
FactorTrsvd scatter_trsvd_solution(const la::TrsvdResult& solved,
                                   std::size_t solvable,
                                   std::span<const index_t> rows, index_t dim,
                                   std::size_t rank);

}  // namespace ht::core
