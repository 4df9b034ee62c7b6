// HOOI-level equivalence suite for the TRSVD backend layer: every backend
// must drive HOOI to the same fit as the scalar Lanczos solver across
// tensor orders 3/4/5, kAuto must resolve as documented,
// and the trsvd_factor dispatch/scatter must behave identically across
// methods (including the parallelized scatter path).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/hooi.hpp"
#include "core/rank_sweep.hpp"
#include "core/symbolic.hpp"
#include "core/trsvd.hpp"
#include "core/ttmc.hpp"
#include "dist/dist_hooi.hpp"
#include "la/blas.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::HooiOptions;
using ht::core::TrsvdMethod;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::Shape;

const std::vector<TrsvdMethod> kAllBackends = {
    TrsvdMethod::kLanczos, TrsvdMethod::kGram, TrsvdMethod::kRandomized,
    TrsvdMethod::kAuto};

CooTensor planted_tensor(const Shape& shape, std::size_t nnz, int rank,
                         std::uint64_t seed) {
  std::vector<double> skews(shape.size(), 0.5);
  CooTensor x = ht::tensor::random_zipf(shape, nnz, skews, seed);
  ht::tensor::plant_low_rank_values(x, rank, 0.1, seed + 1);
  return x;
}

struct OrderCase {
  Shape shape;
  std::size_t nnz;
  index_t rank;
};

class BackendsReachSameFit : public ::testing::TestWithParam<OrderCase> {};

TEST_P(BackendsReachSameFit, AcrossOrders) {
  const auto& [shape, nnz, rank] = GetParam();
  const CooTensor x = planted_tensor(shape, nnz, rank, 77);
  const std::vector<index_t> ranks(x.order(), rank);

  double lanczos_fit = 0.0;
  for (const TrsvdMethod method : kAllBackends) {
    HooiOptions opt;
    opt.ranks = ranks;
    opt.max_iterations = 3;
    opt.fit_tolerance = 0.0;
    opt.trsvd_method = method;
    const auto result = ht::core::hooi(x, opt);
    if (method == TrsvdMethod::kLanczos) {
      lanczos_fit = result.final_fit();
      EXPECT_GT(lanczos_fit, 0.01);  // the planted structure is recoverable
    } else if (method == TrsvdMethod::kRandomized) {
      // The fixed-budget sketch perturbs each sweep's subspace at its
      // accuracy level, and ALS may settle in a neighboring basin — in
      // either direction (the sketch sometimes finds a *better* fit, as
      // order 4 here does). Equivalence contract: no regression beyond ALS
      // fit-tolerance grade.
      EXPECT_GT(result.final_fit(), lanczos_fit - 5e-4);
    } else {
      // Krylov/Gram backends iterate the same problem to tolerance and
      // must track the scalar solver tightly.
      EXPECT_NEAR(result.final_fit(), lanczos_fit, 1e-7)
          << "method " << ht::core::trsvd_method_name(method);
    }
    // HOOI's fit formula requires orthonormal factors whatever the backend.
    for (const auto& f : result.decomposition.factors) {
      const Matrix g = ht::la::gemm_tn(f, f);
      for (std::size_t i = 0; i < g.rows(); ++i) {
        for (std::size_t j = 0; j < g.cols(); ++j) {
          EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-8)
              << ht::core::trsvd_method_name(method);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, BackendsReachSameFit,
    ::testing::Values(OrderCase{{40, 32, 24}, 2500, 4},
                      OrderCase{{14, 12, 10, 9}, 1800, 3},
                      OrderCase{{9, 8, 7, 6, 5}, 1200, 2}));

TEST(TrsvdFactorDispatch, AllBackendsMatchGramOnCompactProblem) {
  // A tall/skinny compact Y with a well-separated planted spectrum.
  ht::Rng rng(5);
  Matrix u(800, 6), v(20, 6);
  for (auto& x : u.flat()) x = rng.normal();
  for (auto& x : v.flat()) x = rng.normal();
  Matrix y(800, 20);
  for (std::size_t i = 0; i < 800; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      double s = 0;
      for (std::size_t k = 0; k < 6; ++k) {
        s += u(i, k) * v(j, k) * std::pow(0.5, k);
      }
      y(i, j) = s;
    }
  }
  std::vector<index_t> rows(800);
  for (std::size_t r = 0; r < 800; ++r) rows[r] = static_cast<index_t>(2 * r);

  const auto ref = ht::core::trsvd_factor(y, rows, 1600, 4,
                                          TrsvdMethod::kGram);
  for (const TrsvdMethod method :
       {TrsvdMethod::kLanczos, TrsvdMethod::kRandomized}) {
    const auto got = ht::core::trsvd_factor(y, rows, 1600, 4, method);
    EXPECT_EQ(got.method_used, method);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(got.sigma[i], ref.sigma[i], 1e-6 * ref.sigma[0])
          << ht::core::trsvd_method_name(method) << " sigma_" << i;
    }
    // Scatter invariants: compact rows land at the mapped positions (the
    // parallel scatter path: 800*4 >= the parallel threshold), odd rows
    // stay zero, and compact_u mirrors the scattered rows.
    ASSERT_EQ(got.factor.rows(), 1600u);
    for (std::size_t r = 0; r < 800; ++r) {
      for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_DOUBLE_EQ(got.factor(2 * r, j), got.compact_u(r, j));
        EXPECT_DOUBLE_EQ(got.factor(2 * r + 1, j), 0.0);
      }
    }
  }
}

TEST(TrsvdFactorDispatch, ReportsKrylovNonConvergence) {
  // Gaussian 300 x 60: a flat spectrum, so Lanczos needs many steps.
  ht::Rng rng(6);
  Matrix y(300, 60);
  for (auto& a : y.flat()) a = rng.normal();
  std::vector<index_t> rows(300);
  for (std::size_t r = 0; r < 300; ++r) rows[r] = static_cast<index_t>(r);

  ht::la::TrsvdOptions capped;
  capped.tol = 1e-10;
  capped.max_steps = 6;
  const auto cut = ht::core::trsvd_factor(y, rows, 300, 4,
                                          TrsvdMethod::kLanczos, capped);
  EXPECT_FALSE(cut.converged);
  EXPECT_EQ(cut.solver_steps, 6u);
  // Still a usable factor: orthonormal columns.
  const Matrix gram = ht::la::gemm_tn(cut.factor, cut.factor);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-10);
    }
  }

  // Default settings on a decaying spectrum converge.
  Matrix u(300, 6), v(60, 6);
  for (auto& a : u.flat()) a = rng.normal();
  for (auto& a : v.flat()) a = rng.normal();
  Matrix planted(300, 60);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t j = 0; j < 60; ++j) {
      double s = 0;
      for (std::size_t k = 0; k < 6; ++k) {
        s += u(i, k) * v(j, k) * std::pow(0.5, k);
      }
      planted(i, j) = s;
    }
  }
  const auto full =
      ht::core::trsvd_factor(planted, rows, 300, 4, TrsvdMethod::kLanczos);
  EXPECT_TRUE(full.converged);

  // Every HOOI driver counts the unconverged factor solves: hooi, the MET
  // baseline, and dist_hooi at one and at three ranks.
  const CooTensor x = planted_tensor({40, 30, 20}, 3000, 3, 7);
  ht::dist::DistHooiOptions opt;
  opt.ranks = {3, 3, 3};
  opt.max_iterations = 2;
  opt.fit_tolerance = 0.0;
  opt.trsvd_method = TrsvdMethod::kLanczos;
  const auto unconverged = [&x](ht::dist::DistHooiOptions o) {
    std::vector<int> counts = {
        ht::core::hooi(x, o).trsvd_unconverged,
        ht::core::hooi_met_baseline(x, o).trsvd_unconverged};
    for (const int p : {1, 3}) {
      o.num_ranks = p;
      counts.push_back(ht::dist::dist_hooi(x, o).trsvd_unconverged);
    }
    return counts;
  };
  for (const int count : unconverged(opt)) EXPECT_EQ(count, 0);
  opt.trsvd.max_steps = 4;
  for (const int count : unconverged(opt)) {
    EXPECT_GT(count, 0);
    EXPECT_LE(count, 2 * 3);
  }
}

TEST(TrsvdAutoModel, ResolvesAsDocumented) {
  const ht::la::TrsvdOptions loose{.tol = 1e-7};
  const ht::la::TrsvdOptions tight{.tol = 1e-12};

  // Explicit methods pass through untouched.
  for (const TrsvdMethod m :
       {TrsvdMethod::kLanczos, TrsvdMethod::kGram, TrsvdMethod::kRandomized}) {
    EXPECT_EQ(ht::core::resolve_trsvd_method(m, 1000000, 100, loose), m);
  }

  // Small problems stay on the scalar solver.
  EXPECT_EQ(ht::core::resolve_trsvd_method(TrsvdMethod::kAuto, 1500, 16,
                                           loose),
            TrsvdMethod::kLanczos);

  // Huge-mode problems at ALS tolerances go to the randomized backend
  // (fewest passes over Y(n), the measured winner on the ablation arm)...
  EXPECT_EQ(ht::core::resolve_trsvd_method(TrsvdMethod::kAuto, 1000000, 100,
                                           loose),
            TrsvdMethod::kRandomized);
  // ...and tolerances past the sketch's fixed budget go back to the
  // iterate-to-tolerance scalar solver.
  EXPECT_EQ(ht::core::resolve_trsvd_method(TrsvdMethod::kAuto, 1000000, 100,
                                           tight),
            TrsvdMethod::kLanczos);
}

TEST(TrsvdMethodNames, ParseAndFormatRoundTrip) {
  for (const TrsvdMethod m : kAllBackends) {
    const auto parsed =
        ht::core::parse_trsvd_method(ht::core::trsvd_method_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_EQ(ht::core::parse_trsvd_method("randomized"),
            TrsvdMethod::kRandomized);
  EXPECT_FALSE(ht::core::parse_trsvd_method("krylov").has_value());
  EXPECT_FALSE(ht::core::parse_trsvd_method("block").has_value());
}

TEST(RankSweepBackends, AutoSweepMatchesLanczosSweep) {
  // The backend knob rides through rank_sweep's shared-symbolic workflow.
  const CooTensor x = planted_tensor({30, 24, 20}, 2000, 4, 99);
  const std::vector<std::vector<index_t>> candidates = {
      {2, 2, 2}, {4, 4, 4}};

  HooiOptions base;
  base.max_iterations = 2;
  base.fit_tolerance = 0.0;
  const auto sweep_lanczos = ht::core::rank_sweep(x, candidates, base);

  base.trsvd_method = TrsvdMethod::kAuto;
  const auto sweep_auto = ht::core::rank_sweep(x, candidates, base);

  ASSERT_EQ(sweep_lanczos.entries.size(), sweep_auto.entries.size());
  for (std::size_t i = 0; i < sweep_lanczos.entries.size(); ++i) {
    EXPECT_NEAR(sweep_auto.entries[i].fit, sweep_lanczos.entries[i].fit, 1e-6);
  }
}

TEST(HooiBackends, DeterministicAcrossRuns) {
  const CooTensor x = planted_tensor({25, 20, 15}, 1500, 3, 11);
  HooiOptions opt;
  opt.ranks = {3, 3, 3};
  opt.max_iterations = 2;
  opt.trsvd_method = TrsvdMethod::kRandomized;
  const auto a = ht::core::hooi(x, opt);
  const auto b = ht::core::hooi(x, opt);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.fits[i], b.fits[i]);
  }
}

}  // namespace
