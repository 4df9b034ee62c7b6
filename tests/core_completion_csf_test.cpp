// The completion core refresh's fused CSF walk (core::csf_normal_apply)
// against a per-nonzero Kronecker oracle, and masked_update_core's tree
// plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/completion.hpp"
#include "core/ttmc.hpp"
#include "parallel/thread_info.hpp"
#include "tensor/csf.hpp"
#include "util/random.hpp"

namespace {

using ht::core::TuckerDecomposition;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::CsfTree;
using ht::tensor::index_t;
using ht::tensor::nnz_t;
using ht::tensor::Shape;

/// Kronecker product of the factor rows at `idx`, laid out like the flat
/// core buffer (mode 0 slowest): buf[(r_0 R_1 + r_1) R_2 + ...] =
/// prod_n U_n(idx[n], r_n).
void kron_rows(const std::vector<Matrix>& factors,
               const std::vector<index_t>& idx, std::vector<double>& buf) {
  std::size_t len = 1;
  buf.assign(1, 1.0);
  for (std::size_t n = 0; n < factors.size(); ++n) {
    const auto row = factors[n].row(idx[n]);
    std::vector<double> next(len * row.size());
    for (std::size_t p = 0; p < len; ++p) {
      for (std::size_t r = 0; r < row.size(); ++r) {
        next[p * row.size() + r] = buf[p] * row[r];
      }
    }
    buf = std::move(next);
    len = buf.size();
  }
}

/// The per-nonzero oracle: A^T (A v), or A^T x when `v` is empty, one
/// full Kronecker row per nonzero in COO order.
std::vector<double> oracle_normal(const CooTensor& x,
                                  const std::vector<Matrix>& factors,
                                  const std::vector<double>& v) {
  std::size_t len = 1;
  for (const Matrix& f : factors) len *= f.cols();
  std::vector<double> out(len, 0.0), kron;
  std::vector<index_t> idx(x.order());
  for (nnz_t e = 0; e < x.nnz(); ++e) {
    for (std::size_t m = 0; m < x.order(); ++m) idx[m] = x.index(m, e);
    kron_rows(factors, idx, kron);
    double p = x.value(e);
    if (!v.empty()) {
      p = 0.0;
      for (std::size_t j = 0; j < len; ++j) p += kron[j] * v[j];
    }
    for (std::size_t j = 0; j < len; ++j) out[j] += p * kron[j];
  }
  return out;
}

/// Random entries whose coordinates avoid the first and last index of
/// every mode, so each mode has empty rows at both ends.
CooTensor tensor_with_empty_rows(const Shape& shape, nnz_t nnz,
                                 std::uint64_t seed) {
  CooTensor x(shape);
  ht::Rng rng(seed);
  std::vector<index_t> idx(shape.size());
  for (nnz_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < shape.size(); ++m) {
      idx[m] = 1 + static_cast<index_t>(rng.below(shape[m] - 2));
    }
    x.push_back(idx, rng.uniform(-1.0, 1.0));
  }
  return x;
}

std::vector<Matrix> random_factors(const Shape& shape, const Shape& ranks,
                                   std::uint64_t seed) {
  ht::Rng rng(seed);
  std::vector<Matrix> factors;
  for (std::size_t m = 0; m < shape.size(); ++m) {
    Matrix f(shape[m], ranks[m]);
    for (double& a : f.flat()) a = rng.uniform(-1.0, 1.0);
    factors.push_back(std::move(f));
  }
  return factors;
}

std::vector<double> random_vector(std::size_t len, std::uint64_t seed) {
  ht::Rng rng(seed);
  std::vector<double> v(len);
  for (double& a : v) a = rng.uniform(-1.0, 1.0);
  return v;
}

double max_abs(const std::vector<double>& a) {
  double m = 0.0;
  for (const double v : a) m = std::max(m, std::abs(v));
  return m;
}

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  const double scale = max_abs(want);
  ASSERT_GT(scale, 0.0) << what;
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_LE(std::abs(got[j] - want[j]), 1e-12 * scale)
        << what << " entry " << j;
  }
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Case {
  Shape shape;
  Shape ranks;
  nnz_t nnz;
};

// Non-cubic shapes, so the shortest-first level order permutes the tree's
// levels away from mode order; rank-1 modes included.
const Case kCases[] = {
    {{37, 11}, {3, 1}, 150},
    {{11, 29}, {2, 4}, 120},
    {{23, 9, 41}, {4, 1, 3}, 400},
    {{30, 14, 6}, {2, 3, 2}, 350},
    {{13, 30, 7, 19}, {2, 3, 2, 1}, 600},
    {{9, 12, 16, 5}, {1, 2, 3, 2}, 500},
};

TEST(CsfNormalApplyTest, MatchesPerNonzeroOracleForEveryRoot) {
  std::uint64_t seed = 100;
  for (const Case& c : kCases) {
    const CooTensor x = tensor_with_empty_rows(c.shape, c.nnz, ++seed);
    const std::vector<Matrix> factors =
        random_factors(c.shape, c.ranks, ++seed);
    std::size_t len = 1;
    for (const index_t r : c.ranks) len *= r;
    const std::vector<double> v = random_vector(len, ++seed);
    const std::vector<double> want_normal = oracle_normal(x, factors, v);
    const std::vector<double> want_rhs = oracle_normal(x, factors, {});
    for (std::size_t root = 0; root < x.order(); ++root) {
      SCOPED_TRACE("order " + std::to_string(x.order()) + " root " +
                   std::to_string(root));
      CsfTree tree = CsfTree::build_pattern(x, root);
      std::vector<double> got;
      // A^T (A v) needs only the pattern.
      ht::core::csf_normal_apply(factors, tree, v, got);
      expect_close(got, want_normal, "A^T(Av)");
      tree.attach_values(x);
      ht::core::csf_normal_apply(factors, tree, {}, got);
      expect_close(got, want_rhs, "A^T x");
    }
  }
}

TEST(CsfNormalApplyTest, CompletionTreeIsRootedAtTheShortestMode) {
  const CooTensor a = tensor_with_empty_rows(Shape{23, 9, 41}, 200, 7);
  EXPECT_EQ(ht::core::completion_csf_tree(a).root_mode(), 1u);
  // Ties go to the lowest mode id.
  const CooTensor b = tensor_with_empty_rows(Shape{30, 12, 12, 20}, 200, 8);
  const CsfTree tb = ht::core::completion_csf_tree(b);
  EXPECT_EQ(tb.root_mode(), 1u);
  EXPECT_TRUE(tb.has_values());
}

TEST(CsfNormalApplyTest, BitwiseEqualAcrossThreadCounts) {
  // Enough nonzeros for several nnz-balanced tiles.
  const Shape shape{60, 45, 35};
  const Shape ranks{4, 3, 5};
  const CooTensor x = tensor_with_empty_rows(shape, 40000, 11);
  const std::vector<Matrix> factors = random_factors(shape, ranks, 12);
  const std::vector<double> v = random_vector(4 * 3 * 5, 13);
  const CsfTree tree = ht::core::completion_csf_tree(x);
  std::vector<double> normal1, rhs1, normal4, rhs4;
  {
    ht::parallel::ThreadScope threads(1);
    ht::core::csf_normal_apply(factors, tree, v, normal1);
    ht::core::csf_normal_apply(factors, tree, {}, rhs1);
  }
  {
    ht::parallel::ThreadScope threads(4);
    ht::core::csf_normal_apply(factors, tree, v, normal4);
    ht::core::csf_normal_apply(factors, tree, {}, rhs4);
  }
  EXPECT_TRUE(bitwise_equal(normal1, normal4));
  EXPECT_TRUE(bitwise_equal(rhs1, rhs4));
  expect_close(normal1, oracle_normal(x, factors, v), "A^T(Av)");
}

TEST(CsfNormalApplyTest, SplitsOneHeavyRootAcrossTiles) {
  // The shortest mode has a single observed row, so every nonzero sits
  // under one root: tiles must split that root's children (level-1 nodes,
  // or leaves for an order-2 tree) and still agree with the oracle and
  // across thread counts.
  const Case cases[] = {{{3, 70, 50}, {2, 3, 4}, 30000},
                        {{3, 20000}, {2, 3}, 20000}};
  std::uint64_t seed = 300;
  for (const Case& c : cases) {
    SCOPED_TRACE("order " + std::to_string(c.shape.size()));
    const CooTensor x = tensor_with_empty_rows(c.shape, c.nnz, ++seed);
    const std::vector<Matrix> factors =
        random_factors(c.shape, c.ranks, ++seed);
    std::size_t len = 1;
    for (const index_t r : c.ranks) len *= r;
    const std::vector<double> v = random_vector(len, ++seed);
    const CsfTree tree = ht::core::completion_csf_tree(x);
    ASSERT_EQ(tree.root_mode(), 0u);
    ASSERT_EQ(tree.num_roots(), 1u);
    std::vector<double> normal1, rhs1, normal4, rhs4;
    {
      ht::parallel::ThreadScope threads(1);
      ht::core::csf_normal_apply(factors, tree, v, normal1);
      ht::core::csf_normal_apply(factors, tree, {}, rhs1);
    }
    {
      ht::parallel::ThreadScope threads(4);
      ht::core::csf_normal_apply(factors, tree, v, normal4);
      ht::core::csf_normal_apply(factors, tree, {}, rhs4);
    }
    EXPECT_TRUE(bitwise_equal(normal1, normal4));
    EXPECT_TRUE(bitwise_equal(rhs1, rhs4));
    expect_close(normal1, oracle_normal(x, factors, v), "A^T(Av)");
    expect_close(rhs1, oracle_normal(x, factors, {}), "A^T x");
  }
}

TEST(CsfNormalApplyTest, MaskedUpdateCoreWithAndWithoutCallerTreeAgree) {
  const Shape shape{40, 25, 33};
  const Shape ranks{3, 2, 4};
  const CooTensor x = tensor_with_empty_rows(shape, 20000, 21);
  TuckerDecomposition start;
  start.factors = random_factors(shape, ranks, 22);
  start.core = ht::tensor::DenseTensor(ranks);
  const std::vector<double> g0 = random_vector(3 * 2 * 4, 23);
  std::copy(g0.begin(), g0.end(), start.core.flat().begin());
  const CsfTree tree = ht::core::completion_csf_tree(x);

  const auto run = [&](int threads, const CsfTree* csf) {
    ht::parallel::ThreadScope scope(threads);
    TuckerDecomposition t = start;
    const int iters =
        ht::core::masked_update_core(x, 0.01, 12, 1e-12, t, csf);
    EXPECT_GT(iters, 0);
    const auto core = t.core.flat();
    return std::vector<double>(core.begin(), core.end());
  };
  const std::vector<double> ref = run(1, &tree);
  EXPECT_TRUE(bitwise_equal(ref, run(1, nullptr)));
  EXPECT_TRUE(bitwise_equal(ref, run(4, &tree)));
  EXPECT_TRUE(bitwise_equal(ref, run(4, nullptr)));
  EXPECT_FALSE(bitwise_equal(ref, g0));
}

TEST(CsfNormalApplyTest, CompletionRejectsOrderAboveCsfLimit) {
  const std::size_t order = ht::core::kCsfMaxOrder + 1;
  CooTensor x(Shape(order, 2));
  x.push_back(std::vector<index_t>(order, 0), 1.0);
  x.push_back(std::vector<index_t>(order, 1), 2.0);
  ht::core::CompletionOptions o;
  o.ranks.assign(order, 1);
  EXPECT_THROW(ht::core::validate_completion_options(x, o),
               ht::InvalidArgument);
  EXPECT_THROW(ht::core::tucker_complete(x, o), ht::InvalidArgument);
  // The limit itself is accepted.
  const std::size_t top = ht::core::kCsfMaxOrder;
  CooTensor y(Shape(top, 2));
  y.push_back(std::vector<index_t>(top, 0), 1.0);
  y.push_back(std::vector<index_t>(top, 1), 2.0);
  o.ranks.assign(top, 1);
  o.max_sweeps = 1;
  EXPECT_NO_THROW(ht::core::tucker_complete(y, o));
}

}  // namespace
