#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "core/random.hpp"
#include "core/sparse.hpp"
#include "support/cg.hpp"
#include "support/dense_matrix.hpp"
#include "support/lu.hpp"

namespace spinsim {
namespace {

TEST(CooBuilder, CompressBasic) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 1, 3.0);
  const CsrMatrix m = b.compress();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 3.0);
}

TEST(CooBuilder, DuplicatesAccumulate) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 0, -1.0);
  b.add(1, 0, 1.0);
  const CsrMatrix m = b.compress();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);  // cancelled but structurally present
}

TEST(CooBuilder, ZeroEntriesSkipped) {
  CooBuilder b(3, 3);
  b.add(1, 1, 0.0);
  EXPECT_EQ(b.compress().nnz(), 0u);
}

TEST(CooBuilder, OutOfOrderInsertion) {
  CooBuilder b(3, 3);
  b.add(2, 0, 5.0);
  b.add(0, 2, 1.0);
  b.add(1, 1, 2.0);
  const CsrMatrix m = b.compress();
  EXPECT_DOUBLE_EQ(m.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 2.0);
}

TEST(CooBuilder, DuplicatesSumLeftToRightInInsertionOrder) {
  // 24 stamps of (3, 5) whose floating-point sum depends on the order they
  // are added in, one every 160 of ~4000 stamps of other entries (about
  // 500 of them in row 3 or column 5).
  const double pattern[] = {1e16, 1.0, -1e16, 1.0, 3.0, 1e16, -1.0, 0.5, -1e16, 2.5, 1e-3, -7.0};
  std::vector<double> stamps;
  for (int round = 0; round < 2; ++round) {
    for (const double v : pattern) {
      stamps.push_back(round == 0 ? v : -0.75 * v);
    }
  }
  double left_to_right = 0.0;
  for (const double v : stamps) {
    left_to_right += v;
  }
  double right_to_left = 0.0;
  for (auto it = stamps.rbegin(); it != stamps.rend(); ++it) {
    right_to_left += *it;
  }
  ASSERT_NE(left_to_right, right_to_left) << "the stamps' sum must depend on their order";

  Rng rng(17);
  CooBuilder b(16, 16);
  std::size_t next = 0;
  for (std::size_t k = 0; k < 4000; ++k) {
    if (k % 160 == 80 && next < stamps.size()) {
      b.add(3, 5, stamps[next++]);
    }
    const auto r = static_cast<std::size_t>(rng.uniform_int(0, 15));
    auto c = static_cast<std::size_t>(rng.uniform_int(0, 15));
    if (r == 3 && c == 5) {
      c = 6;
    }
    b.add(r, c, rng.uniform(-1.0, 1.0));
  }
  ASSERT_EQ(next, stamps.size());
  EXPECT_EQ(b.compress().at(3, 5), left_to_right);
}

TEST(CooBuilder, LongRowInsertedInDescendingColumnOrder) {
  // Row 2 holds 2048 entries inserted from the last column down, each
  // stamped twice; rows 0 and 4 stay empty.
  const std::size_t cols = 4096;
  CooBuilder b(5, cols);
  for (std::size_t c = cols; c-- > 0;) {
    if (c % 2 == 1) {
      b.add(2, c, static_cast<double>(c));
      b.add(2, c, 0.25);
    }
  }
  b.add(1, 7, 1.0);
  b.add(3, 0, -1.0);
  const CsrMatrix m = b.compress();
  ASSERT_EQ(m.row_ptr(), (std::vector<std::size_t>{0, 0, 1, 2049, 2050, 2050}));
  for (std::size_t k = 0; k < 2048; ++k) {
    const std::size_t p = m.row_ptr()[2] + k;
    EXPECT_EQ(m.col_idx()[p], 2 * k + 1) << "entry " << k << " of row 2";
    EXPECT_EQ(m.values()[p], static_cast<double>(2 * k + 1) + 0.25) << "entry " << k << " of row 2";
  }
  EXPECT_EQ(m.at(1, 7), 1.0);
  EXPECT_EQ(m.at(3, 0), -1.0);
}

TEST(CooBuilder, RandomStampsMatchAnInsertionOrderReference) {
  // ~10k stamps over 40 x 30 entries (about 8 per entry), with magnitudes
  // spread over 16 decades so that any other summation order rounds some
  // entries differently.
  Rng rng(2024);
  const std::size_t rows = 40;
  const std::size_t cols = 30;
  CooBuilder b(rows, cols);
  std::map<std::pair<std::size_t, std::size_t>, double> reference;
  for (int k = 0; k < 10000; ++k) {
    const auto r = static_cast<std::size_t>(rng.uniform_int(0, rows - 1));
    const auto c = static_cast<std::size_t>(rng.uniform_int(0, cols - 1));
    const double v =
        rng.uniform(-1.0, 1.0) * std::pow(10.0, static_cast<double>(rng.uniform_int(-8, 8)));
    b.add(r, c, v);
    reference[{r, c}] += v;
  }
  const CsrMatrix m = b.compress();
  ASSERT_EQ(m.rows(), rows);
  ASSERT_EQ(m.nnz(), reference.size());
  auto it = reference.begin();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p, ++it) {
      ASSERT_EQ(std::make_pair(r, m.col_idx()[p]), it->first);
      EXPECT_EQ(m.values()[p], it->second) << "entry (" << r << ", " << m.col_idx()[p] << ")";
    }
  }
}

TEST(CsrMatrix, EmptyRows) {
  CooBuilder b(4, 4);
  b.add(3, 3, 1.0);
  const CsrMatrix m = b.compress();
  const auto y = m.multiply({1.0, 1.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 2.0);
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  Rng rng(3);
  const std::size_t n = 20;
  CooBuilder b(n, n);
  Matrix dense(n, n, 0.0);
  for (int k = 0; k < 60; ++k) {
    const auto r = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto c = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const double v = rng.uniform(-2.0, 2.0);
    b.add(r, c, v);
    dense(r, c) += v;
  }
  const CsrMatrix sparse = b.compress();
  std::vector<double> x(n);
  for (auto& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto ys = sparse.multiply(x);
  const auto yd = dense.multiply(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ys[i], yd[i], 1e-12);
  }
}

TEST(CsrMatrix, Diagonal) {
  CooBuilder b(3, 3);
  b.add(0, 0, 2.0);
  b.add(1, 2, 9.0);
  b.add(2, 2, -1.0);
  const auto d = b.compress().diagonal();
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], -1.0);
}

/// Builds a random SPD system: A = B^T B + n I (sparse-ish laplacian style).
CsrMatrix random_spd(std::size_t n, Rng& rng, Matrix* dense_out = nullptr) {
  Matrix dense(n, n, 0.0);
  // Random graph laplacian: SPD after grounding (add diagonal shift).
  for (std::size_t k = 0; k < 4 * n; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    if (i == j) {
      continue;
    }
    const double g = rng.uniform(0.1, 2.0);
    dense(i, i) += g;
    dense(j, j) += g;
    dense(i, j) -= g;
    dense(j, i) -= g;
  }
  for (std::size_t i = 0; i < n; ++i) {
    dense(i, i) += 0.5;  // ground leak keeps it positive definite
  }
  CooBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (dense(i, j) != 0.0) {
        b.add(i, j, dense(i, j));
      }
    }
  }
  if (dense_out != nullptr) {
    *dense_out = dense;
  }
  return b.compress();
}

class CgVsLu : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CgVsLu, AgreeOnRandomSpd) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  Matrix dense;
  const CsrMatrix a = random_spd(n, rng, &dense);
  std::vector<double> b(n);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto x_lu = solve_dense(dense, b);
  const CgResult cg = conjugate_gradient(a, b);
  ASSERT_TRUE(cg.converged);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(cg.x[i], x_lu[i], 1e-6 * (1.0 + std::abs(x_lu[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgVsLu, ::testing::Values(2, 8, 32, 100, 300));

TEST(Cg, ZeroRhsGivesZero) {
  Rng rng(9);
  const CsrMatrix a = random_spd(10, rng);
  const CgResult r = conjugate_gradient(a, std::vector<double>(10, 0.0));
  EXPECT_TRUE(r.converged);
  for (double v : r.x) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(Cg, WarmStartReducesIterations) {
  Rng rng(10);
  const CsrMatrix a = random_spd(200, rng);
  std::vector<double> b(200);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  const CgResult cold = conjugate_gradient(a, b);
  ASSERT_TRUE(cold.converged);
  // Perturb the RHS slightly and restart from the previous solution.
  std::vector<double> b2 = b;
  b2[0] += 1e-3;
  const CgResult warm = conjugate_gradient(a, b2, {}, &cold.x);
  ASSERT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(Cg, IndefiniteMatrixThrows) {
  CooBuilder b(2, 2);
  b.add(0, 0, -1.0);
  b.add(1, 1, -1.0);
  const CsrMatrix a = b.compress();
  EXPECT_THROW(conjugate_gradient(a, {1.0, 1.0}), NumericalError);
}

TEST(Cg, DimensionMismatchThrows) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  const CsrMatrix a = b.compress();
  EXPECT_THROW(conjugate_gradient(a, {1.0, 1.0, 1.0}), InvalidArgument);
}

TEST(Cg, NoPreconditionerStillConverges) {
  Rng rng(12);
  const CsrMatrix a = random_spd(50, rng);
  std::vector<double> b(50, 1.0);
  CgOptions options;
  options.jacobi_preconditioner = false;
  const CgResult r = conjugate_gradient(a, b, options);
  EXPECT_TRUE(r.converged);
}

TEST(Cg, RespectsMaxIterations) {
  Rng rng(13);
  const CsrMatrix a = random_spd(100, rng);
  std::vector<double> b(100, 1.0);
  CgOptions options;
  options.max_iterations = 1;
  options.tolerance = 1e-16;
  const CgResult r = conjugate_gradient(a, b, options);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1u);
}

}  // namespace
}  // namespace spinsim
