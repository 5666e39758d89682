#include "core/matrix.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <tuple>
#include <vector>

#include "core/random.hpp"
#include "support/dense_matrix.hpp"
#include "support/lu.hpp"

namespace spinsim {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), InvalidArgument);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(eye(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, MatVec) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> x{1.0, 1.0};
  const std::vector<double> y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MatVecDimensionMismatch) {
  Matrix m(2, 3);
  EXPECT_THROW(m.multiply(std::vector<double>{1.0, 2.0}), InvalidArgument);
}

TEST(Matrix, MatMat) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  const Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(Matrix, Transpose) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, ArithmeticOps) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b = Matrix::identity(2);
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 2.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(1, 1), 3.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, NormAndMaxAbs) {
  Matrix a{{3.0, 0.0}, {0.0, -4.0}};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
}

TEST(VectorHelpers, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), InvalidArgument);
}

TEST(VectorHelpers, Axpy) {
  std::vector<double> y{1.0, 1.0};
  axpy(2.0, {1.0, -1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(VectorHelpers, ArgmaxArgmin) {
  const std::vector<double> v{1.0, 5.0, 5.0, -2.0};
  EXPECT_EQ(argmax(v), 1u);  // first of ties
  EXPECT_EQ(argmin(v), 3u);
  EXPECT_THROW(argmax(std::vector<double>{}), InvalidArgument);
}

TEST(VectorHelpers, Subtract) {
  const auto d = subtract({3.0, 2.0}, {1.0, 5.0});
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], -3.0);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const auto x = solve_dense(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SolvesWithPivoting) {
  // Leading zero forces a row swap.
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = solve_dense(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuDecomposition lu(a), NumericalError);
}

TEST(Lu, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(LuDecomposition lu(a), InvalidArgument);
}

TEST(Lu, Determinant) {
  Matrix a{{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_NEAR(LuDecomposition(a).determinant(), 6.0, 1e-12);
  Matrix swap{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(LuDecomposition(swap).determinant(), -1.0, 1e-12);
}

TEST(Lu, ReusableForMultipleRhs) {
  Matrix a{{4.0, 1.0}, {1.0, 3.0}};
  const LuDecomposition lu(a);
  const auto x1 = lu.solve({5.0, 4.0});
  const auto x2 = lu.solve({9.0, 7.0});
  EXPECT_NEAR(4.0 * x1[0] + x1[1], 5.0, 1e-12);
  EXPECT_NEAR(4.0 * x2[0] + x2[1], 9.0, 1e-12);
}

/// Property: LU solves random well-conditioned systems to high accuracy.
class LuRandomSystem : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomSystem, ResidualIsTiny) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = rng.uniform(-1.0, 1.0);
    }
    a(r, r) += static_cast<double>(n);  // diagonal dominance
  }
  std::vector<double> b(n);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto x = solve_dense(a, b);
  const auto ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[i], b[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSystem, ::testing::Values(1, 2, 5, 16, 47, 128));

// Naive per-query reference for gemm_operator_batch: the exact addition
// sequence the blocked kernel must reproduce bit for bit.
std::vector<double> naive_operator_batch(const std::vector<double>& op,
                                         const std::vector<double>& x, std::size_t rows,
                                         std::size_t cols, std::size_t batch) {
  std::vector<double> c(batch * cols);
  for (std::size_t q = 0; q < batch; ++q) {
    for (std::size_t j = 0; j < cols; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < rows; ++r) {
        acc += op[j * rows + r] * x[q * rows + r];
      }
      c[q * cols + j] = acc;
    }
  }
  return c;
}

class GemmOperatorBatch : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmOperatorBatch, BitIdenticalToNaiveReference) {
  const auto [rows_i, cols_i, batch_i] = GetParam();
  const auto rows = static_cast<std::size_t>(rows_i);
  const auto cols = static_cast<std::size_t>(cols_i);
  const auto batch = static_cast<std::size_t>(batch_i);
  Rng rng(7 * rows + 13 * cols + 29 * batch);
  std::vector<double> op(cols * rows);
  std::vector<double> x(batch * rows);
  for (auto& v : op) {
    v = rng.uniform(-1.0, 1.0);
  }
  for (auto& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }

  std::vector<double> c(batch * cols, -1.0);
  gemm_operator_batch(op.data(), x.data(), rows, cols, batch, c.data());
  const auto ref = naive_operator_batch(op, x, rows, cols, batch);
  for (std::size_t i = 0; i < c.size(); ++i) {
    // EXPECT_EQ, not EXPECT_NEAR: register blocking must not reassociate
    // the reduction — batched recognition's winners are bit-identical to
    // sequential recognize() only if this holds exactly.
    EXPECT_EQ(c[i], ref[i]) << "element " << i;
  }
}

// (rows, cols, batch), each commented with its (batch % 4, cols % 4). The
// kernel picks a fixed-extent tile by batch % 4 and cols % 4, so the shapes
// cover all 16 pairs, with and without full tiles beside the remainder,
// plus the shapes the workloads run: a spin-bulk shard chunk
// (64 x 80 x 16), a leaf-churn router batch (128 x 16 x 16), its leaf
// groups (128 x 5 x 1 and x 2) and a tier-1 call (128 x 20 x 2).
INSTANTIATE_TEST_SUITE_P(Shapes, GemmOperatorBatch,
                         ::testing::Values(std::make_tuple(128, 40, 16),  // (0, 0)
                                           std::make_tuple(8, 8, 8),      // (0, 0)
                                           std::make_tuple(7, 5, 3),      // (3, 1)
                                           std::make_tuple(9, 4, 5),      // (1, 0)
                                           std::make_tuple(1, 1, 1),      // (1, 1)
                                           std::make_tuple(16, 3, 17),    // (1, 3)
                                           std::make_tuple(5, 9, 4),      // (0, 1)
                                           std::make_tuple(3, 6, 8),      // (0, 2)
                                           std::make_tuple(11, 7, 12),    // (0, 3)
                                           std::make_tuple(6, 2, 1),      // (1, 2)
                                           std::make_tuple(13, 10, 6),    // (2, 2)
                                           std::make_tuple(10, 11, 2),    // (2, 3)
                                           std::make_tuple(2, 12, 7),     // (3, 0)
                                           std::make_tuple(33, 6, 3),     // (3, 2)
                                           std::make_tuple(17, 15, 11),   // (3, 3)
                                           std::make_tuple(64, 80, 16),   // (0, 0)
                                           std::make_tuple(128, 16, 16),  // (0, 0)
                                           std::make_tuple(128, 5, 1),    // (1, 1)
                                           std::make_tuple(128, 5, 2),    // (2, 1)
                                           std::make_tuple(128, 20, 2))); // (2, 0)

TEST(GemmOperatorBatchEdge, ZeroBatchAndZeroColsAreNoOps) {
  const double op[4] = {1.0, 2.0, 3.0, 4.0};
  const double x[2] = {5.0, 6.0};
  double c[2] = {-1.0, -1.0};
  gemm_operator_batch(op, x, 2, 2, 0, c);
  EXPECT_EQ(c[0], -1.0);  // untouched
  gemm_operator_batch(op, x, 2, 0, 1, c);
  EXPECT_EQ(c[0], -1.0);
}

}  // namespace
}  // namespace spinsim
