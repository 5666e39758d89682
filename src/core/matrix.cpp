#include "core/matrix.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace spinsim {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  require(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

std::size_t argmax(const std::vector<double>& v) {
  require(!v.empty(), "argmax: empty vector");
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
}

namespace {

// Register-tile extent of gemm_operator_batch: a full tile is 4 queries x
// 4 operator rows, 16 accumulators. Without -march GCC packs them two to an
// SSE2 register, so the 8 accumulator registers and the streamed operands
// fit in x86-64's 16 vector registers; aarch64 has 32.
constexpr std::size_t kGemmTile = 4;

// One QN x JN tile: queries x[0 .. QN) against operator rows op[0 .. JN),
// each row `rows` long, written to c with row stride `cols`. The extents are
// template arguments so the accumulators stay in registers and every inner
// loop unrolls. The loop over r stays outermost and sequential: every
// accumulator sees its offset, then r = 0, 1, ... in order -- the addition
// sequence of the scalar matvec.
template <std::size_t QN, std::size_t JN>
void gemm_tile(const double* op, const double* offset, const double* x, std::size_t rows,
               std::size_t cols, double* c) {
  double acc[QN][JN];
  for (std::size_t qi = 0; qi < QN; ++qi) {
    for (std::size_t ji = 0; ji < JN; ++ji) {
      acc[qi][ji] = offset != nullptr ? offset[ji] : 0.0;
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    double a_jr[JN];
    for (std::size_t ji = 0; ji < JN; ++ji) {
      a_jr[ji] = op[ji * rows + r];
    }
    for (std::size_t qi = 0; qi < QN; ++qi) {
      const double x_qr = x[qi * rows + r];
      for (std::size_t ji = 0; ji < JN; ++ji) {
        acc[qi][ji] += a_jr[ji] * x_qr;
      }
    }
  }
  for (std::size_t qi = 0; qi < QN; ++qi) {
    for (std::size_t ji = 0; ji < JN; ++ji) {
      c[qi * cols + ji] = acc[qi][ji];
    }
  }
}

// QN queries against the whole operator: full 4-row tiles, then one tile of
// the cols % 4 remaining rows.
template <std::size_t QN>
void gemm_queries(const double* op, const double* offset, const double* x, std::size_t rows,
                  std::size_t cols, double* c) {
  const std::size_t full = cols - cols % kGemmTile;
  for (std::size_t j0 = 0; j0 < full; j0 += kGemmTile) {
    gemm_tile<QN, kGemmTile>(op + j0 * rows, offset != nullptr ? offset + j0 : nullptr, x, rows,
                             cols, c + j0);
  }
  const double* op_tail = op + full * rows;
  const double* offset_tail = offset != nullptr ? offset + full : nullptr;
  switch (cols % kGemmTile) {
    case 1:
      gemm_tile<QN, 1>(op_tail, offset_tail, x, rows, cols, c + full);
      break;
    case 2:
      gemm_tile<QN, 2>(op_tail, offset_tail, x, rows, cols, c + full);
      break;
    case 3:
      gemm_tile<QN, 3>(op_tail, offset_tail, x, rows, cols, c + full);
      break;
    default:
      break;
  }
}

}  // namespace

void gemm_operator_batch(const double* op, const double* offset, const double* x,
                         std::size_t rows, std::size_t cols, std::size_t batch, double* c) {
  if (batch == 0 || cols == 0) {
    return;
  }
  const std::size_t full = batch - batch % kGemmTile;
  for (std::size_t q0 = 0; q0 < full; q0 += kGemmTile) {
    gemm_queries<kGemmTile>(op, offset, x + q0 * rows, rows, cols, c + q0 * cols);
  }
  const double* x_tail = x + full * rows;
  double* c_tail = c + full * cols;
  switch (batch % kGemmTile) {
    case 1:
      gemm_queries<1>(op, offset, x_tail, rows, cols, c_tail);
      break;
    case 2:
      gemm_queries<2>(op, offset, x_tail, rows, cols, c_tail);
      break;
    case 3:
      gemm_queries<3>(op, offset, x_tail, rows, cols, c_tail);
      break;
    default:
      break;
  }
}

}  // namespace spinsim
