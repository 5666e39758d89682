#include "core/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace spinsim {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    require(row.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix eye(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    eye(i, i) = 1.0;
  }
  return eye;
}

std::vector<double> Matrix::multiply(const std::vector<double>& x) const {
  require(x.size() == cols_, "Matrix::multiply: dimension mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      acc += row[c] * x[c];
    }
    y[r] = acc;
  }
  return y;
}

Matrix Matrix::multiply(const Matrix& b) const {
  require(cols_ == b.rows_, "Matrix::multiply: dimension mismatch");
  Matrix out(rows_, b.cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a_rk = (*this)(r, k);
      if (a_rk == 0.0) {
        continue;
      }
      for (std::size_t c = 0; c < b.cols_; ++c) {
        out(r, c) += a_rk * b(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out(c, r) = (*this)(r, c);
    }
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_, "Matrix::+=: dimension mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_, "Matrix::-=: dimension mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= other.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator*=(double scale) {
  for (auto& v : data_) {
    v *= scale;
  }
  return *this;
}

double Matrix::norm() const {
  double acc = 0.0;
  for (double v : data_) {
    acc += v * v;
  }
  return std::sqrt(acc);
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) {
    best = std::max(best, std::abs(v));
  }
  return best;
}

Matrix operator+(Matrix a, const Matrix& b) {
  a += b;
  return a;
}
Matrix operator-(Matrix a, const Matrix& b) {
  a -= b;
  return a;
}
Matrix operator*(Matrix a, double s) {
  a *= s;
  return a;
}
Matrix operator*(double s, Matrix a) {
  a *= s;
  return a;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  require(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

double max_abs(const std::vector<double>& v) {
  double best = 0.0;
  for (double x : v) {
    best = std::max(best, std::abs(x));
  }
  return best;
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  require(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

std::vector<double> subtract(const std::vector<double>& a, const std::vector<double>& b) {
  require(a.size() == b.size(), "subtract: size mismatch");
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

std::size_t argmax(const std::vector<double>& v) {
  require(!v.empty(), "argmax: empty vector");
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
}

std::size_t argmin(const std::vector<double>& v) {
  require(!v.empty(), "argmin: empty vector");
  return static_cast<std::size_t>(std::min_element(v.begin(), v.end()) - v.begin());
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
