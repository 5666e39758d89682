#include "support/dense_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "core/matrix.hpp"

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

std::size_t argmin(const std::vector<double>& v) {
  require(!v.empty(), "argmin: empty vector");
  return static_cast<std::size_t>(std::min_element(v.begin(), v.end()) - v.begin());
}

}  // namespace spinsim
