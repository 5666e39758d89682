#include "support/lu.hpp"

#include <cmath>
#include <utility>

#include "core/error.hpp"

namespace spinsim {

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  require(lu_.rows() == lu_.cols(), "LuDecomposition: matrix must be square");
  const std::size_t n = lu_.rows();
  piv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    piv_[i] = i;
  }

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: bring the largest remaining |entry| of this column
    // to the diagonal.
    std::size_t pivot_row = col;
    double pivot_mag = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, col));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < 1e-300) {
      throw NumericalError("LuDecomposition: matrix is singular");
    }
    if (pivot_row != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(pivot_row, c), lu_(col, c));
      }
      std::swap(piv_[pivot_row], piv_[col]);
      pivot_sign_ = -pivot_sign_;
    }

    const double inv_pivot = 1.0 / lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) * inv_pivot;
      lu_(r, col) = factor;
      if (factor == 0.0) {
        continue;
      }
      for (std::size_t c = col + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(col, c);
      }
    }
  }
}

std::vector<double> LuDecomposition::solve(const std::vector<double>& b) const {
  const std::size_t n = size();
  require(b.size() == n, "LuDecomposition::solve: dimension mismatch");

  // Apply the permutation, then forward/backward substitution.
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = b[piv_[i]];
  }
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) {
      acc -= lu_(i, j) * x[j];
    }
    x[i] = acc;
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = x[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      acc -= lu_(i, j) * x[j];
    }
    x[i] = acc / lu_(i, i);
  }
  return x;
}

double LuDecomposition::determinant() const {
  double det = pivot_sign_;
  for (std::size_t i = 0; i < size(); ++i) {
    det *= lu_(i, i);
  }
  return det;
}

std::vector<double> solve_dense(const Matrix& a, const std::vector<double>& b) {
  return LuDecomposition(a).solve(b);
}

}  // namespace spinsim
