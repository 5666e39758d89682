/// \file lu.hpp
/// Dense LU factorisation with partial pivoting.
///
/// This is the workhorse behind the general MNA operating-point solve
/// (circuits with voltage sources produce indefinite, non-symmetric
/// systems). Factor once, then solve repeatedly against new right-hand
/// sides — the SAR WTA re-solves the same crossbar topology every cycle.

#pragma once

#include <vector>

#include "support/dense_matrix.hpp"

namespace spinsim {

/// LU decomposition P*A = L*U of a square matrix.
class LuDecomposition {
 public:
  /// Factors `a`. Throws NumericalError if the matrix is singular to
  /// working precision.
  explicit LuDecomposition(Matrix a);

  std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Determinant of A (product of U's diagonal with pivot sign).
  double determinant() const;

 private:
  Matrix lu_;                     // packed L (unit diagonal) and U
  std::vector<std::size_t> piv_;  // row permutation
  int pivot_sign_ = 1;
};

/// One-shot convenience: solves A x = b by LU.
std::vector<double> solve_dense(const Matrix& a, const std::vector<double>& b);

}  // namespace spinsim
