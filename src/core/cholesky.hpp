/// \file cholesky.hpp
/// Sparse LDL^T (Cholesky) factorization for SPD conductance systems.
///
/// The parasitic crossbar produces one fixed SPD matrix per programming
/// state; only the right-hand side (the injection vector) changes between
/// recognitions. Factoring it once lets the crossbar read its whole
/// transfer operator from the factor (inverse_entries), so a recognition
/// costs one dense matvec instead of a solve.
///
/// The factorization is the classic up-looking LDL^T: an elimination-tree
/// symbolic pass sizes L exactly, then a numeric pass fills it column by
/// column with a sparse triangular solve per row. The elimination order
/// comes from the caller, who knows the graph: the parasitic crossbar
/// passes a nested dissection of its own grid with its input and output
/// nodes last (crossbar_elimination_order). That keeps a 64x160
/// crossbar's factor to ~0.36M entries, where a banded order leaves ~2.3M.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sparse.hpp"

namespace spinsim {

/// Sparse LDL^T factorization P A P^T = L D L^T of an SPD matrix.
class SparseLdlt {
 public:
  /// Factors `a` (symmetric positive definite, full pattern stored, as
  /// produced by CooBuilder::compress), eliminating its unknowns in
  /// `order` (order[k] = original index of the k-th unknown eliminated).
  /// An empty order means natural order. Throws InvalidArgument if a
  /// non-empty order is not a permutation of 0..n-1, and NumericalError
  /// if a non-positive pivot appears (matrix not SPD / singular).
  void factorize(const CsrMatrix& a, const std::vector<std::size_t>& order = {});

  /// False until factorize() completes successfully (a throwing
  /// factorize() leaves the object unusable until the next success).
  bool factorized() const { return factorized_; }

  std::size_t dimension() const { return n_; }

  /// Nonzeros in L (strictly lower triangle), a proxy for solve cost.
  std::size_t factor_nnz() const { return l_values_.size(); }

  /// Solves A x = b via forward/backward substitution. Throws
  /// InvalidArgument if not factorized or b has the wrong length.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Allocation-free variant; x is resized as needed.
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  /// A block of the inverse: out[j * cols.size() + c] = (A^-1)(rows[j],
  /// cols[c]), bit-identical to solve(e_rows[j])[cols[c]]. The unit
  /// right-hand sides are solved a fixed-size block at a time, streaming L
  /// once per block instead of once per row. A block's forward pass starts
  /// at its lowest permuted unit entry and the back pass stops at the
  /// lowest permuted wanted entry, which skips only arithmetic that leaves
  /// +0 or is never read, and the scratch covers only the positions from
  /// the lowest of those to n. With every index among the last positions
  /// of the order, as the crossbar numbers its input and output nodes,
  /// both passes and the scratch stay inside that trailing block and no
  /// other column of L is read. Indices may repeat and come in any order.
  /// Throws InvalidArgument if not factorized or an index is out of range.
  std::vector<double> inverse_entries(const std::vector<std::size_t>& rows,
                                      const std::vector<std::size_t>& cols) const;

 private:
  std::size_t n_ = 0;
  bool factorized_ = false;
  std::vector<std::size_t> perm_;      // new -> old
  std::vector<std::size_t> inv_perm_;  // old -> new
  // L in compressed-column form (strictly lower triangle), D diagonal.
  std::vector<std::size_t> l_col_ptr_;
  std::vector<std::uint32_t> l_row_idx_;  // a quarter off the factor's bytes
  std::vector<double> l_values_;
  std::vector<double> d_;
  mutable std::vector<double> work_;  // permuted rhs / solution scratch
};

}  // namespace spinsim
