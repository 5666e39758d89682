/// \file cholesky.hpp
/// Sparse LDL^T (Cholesky) factorization for SPD conductance systems.
///
/// The parasitic crossbar produces one fixed SPD matrix per programming
/// state; only the right-hand side (the injection vector) changes between
/// recognitions. Factoring once and back-substituting per query replaces
/// the per-query CG iteration loop with two sparse triangular solves —
/// the numerical core of the direct-solver recognition path.
///
/// The factorization is the classic up-looking LDL^T: an elimination-tree
/// symbolic pass sizes L exactly, then a numeric pass fills it column by
/// column with a sparse triangular solve per row. A reverse Cuthill-McKee
/// pre-ordering keeps fill low on the grid-like crossbar graphs (the
/// natural node order of a rows x cols array already has bandwidth
/// ~min(rows, cols); RCM makes the factor size robust to arbitrary
/// grounded networks as well).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sparse.hpp"

namespace spinsim {

/// Fill-reducing ordering computed from the symmetric pattern of `a`:
/// breadth-first levels from a low-degree start node, neighbours visited
/// in degree order, then reversed. Returns `perm` with perm[k] = original
/// index of the k-th node in the new ordering. Handles disconnected
/// patterns (each component is ordered in turn).
std::vector<std::size_t> reverse_cuthill_mckee(const CsrMatrix& a);

/// Options for SparseLdlt::factorize().
struct LdltOptions {
  bool use_rcm_ordering = true;  ///< permute with reverse_cuthill_mckee()
};

/// Sparse LDL^T factorization P A P^T = L D L^T of an SPD matrix.
class SparseLdlt {
 public:
  /// Factors `a` (symmetric positive definite, full pattern stored, as
  /// produced by CooBuilder::compress). Throws NumericalError if a
  /// non-positive pivot appears (matrix not SPD / singular).
  void factorize(const CsrMatrix& a, const LdltOptions& options = {});

  /// False until factorize() completes successfully (a throwing
  /// factorize() leaves the object unusable until the next success).
  bool factorized() const { return factorized_; }

  std::size_t dimension() const { return n_; }

  /// Nonzeros in L (strictly lower triangle), a proxy for solve cost.
  std::size_t factor_nnz() const { return l_values_.size(); }

  /// The fill-reducing permutation used (perm[k] = original index).
  const std::vector<std::size_t>& permutation() const { return perm_; }

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
  /// +0 or is never read; rows close in the permuted order therefore
  /// share the most work. Indices may repeat and come in any order.
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
