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
/// column with a sparse triangular solve per row. A nested-dissection
/// pre-ordering keeps fill low on the grid-like crossbar graphs: a
/// separator numbered after the two halves it splits confines fill to
/// the halves and the separator's own columns, so a 64x160 crossbar's
/// factor holds ~0.7M entries where a banded order leaves ~2.3M.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sparse.hpp"

namespace spinsim {

/// Fill-reducing nested-dissection ordering of the symmetric pattern of
/// `a`. Each part is split by the middle level of a breadth-first level
/// structure grown from a pseudo-peripheral node; the level is trimmed to
/// the nodes that touch the far side and numbered after both sides, which
/// are split in turn. Parts of at most 64 nodes keep the order the search
/// found them in. Disconnected patterns are split component by component.
/// Deterministic: the same pattern always gives the same order. Returns
/// `perm` with perm[k] = original index of the k-th node in the new
/// ordering.
std::vector<std::size_t> nested_dissection(const CsrMatrix& a);

/// Options for SparseLdlt::factorize().
struct LdltOptions {
  /// Permute with nested_dissection(). False factors in the natural
  /// order, which only serves as a reference to compare against.
  bool use_fill_reducing_ordering = true;
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
