/// \file sparse.hpp
/// Sparse matrix support for large resistive networks.
///
/// The parasitic crossbar model produces symmetric positive-definite
/// conductance matrices with ~10k unknowns and a handful of nonzeros per
/// row. A COO triplet builder accumulates stamps; compress() produces an
/// immutable CSR matrix, which the sparse LDL^T factor (SparseLdlt)
/// consumes.

#pragma once

#include <cstddef>
#include <vector>

#include "core/error.hpp"

namespace spinsim {

/// Immutable compressed-sparse-row matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  std::size_t rows() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  friend class CooBuilder;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Accumulating triplet (COO) builder. Duplicate (r, c) entries are summed
/// on compress(), which matches circuit-stamping semantics. compress()
/// runs in O(nnz + rows + cols) time and memory, worst case included, and
/// sums the stamps of one entry in insertion order, left to right.
class CooBuilder {
 public:
  CooBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Adds `value` at (r, c).
  void add(std::size_t r, std::size_t c, double value);

  /// Sums duplicates and returns the CSR form with sorted column indices.
  CsrMatrix compress() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> r_;
  std::vector<std::size_t> c_;
  std::vector<double> v_;
};

}  // namespace spinsim
