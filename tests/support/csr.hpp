/// \file csr.hpp
/// Products and element reads of a CsrMatrix, over its row_ptr(),
/// col_idx() and values(): what CG and the sparse tests need beyond the
/// factorization's own use of the matrix.

#pragma once

#include <cstddef>
#include <vector>

#include "core/sparse.hpp"

namespace spinsim {

/// y = A * x.
std::vector<double> multiply(const CsrMatrix& a, const std::vector<double>& x);

/// y = A * x without allocating (y is resized as needed).
void multiply_into(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& y);

/// Diagonal entries (0.0 where the diagonal is structurally absent).
std::vector<double> diagonal(const CsrMatrix& a);

/// Element (r, c), 0.0 where it is structurally absent (O(log nnz_row)).
double at(const CsrMatrix& a, std::size_t r, std::size_t c);

}  // namespace spinsim
