#include "support/csr.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace spinsim {

std::vector<double> multiply(const CsrMatrix& a, const std::vector<double>& x) {
  std::vector<double> y;
  multiply_into(a, x, y);
  return y;
}

void multiply_into(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& y) {
  require(x.size() == a.cols(), "multiply: dimension mismatch");
  const std::vector<std::size_t>& row_ptr = a.row_ptr();
  const std::vector<std::size_t>& col_idx = a.col_idx();
  const std::vector<double>& values = a.values();
  y.assign(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      acc += values[k] * x[col_idx[k]];
    }
    y[r] = acc;
  }
}

std::vector<double> diagonal(const CsrMatrix& a) {
  std::vector<double> d(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      if (a.col_idx()[k] == r) {
        d[r] = a.values()[k];
        break;
      }
    }
  }
  return d;
}

double at(const CsrMatrix& a, std::size_t r, std::size_t c) {
  require(r < a.rows() && c < a.cols(), "at: index out of range");
  const auto begin = a.col_idx().begin() + static_cast<std::ptrdiff_t>(a.row_ptr()[r]);
  const auto end = a.col_idx().begin() + static_cast<std::ptrdiff_t>(a.row_ptr()[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) {
    return 0.0;
  }
  return a.values()[static_cast<std::size_t>(it - a.col_idx().begin())];
}

}  // namespace spinsim
