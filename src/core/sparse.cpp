#include "core/sparse.hpp"

#include <algorithm>
#include <numeric>

namespace spinsim {

std::vector<double> CsrMatrix::multiply(const std::vector<double>& x) const {
  std::vector<double> y;
  multiply_into(x, y);
  return y;
}

void CsrMatrix::multiply_into(const std::vector<double>& x, std::vector<double>& y) const {
  require(x.size() == cols_, "CsrMatrix::multiply: dimension mismatch");
  y.assign(rows(), 0.0);
  for (std::size_t r = 0; r < rows(); ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
  }
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(rows(), 0.0);
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k] == r) {
        d[r] = values_[k];
        break;
      }
    }
  }
  return d;
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  require(r < rows() && c < cols_, "CsrMatrix::at: index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) {
    return 0.0;
  }
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

void CooBuilder::add(std::size_t r, std::size_t c, double value) {
  SPINSIM_ASSERT(r < rows_ && c < cols_, "CooBuilder::add: index out of range");
  if (value == 0.0) {
    return;
  }
  r_.push_back(r);
  c_.push_back(c);
  v_.push_back(value);
}

CsrMatrix CooBuilder::compress() const {
  // Two stable counting sorts: the stamps by column, then that order by
  // row. Walked in column order, a row meets its columns in ascending
  // order and each entry's stamps back to back, in insertion order, so
  // the row pass sums an entry's stamps left to right as it places them.
  const std::size_t nnz = v_.size();
  std::vector<std::size_t> by_col(nnz);
  {
    std::vector<std::size_t> next(cols_ + 1, 0);
    for (const std::size_t c : c_) {
      ++next[c + 1];
    }
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (std::size_t k = 0; k < nnz; ++k) {
      by_col[next[c_[k]]++] = k;
    }
  }

  CsrMatrix out;
  out.cols_ = cols_;
  out.row_ptr_.assign(rows_ + 1, 0);
  {
    // A row gains an entry wherever its column changes.
    std::vector<std::size_t> last_col(rows_, cols_);
    for (const std::size_t k : by_col) {
      if (last_col[r_[k]] != c_[k]) {
        last_col[r_[k]] = c_[k];
        ++out.row_ptr_[r_[k] + 1];
      }
    }
  }
  std::partial_sum(out.row_ptr_.begin(), out.row_ptr_.end(), out.row_ptr_.begin());
  out.col_idx_.resize(out.row_ptr_[rows_]);
  out.values_.resize(out.row_ptr_[rows_]);
  std::vector<std::size_t> next(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (const std::size_t k : by_col) {
    const std::size_t r = r_[k];
    const std::size_t p = next[r];
    if (p > out.row_ptr_[r] && out.col_idx_[p - 1] == c_[k]) {
      out.values_[p - 1] += v_[k];
    } else {
      out.col_idx_[p] = c_[k];
      out.values_[p] = v_[k];
      next[r] = p + 1;
    }
  }
  return out;
}

}  // namespace spinsim
