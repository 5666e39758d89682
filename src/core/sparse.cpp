#include "core/sparse.hpp"

#include <numeric>

namespace spinsim {

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
