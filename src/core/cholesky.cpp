#include "core/cholesky.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "core/error.hpp"

namespace spinsim {

namespace {

/// Right-hand sides per pass of SparseLdlt::inverse_entries(), laid out
/// node-major (w[i * kRhsBlock + r]) so one sweep over L serves them all.
constexpr std::size_t kRhsBlock = 24;

}  // namespace

void SparseLdlt::factorize(const CsrMatrix& a, const std::vector<std::size_t>& order) {
  factorized_ = false;  // stays false if a check or a pivot aborts below
  require(a.rows() == a.cols(), "SparseLdlt::factorize: matrix must be square");
  const std::size_t n = a.rows();
  require(n <= std::numeric_limits<std::uint32_t>::max(),
          "SparseLdlt::factorize: dimension exceeds 32-bit row indices");
  require(order.empty() || order.size() == n,
          "SparseLdlt::factorize: order must list every unknown once");
  n_ = n;
  if (n == 0) {
    perm_.clear();
    inv_perm_.clear();
    l_col_ptr_.assign(1, 0);
    l_row_idx_.clear();
    l_values_.clear();
    d_.clear();
    factorized_ = true;
    return;
  }

  if (order.empty()) {
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  } else {
    perm_ = order;
  }
  inv_perm_.assign(n, n);  // n == "not yet placed"
  for (std::size_t k = 0; k < n; ++k) {
    require(perm_[k] < n && inv_perm_[perm_[k]] == n,
            "SparseLdlt::factorize: order must list every unknown once");
    inv_perm_[perm_[k]] = k;
  }

  // Permuted upper triangle in compressed-column form: column k holds the
  // entries (i, k) with i <= k of P A P^T. By symmetry these are exactly
  // the entries of row perm[k] of A whose permuted column index is <= k.
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  std::vector<std::size_t> up_ptr(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t old_row = perm_[k];
    for (std::size_t p = row_ptr[old_row]; p < row_ptr[old_row + 1]; ++p) {
      if (inv_perm_[col_idx[p]] <= k) {
        ++up_ptr[k + 1];
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    up_ptr[k + 1] += up_ptr[k];
  }
  std::vector<std::size_t> up_idx(up_ptr[n]);
  std::vector<double> up_val(up_ptr[n]);
  {
    std::vector<std::size_t> fill = up_ptr;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t old_row = perm_[k];
      for (std::size_t p = row_ptr[old_row]; p < row_ptr[old_row + 1]; ++p) {
        const std::size_t i = inv_perm_[col_idx[p]];
        if (i <= k) {
          up_idx[fill[k]] = i;
          up_val[fill[k]] = values[p];
          ++fill[k];
        }
      }
    }
  }

  // Symbolic pass: elimination tree + exact per-column counts of L.
  std::vector<std::ptrdiff_t> parent(n, -1);
  std::vector<std::size_t> flag(n, n);  // n == "unmarked"
  std::vector<std::size_t> l_count(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    flag[k] = k;
    for (std::size_t p = up_ptr[k]; p < up_ptr[k + 1]; ++p) {
      std::size_t i = up_idx[p];
      if (i >= k) {
        continue;
      }
      while (flag[i] != k) {
        if (parent[i] < 0) {
          parent[i] = static_cast<std::ptrdiff_t>(k);
        }
        ++l_count[i];  // L(k, i) is structurally nonzero
        flag[i] = k;
        i = static_cast<std::size_t>(parent[i]);
      }
    }
  }

  l_col_ptr_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    l_col_ptr_[i + 1] = l_col_ptr_[i] + l_count[i];
  }
  l_row_idx_.assign(l_col_ptr_[n], 0);
  l_values_.assign(l_col_ptr_[n], 0.0);
  d_.assign(n, 0.0);

  // Numeric pass: up-looking factorization, one sparse triangular solve
  // per row k against the already-computed columns of L.
  std::vector<double> y(n, 0.0);
  std::vector<std::size_t> pattern(n);
  std::vector<std::size_t> l_next(l_col_ptr_.begin(), l_col_ptr_.end() - 1);
  flag.assign(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t top = n;
    flag[k] = k;
    for (std::size_t p = up_ptr[k]; p < up_ptr[k + 1]; ++p) {
      std::size_t i = up_idx[p];
      if (i > k) {
        continue;
      }
      y[i] += up_val[p];
      std::size_t len = 0;
      while (flag[i] != k) {
        pattern[len++] = i;
        flag[i] = k;
        i = static_cast<std::size_t>(parent[i]);
      }
      while (len > 0) {
        pattern[--top] = pattern[--len];
      }
    }
    d_[k] = y[k];
    y[k] = 0.0;
    for (; top < n; ++top) {
      const std::size_t i = pattern[top];
      const double yi = y[i];
      y[i] = 0.0;
      for (std::size_t p = l_col_ptr_[i]; p < l_next[i]; ++p) {
        y[l_row_idx_[p]] -= l_values_[p] * yi;
      }
      const double l_ki = yi / d_[i];
      d_[k] -= l_ki * yi;
      l_row_idx_[l_next[i]] = static_cast<std::uint32_t>(k);
      l_values_[l_next[i]] = l_ki;
      ++l_next[i];
    }
    if (!(d_[k] > 0.0)) {
      throw NumericalError("SparseLdlt::factorize: non-positive pivot at column " +
                           std::to_string(k) + " (matrix not SPD)");
    }
  }
  factorized_ = true;
}

void SparseLdlt::solve_into(const std::vector<double>& b, std::vector<double>& x) const {
  require(factorized(), "SparseLdlt::solve: factorize() first");
  require(b.size() == n_, "SparseLdlt::solve: rhs length mismatch");
  work_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    work_[k] = b[perm_[k]];
  }
  // L z = Pb (unit lower triangle).
  for (std::size_t j = 0; j < n_; ++j) {
    const double zj = work_[j];
    for (std::size_t p = l_col_ptr_[j]; p < l_col_ptr_[j + 1]; ++p) {
      work_[l_row_idx_[p]] -= l_values_[p] * zj;
    }
  }
  // D w = z.
  for (std::size_t j = 0; j < n_; ++j) {
    work_[j] /= d_[j];
  }
  // L^T y = w.
  for (std::size_t j = n_; j-- > 0;) {
    double yj = work_[j];
    for (std::size_t p = l_col_ptr_[j]; p < l_col_ptr_[j + 1]; ++p) {
      yj -= l_values_[p] * work_[l_row_idx_[p]];
    }
    work_[j] = yj;
  }
  x.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    x[perm_[k]] = work_[k];
  }
}

std::vector<double> SparseLdlt::solve(const std::vector<double>& b) const {
  std::vector<double> x;
  solve_into(b, x);
  return x;
}

std::vector<double> SparseLdlt::inverse_entries(const std::vector<std::size_t>& rows,
                                                const std::vector<std::size_t>& cols) const {
  constexpr std::size_t K = kRhsBlock;
  require(factorized(), "SparseLdlt::inverse_entries: factorize() first");
  for (const std::size_t i : rows) {
    require(i < n_, "SparseLdlt::inverse_entries: row index out of range");
  }
  // Nothing below the lowest wanted position is read, so the back pass
  // stops there.
  std::size_t stop = n_;
  for (const std::size_t i : cols) {
    require(i < n_, "SparseLdlt::inverse_entries: column index out of range");
    stop = std::min(stop, inv_perm_[i]);
  }
  const std::size_t n_cols = cols.size();
  std::vector<double> out(rows.size() * n_cols);
  if (out.empty()) {
    return out;
  }

  // Every lane repeats solve_into()'s arithmetic in its order (column j,
  // then entry p). Before a lane's unit entry its forward pass only
  // subtracts +-0 from +0, so starting the block at its lowest unit entry
  // changes no bit; unused lanes of a short last block stay zero. No
  // block touches a position below its lowest unit or wanted entry, so
  // the scratch holds only the positions from `base` up; at(i) points at
  // position i's K right-hand sides.
  std::size_t base = stop;
  for (const std::size_t i : rows) {
    base = std::min(base, inv_perm_[i]);
  }
  std::vector<double> w((n_ - base) * K);
  const auto at = [&](std::size_t i) { return &w[(i - base) * K]; };
  for (std::size_t b0 = 0; b0 < rows.size(); b0 += K) {
    const std::size_t lanes = std::min(K, rows.size() - b0);
    std::size_t start = n_;
    for (std::size_t r = 0; r < lanes; ++r) {
      start = std::min(start, inv_perm_[rows[b0 + r]]);
    }
    const std::size_t lo = std::min(start, stop);
    std::fill(w.begin() + static_cast<std::ptrdiff_t>((lo - base) * K), w.end(), 0.0);
    for (std::size_t r = 0; r < lanes; ++r) {
      at(inv_perm_[rows[b0 + r]])[r] = 1.0;
    }
    // L Z = P E (unit lower triangle).
    for (std::size_t j = start; j < n_; ++j) {
      double zj[K];
      std::copy_n(at(j), K, zj);
      for (std::size_t p = l_col_ptr_[j]; p < l_col_ptr_[j + 1]; ++p) {
        double* wi = at(l_row_idx_[p]);
        const double l = l_values_[p];
        for (std::size_t r = 0; r < K; ++r) {
          wi[r] -= l * zj[r];
        }
      }
    }
    // D W = Z.
    for (std::size_t j = stop; j < n_; ++j) {
      for (std::size_t r = 0; r < K; ++r) {
        at(j)[r] /= d_[j];
      }
    }
    // L^T Y = W, down to the lowest wanted position.
    for (std::size_t j = n_; j-- > stop;) {
      double yj[K];
      std::copy_n(at(j), K, yj);
      for (std::size_t p = l_col_ptr_[j]; p < l_col_ptr_[j + 1]; ++p) {
        const double* wi = at(l_row_idx_[p]);
        const double l = l_values_[p];
        for (std::size_t r = 0; r < K; ++r) {
          yj[r] -= l * wi[r];
        }
      }
      std::copy_n(yj, K, at(j));
    }
    for (std::size_t r = 0; r < lanes; ++r) {
      double* dst = &out[(b0 + r) * n_cols];
      for (std::size_t c = 0; c < n_cols; ++c) {
        dst[c] = at(inv_perm_[cols[c]])[r];
      }
    }
  }
  return out;
}

}  // namespace spinsim
