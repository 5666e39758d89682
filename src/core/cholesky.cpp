#include "core/cholesky.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "core/error.hpp"

namespace spinsim {

namespace {

/// Right-hand sides per pass of SparseLdlt::inverse_entries(), laid out
/// node-major (w[i * kRhsBlock + r]) so one sweep over L serves them all.
constexpr std::size_t kRhsBlock = 24;

/// nested_dissection() leaves parts of this many nodes or fewer unsplit.
/// On a 64x160 crossbar, leaves of 8 to 64 nodes cost about the same
/// factorisation work (sum of squared column counts within 6 %); 1,024
/// doubles the factor.
constexpr std::size_t kDissectionLeaf = 64;

}  // namespace

std::vector<std::size_t> nested_dissection(const CsrMatrix& a) {
  require(a.rows() == a.cols(), "nested_dissection: matrix must be square");
  const std::size_t n = a.rows();
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();

  // order[b, e) of every pending part is rewritten in place as
  // [near part | far part | separator], so once no part is left to split
  // the array is the elimination order.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::size_t> part(n, 0);  // id of the part being split; 0 = none
  std::vector<std::size_t> seen(n, 0);  // id of the search that reached a node
  std::vector<std::size_t> level(n, 0);
  std::vector<std::size_t> found;      // one search's nodes, level by level
  std::vector<std::size_t> level_end;  // found[level_end[l] - 1] ends level l
  std::vector<std::size_t> near;
  std::vector<std::size_t> far;
  std::vector<std::size_t> separator;
  std::size_t n_parts = 0;
  std::size_t n_searches = 0;

  // Breadth-first level structure of root's component within part `id`.
  const auto grow = [&](std::size_t root, std::size_t id) {
    const std::size_t search = ++n_searches;
    found.assign(1, root);
    level_end.clear();
    seen[root] = search;
    for (std::size_t head = 0; head < found.size();) {
      const std::size_t end = found.size();
      for (; head < end; ++head) {
        const std::size_t u = found[head];
        level[u] = level_end.size();
        for (std::size_t p = row_ptr[u]; p < row_ptr[u + 1]; ++p) {
          const std::size_t v = col_idx[p];
          if (part[v] == id && seen[v] != search) {
            seen[v] = search;
            found.push_back(v);
          }
        }
      }
      level_end.push_back(end);
    }
  };

  std::vector<std::pair<std::size_t, std::size_t>> pending = {{0, n}};
  while (!pending.empty()) {
    const auto [b, e] = pending.back();
    pending.pop_back();
    if (e - b <= kDissectionLeaf) {
      continue;  // a small part keeps the order it was found in
    }
    const std::size_t id = ++n_parts;
    for (std::size_t k = b; k < e; ++k) {
      part[order[k]] = id;
    }
    grow(order[b], id);
    if (found.size() < e - b) {
      // Disconnected: lay the components out one after another, each in
      // search order, and split each on its own.
      near.clear();
      for (std::size_t k = b; k < e; ++k) {
        if (part[order[k]] == id) {
          grow(order[k], id);
          pending.emplace_back(b + near.size(), b + near.size() + found.size());
          for (const std::size_t v : found) {
            part[v] = 0;
            near.push_back(v);
          }
        }
      }
      std::copy(near.begin(), near.end(), order.begin() + static_cast<std::ptrdiff_t>(b));
      continue;
    }

    // Pseudo-peripheral root (George and Liu): restart from the node of
    // the last level with the fewest neighbours in the part until the
    // structure stops getting deeper.
    for (std::size_t depth = level_end.size(); depth > 1; depth = level_end.size()) {
      std::size_t root = n;
      std::size_t root_degree = n;
      for (std::size_t q = level_end[depth - 2]; q < found.size(); ++q) {
        const std::size_t v = found[q];
        std::size_t degree = 0;
        for (std::size_t p = row_ptr[v]; p < row_ptr[v + 1]; ++p) {
          if (col_idx[p] != v && part[col_idx[p]] == id) {
            ++degree;
          }
        }
        if (degree < root_degree) {
          root = v;
          root_degree = degree;
        }
      }
      grow(root, id);
      if (level_end.size() <= depth) {
        break;
      }
    }
    const std::size_t depth = level_end.size();
    if (depth < 3) {
      continue;  // no level separates two others
    }

    // The middle level separates the levels before it from those after;
    // its nodes with no neighbour after it join the near part.
    std::size_t middle = 1;
    while (middle + 2 < depth && level_end[middle] <= (e - b) / 2) {
      ++middle;
    }
    near.clear();
    far.clear();
    separator.clear();
    for (const std::size_t v : found) {
      if (level[v] < middle) {
        near.push_back(v);
      } else if (level[v] > middle) {
        far.push_back(v);
      } else {
        bool touches_far = false;
        for (std::size_t p = row_ptr[v]; p < row_ptr[v + 1] && !touches_far; ++p) {
          const std::size_t w = col_idx[p];
          touches_far = part[w] == id && level[w] == middle + 1;
        }
        (touches_far ? separator : near).push_back(v);
      }
    }
    auto out = order.begin() + static_cast<std::ptrdiff_t>(b);
    out = std::copy(near.begin(), near.end(), out);
    out = std::copy(far.begin(), far.end(), out);
    std::copy(separator.begin(), separator.end(), out);
    pending.emplace_back(b, b + near.size());
    pending.emplace_back(b + near.size(), b + near.size() + far.size());
  }
  return order;
}

void SparseLdlt::factorize(const CsrMatrix& a, const LdltOptions& options) {
  require(a.rows() == a.cols(), "SparseLdlt::factorize: matrix must be square");
  const std::size_t n = a.rows();
  require(n <= std::numeric_limits<std::uint32_t>::max(),
          "SparseLdlt::factorize: dimension exceeds 32-bit row indices");
  n_ = n;
  factorized_ = false;  // stays false if a non-SPD pivot aborts below
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

  if (options.use_fill_reducing_ordering) {
    perm_ = nested_dissection(a);
  } else {
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      perm_[i] = i;
    }
  }
  inv_perm_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
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
  // changes no bit; unused lanes of a short last block stay zero.
  std::vector<double> w(n_ * K);
  for (std::size_t b0 = 0; b0 < rows.size(); b0 += K) {
    const std::size_t lanes = std::min(K, rows.size() - b0);
    std::size_t start = n_;
    for (std::size_t r = 0; r < lanes; ++r) {
      start = std::min(start, inv_perm_[rows[b0 + r]]);
    }
    const std::size_t lo = std::min(start, stop);
    std::fill(w.begin() + static_cast<std::ptrdiff_t>(lo * K), w.end(), 0.0);
    for (std::size_t r = 0; r < lanes; ++r) {
      w[inv_perm_[rows[b0 + r]] * K + r] = 1.0;
    }
    // L Z = P E (unit lower triangle).
    for (std::size_t j = start; j < n_; ++j) {
      double zj[K];
      std::copy_n(&w[j * K], K, zj);
      for (std::size_t p = l_col_ptr_[j]; p < l_col_ptr_[j + 1]; ++p) {
        double* wi = &w[std::size_t{l_row_idx_[p]} * K];
        const double l = l_values_[p];
        for (std::size_t r = 0; r < K; ++r) {
          wi[r] -= l * zj[r];
        }
      }
    }
    // D W = Z.
    for (std::size_t j = stop; j < n_; ++j) {
      for (std::size_t r = 0; r < K; ++r) {
        w[j * K + r] /= d_[j];
      }
    }
    // L^T Y = W, down to the lowest wanted position.
    for (std::size_t j = n_; j-- > stop;) {
      double yj[K];
      std::copy_n(&w[j * K], K, yj);
      for (std::size_t p = l_col_ptr_[j]; p < l_col_ptr_[j + 1]; ++p) {
        const double* wi = &w[std::size_t{l_row_idx_[p]} * K];
        const double l = l_values_[p];
        for (std::size_t r = 0; r < K; ++r) {
          yj[r] -= l * wi[r];
        }
      }
      std::copy_n(yj, K, &w[j * K]);
    }
    for (std::size_t r = 0; r < lanes; ++r) {
      double* dst = &out[(b0 + r) * n_cols];
      for (std::size_t c = 0; c < n_cols; ++c) {
        dst[c] = w[inv_perm_[cols[c]] * K + r];
      }
    }
  }
  return out;
}

}  // namespace spinsim
