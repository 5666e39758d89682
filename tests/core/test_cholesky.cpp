#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/cg.hpp"
#include "core/cholesky.hpp"
#include "core/error.hpp"
#include "core/random.hpp"
#include "core/sparse.hpp"

namespace spinsim {
namespace {

/// Random grounded-network style SPD matrix: graph Laplacian of a random
/// connected graph plus positive ground leaks on some nodes (exactly the
/// structure ResistiveNetwork reduces to).
CsrMatrix random_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CooBuilder builder(n, n);
  const auto stamp = [&](std::size_t a, std::size_t b, double g) {
    builder.add(a, a, g);
    builder.add(b, b, g);
    builder.add(a, b, -g);
    builder.add(b, a, -g);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    stamp(i, i + 1, rng.uniform(1e-4, 1e-2));
  }
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (i != j) {
      stamp(i, j, rng.uniform(1e-4, 1e-2));
    }
  }
  for (std::size_t i = 0; i < n; i += 2) {
    builder.add(i, i, rng.uniform(1e-5, 1e-3));  // ground leak keeps it PD
  }
  return builder.compress();
}

TEST(SparseLdlt, SolvesKnownSystem) {
  // [4 1; 1 3] x = [1; 2] -> x = [1/11; 7/11].
  CooBuilder builder(2, 2);
  builder.add(0, 0, 4.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 3.0);
  SparseLdlt ldlt;
  ldlt.factorize(builder.compress());
  const std::vector<double> x = ldlt.solve({1.0, 2.0});
  EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-14);
  EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-14);
}

TEST(SparseLdlt, ResidualIsTinyOnRandomNetworks) {
  for (const std::size_t n : {3u, 17u, 60u, 200u}) {
    const CsrMatrix a = random_spd(n, 1000 + n);
    Rng rng(n);
    std::vector<double> b(n);
    for (auto& v : b) {
      v = rng.uniform(-1e-3, 1e-3);
    }
    SparseLdlt ldlt;
    ldlt.factorize(a);
    const std::vector<double> x = ldlt.solve(b);
    const std::vector<double> ax = a.multiply(x);
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      num += (ax[i] - b[i]) * (ax[i] - b[i]);
      den += b[i] * b[i];
    }
    EXPECT_LT(num, 1e-24 * den) << "n = " << n;
  }
}

TEST(SparseLdlt, AgreesWithCg) {
  const std::size_t n = 120;
  const CsrMatrix a = random_spd(n, 7);
  Rng rng(8);
  std::vector<double> b(n);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  SparseLdlt ldlt;
  ldlt.factorize(a);
  const std::vector<double> x_direct = ldlt.solve(b);

  CgOptions options;
  options.tolerance = 1e-13;
  const CgResult cg = conjugate_gradient(a, b, options);
  ASSERT_TRUE(cg.converged);
  double scale = 0.0;
  for (const double v : cg.x) {
    scale = std::max(scale, std::abs(v));
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_direct[i], cg.x[i], 1e-8 * scale);
  }
}

TEST(SparseLdlt, NoOrderingMatchesRcmOrdering) {
  const CsrMatrix a = random_spd(50, 21);
  Rng rng(22);
  std::vector<double> b(50);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  SparseLdlt natural;
  LdltOptions no_perm;
  no_perm.use_rcm_ordering = false;
  natural.factorize(a, no_perm);
  SparseLdlt rcm;
  rcm.factorize(a);
  const std::vector<double> x0 = natural.solve(b);
  const std::vector<double> x1 = rcm.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(x0[i], x1[i], 1e-10 * (std::abs(x0[i]) + 1.0));
  }
}

TEST(SparseLdlt, InverseEntriesMatchSolveBitForBit) {
  for (const bool use_rcm : {true, false}) {
    for (const std::size_t n : {3u, 17u, 60u, 200u}) {
      const CsrMatrix a = random_spd(n, 500 + n);
      SparseLdlt ldlt;
      LdltOptions options;
      options.use_rcm_ordering = use_rcm;
      ldlt.factorize(a, options);
      const std::vector<std::size_t>& perm = ldlt.permutation();

      // Unsorted rows holding the first and last permuted positions and a
      // duplicate; 41 rows (prime) leave a short last block for any block
      // size, and fewer rows than a block on the small systems.
      std::vector<std::size_t> rows = {perm.back(), perm.front()};
      for (std::size_t k = 0; rows.size() < std::min<std::size_t>(n, 40); ++k) {
        rows.push_back((7 * k + 3) % n);
      }
      rows.push_back(perm.back());
      // Every column, so nothing is pruned from the back pass, then only
      // the upper half of the permuted order, descending, so it is.
      std::vector<std::size_t> all_cols(n);
      std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});
      std::vector<std::size_t> high_cols;
      for (std::size_t k = n; k-- > n / 2;) {
        high_cols.push_back(perm[k]);
      }

      for (const auto* cols : {&all_cols, &high_cols}) {
        const std::vector<double> block = ldlt.inverse_entries(rows, *cols);
        ASSERT_EQ(block.size(), rows.size() * cols->size());
        for (std::size_t j = 0; j < rows.size(); ++j) {
          std::vector<double> e(n, 0.0);
          e[rows[j]] = 1.0;
          const std::vector<double> x = ldlt.solve(e);
          for (std::size_t c = 0; c < cols->size(); ++c) {
            EXPECT_EQ(block[j * cols->size() + c], x[(*cols)[c]])
                << "n = " << n << (use_rcm ? " rcm" : " natural") << ", row " << rows[j]
                << ", col " << (*cols)[c];
          }
        }
      }
      EXPECT_THROW(ldlt.inverse_entries({n}, {0}), InvalidArgument);
      EXPECT_THROW(ldlt.inverse_entries({0}, {n}), InvalidArgument);
    }
  }
  SparseLdlt unfactorized;
  EXPECT_THROW(unfactorized.inverse_entries({0}, {0}), InvalidArgument);
}

TEST(SparseLdlt, ThrowsOnIndefinite) {
  CooBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 2.0);
  builder.add(1, 1, 1.0);  // eigenvalues 3, -1
  SparseLdlt ldlt;
  EXPECT_THROW(ldlt.factorize(builder.compress()), NumericalError);
}

TEST(SparseLdlt, SolveBeforeFactorizeThrows) {
  SparseLdlt ldlt;
  EXPECT_THROW(ldlt.solve({1.0}), InvalidArgument);
}

TEST(ReverseCuthillMckee, IsAPermutation) {
  const CsrMatrix a = random_spd(80, 33);
  const std::vector<std::size_t> perm = reverse_cuthill_mckee(a);
  ASSERT_EQ(perm.size(), 80u);
  std::vector<char> seen(80, 0);
  for (const std::size_t p : perm) {
    ASSERT_LT(p, 80u);
    EXPECT_FALSE(seen[p]);
    seen[p] = 1;
  }
}

TEST(ReverseCuthillMckee, ReducesBandwidthOfAGrid) {
  // 2D 12x12 grid Laplacian numbered in a scrambled order: RCM should
  // recover a bandwidth close to the grid width, far below n.
  const std::size_t side = 12;
  const std::size_t n = side * side;
  Rng rng(4);
  std::vector<std::size_t> shuffled(n);
  for (std::size_t i = 0; i < n; ++i) {
    shuffled[i] = i;
  }
  rng.shuffle(shuffled);
  CooBuilder builder(n, n);
  const auto stamp = [&](std::size_t a, std::size_t b) {
    builder.add(shuffled[a], shuffled[b], -1.0);
    builder.add(shuffled[b], shuffled[a], -1.0);
    builder.add(shuffled[a], shuffled[a], 1.0);
    builder.add(shuffled[b], shuffled[b], 1.0);
  };
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      if (c + 1 < side) {
        stamp(r * side + c, r * side + c + 1);
      }
      if (r + 1 < side) {
        stamp(r * side + c, (r + 1) * side + c);
      }
    }
  }
  const CsrMatrix a = builder.compress();
  const std::vector<std::size_t> perm = reverse_cuthill_mckee(a);
  std::vector<std::size_t> inv(n);
  for (std::size_t k = 0; k < n; ++k) {
    inv[perm[k]] = k;
  }
  std::size_t bandwidth = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = a.row_ptr()[i]; p < a.row_ptr()[i + 1]; ++p) {
      const std::size_t j = a.col_idx()[p];
      const std::size_t d = inv[i] > inv[j] ? inv[i] - inv[j] : inv[j] - inv[i];
      bandwidth = std::max(bandwidth, d);
    }
  }
  EXPECT_LE(bandwidth, 3 * side);  // scrambled order would be ~n
}

}  // namespace
}  // namespace spinsim
