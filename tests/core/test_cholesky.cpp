#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "core/cholesky.hpp"
#include "core/error.hpp"
#include "core/random.hpp"
#include "core/sparse.hpp"
#include "support/cg.hpp"

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

/// A deterministic shuffle of 0..n-1.
std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(seed);
  for (std::size_t k = n; k > 1; --k) {
    std::swap(order[k - 1],
              order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
  }
  return order;
}

TEST(SparseLdlt, ExplicitOrderMatchesNaturalOrder) {
  const CsrMatrix a = random_spd(50, 21);
  Rng rng(22);
  std::vector<double> b(50);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  SparseLdlt natural;
  natural.factorize(a);
  SparseLdlt shuffled;
  shuffled.factorize(a, shuffled_order(50, 23));
  const std::vector<double> x0 = natural.solve(b);
  const std::vector<double> x1 = shuffled.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(x0[i], x1[i], 1e-10 * (std::abs(x0[i]) + 1.0));
  }
}

TEST(SparseLdlt, FactorizeRejectsAnOrderThatIsNotAPermutation) {
  const CsrMatrix a = random_spd(6, 24);
  SparseLdlt ldlt;
  ldlt.factorize(a);
  const std::vector<std::vector<std::size_t>> bad = {
      {0, 1, 2, 3, 4, 4},     // repeats a node and misses one
      {0, 1, 2, 3, 4},        // misses a node
      {0, 1, 2, 3, 4, 5, 0},  // repeats a node
      {0, 1, 2, 3, 4, 6},     // names a node that does not exist
  };
  for (const auto& order : bad) {
    EXPECT_THROW(ldlt.factorize(a, order), InvalidArgument);
    EXPECT_FALSE(ldlt.factorized());
  }
  ldlt.factorize(a, {5, 4, 3, 2, 1, 0});
  EXPECT_TRUE(ldlt.factorized());
}

TEST(SparseLdlt, InverseEntriesMatchSolveBitForBit) {
  for (const bool shuffle : {false, true}) {
    for (const std::size_t n : {3u, 17u, 60u, 200u}) {
      const CsrMatrix a = random_spd(n, 500 + n);
      std::vector<std::size_t> perm(n);
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      if (shuffle) {
        perm = shuffled_order(n, 700 + n);
      }
      SparseLdlt ldlt;
      ldlt.factorize(a, shuffle ? perm : std::vector<std::size_t>{});

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
      // Rows and columns all in the upper half, as the crossbar's
      // boundary nodes are, so the scratch starts above position 0.
      std::vector<std::size_t> high_rows(high_cols.rbegin(), high_cols.rend());

      for (const auto* row_set : {&rows, &high_rows}) {
        for (const auto* cols : {&all_cols, &high_cols}) {
          const std::vector<double> block = ldlt.inverse_entries(*row_set, *cols);
          ASSERT_EQ(block.size(), row_set->size() * cols->size());
          for (std::size_t j = 0; j < row_set->size(); ++j) {
            std::vector<double> e(n, 0.0);
            e[(*row_set)[j]] = 1.0;
            const std::vector<double> x = ldlt.solve(e);
            for (std::size_t c = 0; c < cols->size(); ++c) {
              EXPECT_EQ(block[j * cols->size() + c], x[(*cols)[c]])
                  << "n = " << n << (shuffle ? " shuffled" : " natural") << ", row "
                  << (*row_set)[j] << ", col " << (*cols)[c];
            }
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

}  // namespace
}  // namespace spinsim
