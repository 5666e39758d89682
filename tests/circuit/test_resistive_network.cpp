#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "circuit/resistive_network.hpp"
#include "core/random.hpp"
#include "core/sparse.hpp"
#include "crossbar/rcm.hpp"
#include "support/cg.hpp"
#include "support/mna.hpp"

namespace spinsim {
namespace {

TEST(ResistiveNetwork, SimpleDivider) {
  ResistiveNetwork net;
  const RNode top = net.add_node();
  const RNode mid = net.add_node();
  const RNode bot = net.add_node();
  net.fix_voltage(top, 1.0);
  net.fix_voltage(bot, 0.0);
  net.add_conductance(top, mid, 1.0 / 1e3);
  net.add_conductance(mid, bot, 1.0 / 3e3);
  net.solve();
  EXPECT_NEAR(net.voltage(mid), 0.75, 1e-9);
}

TEST(ResistiveNetwork, CurrentInjection) {
  ResistiveNetwork net;
  const RNode n = net.add_node();
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  net.add_conductance(n, gnd, 1.0 / 500.0);
  net.set_injection(n, 2e-3);
  net.solve();
  EXPECT_NEAR(net.voltage(n), 1.0, 1e-9);
}

TEST(ResistiveNetwork, RequiresAPin) {
  ResistiveNetwork net;
  const RNode a = net.add_node();
  const RNode b = net.add_node();
  net.add_conductance(a, b, 1.0);
  EXPECT_THROW(net.solve(), InvalidArgument);
}

TEST(ResistiveNetwork, InjectionUpdatesWithoutRebuild) {
  ResistiveNetwork net;
  const RNode n = net.add_node();
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  net.add_conductance(n, gnd, 1e-3);
  net.set_injection(n, 1e-3);
  net.solve();
  EXPECT_NEAR(net.voltage(n), 1.0, 1e-9);
  net.set_injection(n, 3e-3);
  net.solve();
  EXPECT_NEAR(net.voltage(n), 3.0, 1e-9);
  net.set_injection(n, 0.0);
  net.solve();
  EXPECT_NEAR(net.voltage(n), 0.0, 1e-9);
}

TEST(ResistiveNetwork, MultipleDirichletLevels) {
  // Node between 2 V and 1 V rails through equal conductances sits at 1.5 V.
  ResistiveNetwork net;
  const RNode hi = net.add_node();
  const RNode lo = net.add_node();
  const RNode mid = net.add_node();
  net.fix_voltage(hi, 2.0);
  net.fix_voltage(lo, 1.0);
  net.add_conductance(hi, mid, 1e-3);
  net.add_conductance(lo, mid, 1e-3);
  net.solve();
  EXPECT_NEAR(net.voltage(mid), 1.5, 1e-9);
}

/// Property: the reduced-system solve agrees with the dense MNA on random
/// grounded resistor networks.
class ResistiveVsMna : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ResistiveVsMna, VoltagesAgree) {
  const std::size_t n = GetParam();
  Rng rng(500 + n);

  Netlist mna;
  ResistiveNetwork fast;
  std::vector<NodeId> mna_nodes;
  std::vector<RNode> fast_nodes;
  for (std::size_t i = 0; i < n; ++i) {
    mna_nodes.push_back(mna.add_node());
    fast_nodes.push_back(fast.add_node());
  }
  const RNode fast_gnd = fast.add_node();
  fast.fix_voltage(fast_gnd, 0.0);

  // Random connected-ish topology: chain + random chords + ground leaks.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double r = rng.uniform(100.0, 10e3);
    mna.add_resistor(mna_nodes[i], mna_nodes[i + 1], r);
    fast.add_conductance(fast_nodes[i], fast_nodes[i + 1], 1.0 / r);
  }
  for (std::size_t k = 0; k < n; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    if (i == j) {
      continue;
    }
    const double r = rng.uniform(100.0, 10e3);
    mna.add_resistor(mna_nodes[i], mna_nodes[j], r);
    fast.add_conductance(fast_nodes[i], fast_nodes[j], 1.0 / r);
  }
  for (std::size_t i = 0; i < n; i += 3) {
    const double r = rng.uniform(1e3, 50e3);
    mna.add_resistor(mna_nodes[i], kGround, r);
    fast.add_conductance(fast_nodes[i], fast_gnd, 1.0 / r);
  }
  // Random current injections.
  for (std::size_t i = 0; i < n; i += 2) {
    const double amps = rng.uniform(-1e-3, 1e-3);
    mna.add_current_source(kGround, mna_nodes[i], amps);
    fast.set_injection(fast_nodes[i], amps);
  }

  const DcSolution ref = solve_dc(mna);
  fast.solve();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fast.voltage(fast_nodes[i]), ref.voltage(mna_nodes[i]), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ResistiveVsMna, ::testing::Values(3, 10, 40, 120, 400));

/// Builds a random grounded resistor network with injections; returns the
/// free node ids and, optionally, each one's injection and the n x n
/// conductance matrix of the free nodes, stamped here without
/// ResistiveNetwork (same construction as ResistiveVsMna, without the MNA).
ResistiveNetwork random_grounded_network(std::size_t n, std::uint64_t seed,
                                         std::vector<RNode>* nodes_out,
                                         std::vector<double>* injections_out = nullptr,
                                         CsrMatrix* laplacian_out = nullptr) {
  Rng rng(seed);
  ResistiveNetwork net;
  CooBuilder laplacian(n, n);
  std::vector<RNode> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(net.add_node());
  }
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  const auto between = [&](std::size_t i, std::size_t j, double g) {
    net.add_conductance(nodes[i], nodes[j], g);
    laplacian.add(i, i, g);
    laplacian.add(j, j, g);
    laplacian.add(i, j, -g);
    laplacian.add(j, i, -g);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    between(i, i + 1, 1.0 / rng.uniform(100.0, 10e3));
  }
  for (std::size_t k = 0; k < n; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    if (i != j) {
      between(i, j, 1.0 / rng.uniform(100.0, 10e3));
    }
  }
  for (std::size_t i = 0; i < n; i += 3) {
    const double g = 1.0 / rng.uniform(1e3, 50e3);
    net.add_conductance(nodes[i], gnd, g);
    laplacian.add(i, i, g);
  }
  std::vector<double> injections(n, 0.0);
  for (std::size_t i = 0; i < n; i += 2) {
    injections[i] = rng.uniform(-1e-3, 1e-3);
    net.set_injection(nodes[i], injections[i]);
  }
  if (nodes_out != nullptr) {
    *nodes_out = nodes;
  }
  if (injections_out != nullptr) {
    *injections_out = injections;
  }
  if (laplacian_out != nullptr) {
    *laplacian_out = laplacian.compress();
  }
  return net;
}

/// Property: the direct LDL^T solve agrees with tight-tolerance CG on the
/// same random grounded networks' conductance matrices.
class FactoredVsCg : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactoredVsCg, VoltagesAgree) {
  const std::size_t n = GetParam();
  std::vector<RNode> nodes;
  std::vector<double> injections;
  CsrMatrix laplacian;
  ResistiveNetwork net = random_grounded_network(n, 900 + n, &nodes, &injections, &laplacian);

  CgOptions tight;
  tight.tolerance = 1e-13;
  const CgResult cg = conjugate_gradient(laplacian, injections, tight);
  ASSERT_TRUE(cg.converged) << "residual " << cg.residual;
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    scale = std::max(scale, std::abs(cg.x[i]));
  }

  net.solve();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(net.voltage(nodes[i]), cg.x[i], 1e-9 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactoredVsCg, ::testing::Values(3, 10, 40, 120, 400));

TEST(ResistiveNetwork, FactoredSolveTracksInjectionChanges) {
  ResistiveNetwork net;
  const RNode n = net.add_node();
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  net.add_conductance(n, gnd, 1e-3);
  net.set_injection(n, 1e-3);
  net.solve();
  EXPECT_NEAR(net.voltage(n), 1.0, 1e-12);
  net.set_injection(n, 3e-3);
  net.solve();
  EXPECT_NEAR(net.voltage(n), 3.0, 1e-12);
}

TEST(ResistiveNetwork, FactoredSolveTracksStructureChanges) {
  ResistiveNetwork net;
  const RNode n = net.add_node();
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  net.add_conductance(n, gnd, 1e-3);
  net.set_injection(n, 1e-3);
  net.solve();
  EXPECT_NEAR(net.voltage(n), 1.0, 1e-12);
  net.add_conductance(n, gnd, 1e-3);  // refactorizes on the next solve
  net.solve();
  EXPECT_NEAR(net.voltage(n), 0.5, 1e-12);
}

TEST(ResistiveNetwork, InfluenceMatchesFiniteDifference) {
  // Every entry dv(observe[j])/dI(inject[c]) of the influence block must
  // equal the voltage change per unit injected current measured by two
  // solves.
  std::vector<RNode> nodes;
  std::vector<double> injections;
  ResistiveNetwork net = random_grounded_network(30, 77, &nodes, &injections);
  const std::vector<RNode> observe = {nodes[7], nodes[2]};
  const std::vector<std::size_t> poked = {19, 7, 0};
  std::vector<RNode> poke;
  for (const std::size_t k : poked) {
    poke.push_back(nodes[k]);
  }
  const std::vector<double> w = net.influence(observe, poke);
  ASSERT_EQ(w.size(), observe.size() * poke.size());

  const double delta = 1e-6;
  for (std::size_t c = 0; c < poke.size(); ++c) {
    net.solve();
    std::vector<double> v0;
    for (const RNode o : observe) {
      v0.push_back(net.voltage(o));
    }
    net.set_injection(poke[c], injections[poked[c]] + delta);
    net.solve();
    for (std::size_t j = 0; j < observe.size(); ++j) {
      const double dv_di = (net.voltage(observe[j]) - v0[j]) / delta;
      const double wjc = w[j * poke.size() + c];
      EXPECT_NEAR(wjc, dv_di, 1e-6 * std::abs(wjc) + 1e-15) << "j = " << j << ", c = " << c;
    }
    net.set_injection(poke[c], injections[poked[c]]);
  }
}

TEST(ResistiveNetwork, InfluenceOfPinnedNodeIsZero) {
  ResistiveNetwork net;
  const RNode n = net.add_node();
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  net.add_conductance(n, gnd, 1e-3);
  // Rows observe {gnd, n}, columns inject into {n, gnd}: only (n, n) is
  // free at both ends.
  const std::vector<double> w = net.influence({gnd, n}, {n, gnd});
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[0], 0.0);
  EXPECT_EQ(w[1], 0.0);
  EXPECT_NEAR(w[2], 1e3, 1e-9);  // 1 / g
  EXPECT_EQ(w[3], 0.0);
}

TEST(ResistiveNetwork, StructureChangeInvalidatesSolution) {
  // Querying voltages after a mutation must force a re-solve (the stale
  // solution would otherwise be read out of bounds for a node added after
  // the last solve).
  ResistiveNetwork net;
  const RNode n = net.add_node();
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  net.add_conductance(n, gnd, 1e-3);
  net.solve();
  const RNode late = net.add_node();
  net.fix_voltage(late, 1.0);
  EXPECT_THROW(net.voltage(late), InvalidArgument);
  net.add_conductance(late, n, 1e-3);
  net.solve();
  EXPECT_NEAR(net.voltage(n), 0.5, 1e-12);
}

TEST(ResistiveNetwork, LargeGridSolves) {
  // 50x50 resistor grid, corners pinned: a smoke test of the solve at scale.
  ResistiveNetwork net;
  const std::size_t n = 50;
  const RNode base = net.add_nodes(n * n);
  const auto node = [&](std::size_t r, std::size_t c) { return base + r * n + c; };
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c + 1 < n) {
        net.add_conductance(node(r, c), node(r, c + 1), 1e-3);
      }
      if (r + 1 < n) {
        net.add_conductance(node(r, c), node(r + 1, c), 1e-3);
      }
    }
  }
  net.fix_voltage(node(0, 0), 1.0);
  net.fix_voltage(node(n - 1, n - 1), 0.0);
  net.solve();
  // Interior voltages must lie strictly between the rails (maximum principle).
  const double v_mid = net.voltage(node(n / 2, n / 2));
  EXPECT_GT(v_mid, 0.0);
  EXPECT_LT(v_mid, 1.0);
  EXPECT_NEAR(v_mid, 0.5, 0.05);  // symmetric grid
}

/// Free-node voltages of `net` after one solve.
std::vector<double> solved_voltages(ResistiveNetwork& net, const std::vector<RNode>& nodes) {
  net.solve();
  std::vector<double> v;
  for (const RNode node : nodes) {
    v.push_back(net.voltage(node));
  }
  return v;
}

/// Largest |a - b| over the largest |b|.
double max_relative_deviation(const std::vector<double>& a, const std::vector<double>& b) {
  double scale = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    scale = std::max(scale, std::abs(b[i]));
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst / scale;
}

// The elimination-order contract of set_elimination_order(), on a random
// 40-node network whose node 40 is the pinned ground.
constexpr std::size_t kOrderNodes = 40;

TEST(ResistiveNetwork, EliminationOrderGivesTheNaturalOrdersVoltages) {
  std::vector<RNode> nodes;
  ResistiveNetwork natural = random_grounded_network(kOrderNodes, 31, &nodes);
  const std::vector<double> expected = solved_voltages(natural, nodes);

  // Reversed; interleaved from both ends; reversed with the ground pin
  // listed first, in the middle and last, where it is skipped.
  const RNode gnd = kOrderNodes;
  std::vector<RNode> reversed(nodes.rbegin(), nodes.rend());
  std::vector<RNode> interleaved;
  for (std::size_t k = 0; k < kOrderNodes / 2; ++k) {
    interleaved.push_back(nodes[k]);
    interleaved.push_back(nodes[kOrderNodes - 1 - k]);
  }
  std::vector<RNode> with_pins = reversed;
  with_pins.insert(with_pins.begin() + static_cast<std::ptrdiff_t>(kOrderNodes / 2), gnd);
  with_pins.insert(with_pins.begin(), gnd);
  with_pins.push_back(gnd);
  for (const auto* order : {&reversed, &interleaved, &with_pins}) {
    ResistiveNetwork net = random_grounded_network(kOrderNodes, 31, nullptr);
    net.set_elimination_order(*order);
    EXPECT_LT(max_relative_deviation(solved_voltages(net, nodes), expected), 1e-12);
  }
}

TEST(ResistiveNetwork, EliminationOrderRejectsABadOrder) {
  std::vector<RNode> nodes;
  ResistiveNetwork net = random_grounded_network(kOrderNodes, 34, &nodes);
  std::vector<RNode> unknown = nodes;
  unknown.push_back(kOrderNodes + 1);  // one past the ground node
  std::vector<RNode> missing(nodes.begin() + 1, nodes.end());
  std::vector<RNode> repeated = nodes;
  repeated.push_back(nodes[5]);
  // As long as the node list, but node 5 twice and node 9 never.
  std::vector<RNode> swapped = nodes;
  swapped[9] = nodes[5];
  for (const auto* order : {&unknown, &missing, &repeated, &swapped}) {
    net.set_elimination_order(*order);
    EXPECT_THROW(net.solve(), InvalidArgument);
  }
  // A valid order afterwards factors and solves as usual.
  net.set_elimination_order(nodes);
  EXPECT_NO_THROW(net.solve());
}

TEST(ResistiveNetwork, CrossbarFactorStaysSparse) {
  // The parasitic 64x160 crossbar in RcmArray::build_parasitic_network's
  // layout: row bars driven from the left edge, column bars ending in a
  // pinned termination, a memristor at every crosspoint, and a dummy
  // device from each row's far end to a pinned dummy bar. A banded order
  // leaves 2,253,506 factor entries and a dissection of the graph alone
  // 702,151; the crossbar's own grid dissection about half that.
  const std::size_t rows = 64;
  const std::size_t cols = 160;
  const double g_seg = 1.0 / 2.5;
  Rng rng(61);
  ResistiveNetwork net;
  const RNode row_base = net.add_nodes(rows * cols);
  const RNode col_base = net.add_nodes(rows * cols);
  const auto row_node = [&](std::size_t i, std::size_t j) { return row_base + i * cols + j; };
  const auto col_node = [&](std::size_t i, std::size_t j) { return col_base + i * cols + j; };
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j + 1 < cols; ++j) {
      net.add_conductance(row_node(i, j), row_node(i, j + 1), g_seg);
    }
  }
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i + 1 < rows; ++i) {
      net.add_conductance(col_node(i, j), col_node(i + 1, j), g_seg);
    }
    const RNode term = net.add_node();
    net.fix_voltage(term, 0.0);
    net.add_conductance(col_node(rows - 1, j), term, g_seg);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      net.add_conductance(row_node(i, j), col_node(i, j), 1.0 / rng.uniform(1e3, 32e3));
    }
  }
  const RNode dummy_bar = net.add_node();
  net.fix_voltage(dummy_bar, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    net.add_conductance(row_node(i, cols - 1), dummy_bar, 1.0 / rng.uniform(1e3, 32e3));
  }
  net.set_elimination_order(crossbar_elimination_order(rows, cols));
  net.solve();
  EXPECT_LE(net.factor_nnz(), 450'000u);
}

}  // namespace
}  // namespace spinsim
