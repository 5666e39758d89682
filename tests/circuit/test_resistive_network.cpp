#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "circuit/resistive_network.hpp"
#include "core/random.hpp"

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
  net.inject_current(n, 2e-3);
  net.solve();
  EXPECT_NEAR(net.voltage(n), 1.0, 1e-9);
}

TEST(ResistiveNetwork, PinCurrentBalancesInjection) {
  ResistiveNetwork net;
  const RNode n = net.add_node();
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  net.add_conductance(n, gnd, 1e-3);
  net.inject_current(n, 1e-3);
  net.solve();
  // Everything injected must exit through the pin.
  EXPECT_NEAR(net.pin_current(gnd), -1e-3, 1e-12);
}

TEST(ResistiveNetwork, ElementCurrentSign) {
  ResistiveNetwork net;
  const RNode a = net.add_node();
  const RNode b = net.add_node();
  net.fix_voltage(a, 1.0);
  net.fix_voltage(b, 0.0);
  net.add_conductance(a, b, 0.01);
  net.solve();
  EXPECT_NEAR(net.element_current(0), 0.01, 1e-12);  // flows a -> b
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
  net.clear_injections();
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
    fast.inject_current(fast_nodes[i], amps);
  }

  const DcSolution ref = solve_dc(mna);
  fast.solve();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fast.voltage(fast_nodes[i]), ref.voltage(mna_nodes[i]), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ResistiveVsMna, ::testing::Values(3, 10, 40, 120));

/// Builds a random grounded resistor network with injections; returns the
/// free node ids (same construction as ResistiveVsMna, without the MNA).
ResistiveNetwork random_grounded_network(std::size_t n, std::uint64_t seed,
                                         std::vector<RNode>* nodes_out) {
  Rng rng(seed);
  ResistiveNetwork net;
  std::vector<RNode> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(net.add_node());
  }
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    net.add_conductance(nodes[i], nodes[i + 1], 1.0 / rng.uniform(100.0, 10e3));
  }
  for (std::size_t k = 0; k < n; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    if (i != j) {
      net.add_conductance(nodes[i], nodes[j], 1.0 / rng.uniform(100.0, 10e3));
    }
  }
  for (std::size_t i = 0; i < n; i += 3) {
    net.add_conductance(nodes[i], gnd, 1.0 / rng.uniform(1e3, 50e3));
  }
  for (std::size_t i = 0; i < n; i += 2) {
    net.inject_current(nodes[i], rng.uniform(-1e-3, 1e-3));
  }
  if (nodes_out != nullptr) {
    *nodes_out = nodes;
  }
  return net;
}

/// Property: the direct LDL^T path agrees with tight-tolerance CG on
/// random grounded networks.
class FactoredVsCg : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactoredVsCg, VoltagesAgree) {
  const std::size_t n = GetParam();
  std::vector<RNode> nodes;
  ResistiveNetwork net = random_grounded_network(n, 900 + n, &nodes);

  CgOptions tight;
  tight.tolerance = 1e-13;
  net.solve_cg(tight);
  std::vector<double> v_cg(n);
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v_cg[i] = net.voltage(nodes[i]);
    scale = std::max(scale, std::abs(v_cg[i]));
  }

  net.solve_factored();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(net.voltage(nodes[i]), v_cg[i], 1e-9 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactoredVsCg, ::testing::Values(3, 10, 40, 120, 400));

TEST(ResistiveNetwork, SolverStrategyDispatch) {
  std::vector<RNode> nodes;
  ResistiveNetwork net = random_grounded_network(50, 42, &nodes);
  net.solve();  // default CG
  std::vector<double> v_cg(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    v_cg[i] = net.voltage(nodes[i]);
  }
  net.set_solver(SolverStrategy::kFactored);
  EXPECT_EQ(net.solver(), SolverStrategy::kFactored);
  net.solve();
  EXPECT_GT(net.factor_nnz(), 0u);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_NEAR(net.voltage(nodes[i]), v_cg[i], 1e-9);
  }
}

TEST(ResistiveNetwork, FactoredSolveTracksInjectionChanges) {
  ResistiveNetwork net;
  const RNode n = net.add_node();
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  net.add_conductance(n, gnd, 1e-3);
  net.set_injection(n, 1e-3);
  net.solve_factored();
  EXPECT_NEAR(net.voltage(n), 1.0, 1e-12);
  net.set_injection(n, 3e-3);
  net.solve_factored();
  EXPECT_NEAR(net.voltage(n), 3.0, 1e-12);
}

TEST(ResistiveNetwork, FactoredSolveTracksStructureChanges) {
  ResistiveNetwork net;
  const RNode n = net.add_node();
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  net.add_conductance(n, gnd, 1e-3);
  net.inject_current(n, 1e-3);
  net.solve_factored();
  EXPECT_NEAR(net.voltage(n), 1.0, 1e-12);
  net.add_conductance(n, gnd, 1e-3);  // refactorizes on the next solve
  net.solve_factored();
  EXPECT_NEAR(net.voltage(n), 0.5, 1e-12);
}

TEST(ResistiveNetwork, InfluenceMatchesFiniteDifference) {
  // Every entry dv(observe[j])/dI(inject[c]) of the influence block must
  // equal the voltage change per unit injected current measured by two
  // solves.
  std::vector<RNode> nodes;
  ResistiveNetwork net = random_grounded_network(30, 77, &nodes);
  const std::vector<RNode> observe = {nodes[7], nodes[2]};
  const std::vector<RNode> poke = {nodes[19], nodes[7], nodes[0]};
  const std::vector<double> w = net.influence(observe, poke);
  ASSERT_EQ(w.size(), observe.size() * poke.size());

  const double delta = 1e-6;
  for (std::size_t c = 0; c < poke.size(); ++c) {
    net.solve_factored();
    std::vector<double> v0;
    for (const RNode o : observe) {
      v0.push_back(net.voltage(o));
    }
    net.inject_current(poke[c], delta);
    net.solve_factored();
    for (std::size_t j = 0; j < observe.size(); ++j) {
      const double dv_di = (net.voltage(observe[j]) - v0[j]) / delta;
      const double wjc = w[j * poke.size() + c];
      EXPECT_NEAR(wjc, dv_di, 1e-6 * std::abs(wjc) + 1e-15) << "j = " << j << ", c = " << c;
    }
    net.inject_current(poke[c], -delta);
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
  // Querying voltages/currents after a mutation must force a re-solve
  // (the stale per-node element index would otherwise be read out of
  // bounds for a node added after the last solve).
  ResistiveNetwork net;
  const RNode n = net.add_node();
  const RNode gnd = net.add_node();
  net.fix_voltage(gnd, 0.0);
  net.add_conductance(n, gnd, 1e-3);
  net.solve();
  const RNode late = net.add_node();
  net.fix_voltage(late, 1.0);
  EXPECT_THROW(net.pin_current(late), InvalidArgument);
  EXPECT_THROW(net.voltage(late), InvalidArgument);
  net.add_conductance(late, n, 1e-3);
  net.solve();
  EXPECT_NO_THROW(net.pin_current(late));
}

TEST(ResistiveNetwork, PinCurrentWithManyPins) {
  // Two pins share the delivered current; the incident-element index must
  // attribute each branch to the right pin.
  ResistiveNetwork net;
  const RNode mid = net.add_node();
  const RNode hi = net.add_node();
  const RNode lo = net.add_node();
  net.fix_voltage(hi, 1.0);
  net.fix_voltage(lo, 0.0);
  net.add_conductance(hi, mid, 1e-3);
  net.add_conductance(mid, lo, 1e-3);
  net.solve();
  EXPECT_NEAR(net.pin_current(hi), 0.5e-3, 1e-12);
  EXPECT_NEAR(net.pin_current(lo), -0.5e-3, 1e-12);
}

TEST(ResistiveNetwork, LargeGridSolves) {
  // 50x50 resistor grid, edges pinned: a smoke test of CG at scale.
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

}  // namespace
}  // namespace spinsim
