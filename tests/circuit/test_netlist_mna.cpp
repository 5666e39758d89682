#include <gtest/gtest.h>

#include "core/units.hpp"
#include "support/mna.hpp"
#include "support/netlist.hpp"

namespace spinsim {
namespace {

TEST(Netlist, NodeAllocation) {
  Netlist net;
  EXPECT_EQ(net.node_count(), 1u);  // ground
  const NodeId a = net.add_node("a");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(net.node_label(a), "a");
  EXPECT_EQ(net.node_label(kGround), "gnd");
}

TEST(Netlist, RejectsBadElements) {
  Netlist net;
  const NodeId a = net.add_node();
  EXPECT_THROW(net.add_resistor(a, a, 1.0), InvalidArgument);
  EXPECT_THROW(net.add_resistor(a, kGround, 0.0), InvalidArgument);
  EXPECT_THROW(net.add_resistor(a, 99, 1.0), InvalidArgument);
  EXPECT_THROW(net.add_capacitor(a, kGround, -1e-15), InvalidArgument);
}

TEST(Mna, VoltageDivider) {
  Netlist net;
  const NodeId top = net.add_node("top");
  const NodeId mid = net.add_node("mid");
  net.add_voltage_source(top, kGround, 1.0);
  net.add_resistor(top, mid, 1e3);
  net.add_resistor(mid, kGround, 3e3);
  const DcSolution sol = solve_dc(net);
  EXPECT_NEAR(sol.voltage(mid), 0.75, 1e-12);
}

TEST(Mna, CurrentSourceIntoResistor) {
  Netlist net;
  const NodeId n = net.add_node();
  net.add_current_source(kGround, n, 2e-3);  // 2 mA into n
  net.add_resistor(n, kGround, 500.0);
  const DcSolution sol = solve_dc(net);
  EXPECT_NEAR(sol.voltage(n), 1.0, 1e-12);
}

TEST(Mna, VoltageSourceCurrentReadback) {
  Netlist net;
  const NodeId a = net.add_node();
  const std::size_t src = net.add_voltage_source(a, kGround, 2.0);
  net.add_resistor(a, kGround, 1e3);
  const DcSolution sol = solve_dc(net);
  // MNA convention: the branch current flows p -> n inside the unknown
  // vector; the source delivers 2 mA into the resistor.
  EXPECT_NEAR(std::abs(sol.source_current(src)), 2e-3, 1e-12);
}

TEST(Mna, SuperpositionOfSources) {
  Netlist net;
  const NodeId n = net.add_node();
  net.add_resistor(n, kGround, 1e3);
  net.add_current_source(kGround, n, 1e-3);
  net.add_current_source(kGround, n, 2e-3);
  const DcSolution sol = solve_dc(net);
  EXPECT_NEAR(sol.voltage(n), 3.0, 1e-12);
}

TEST(Mna, WheatstoneBridgeBalanced) {
  Netlist net;
  const NodeId top = net.add_node();
  const NodeId left = net.add_node();
  const NodeId right = net.add_node();
  net.add_voltage_source(top, kGround, 1.0);
  net.add_resistor(top, left, 1e3);
  net.add_resistor(top, right, 1e3);
  net.add_resistor(left, kGround, 2e3);
  net.add_resistor(right, kGround, 2e3);
  net.add_resistor(left, right, 5e3);  // bridge carries no current
  const DcSolution sol = solve_dc(net);
  EXPECT_NEAR(sol.voltage(left), sol.voltage(right), 1e-12);
  const Resistor bridge = net.resistors().back();
  EXPECT_NEAR(sol.resistor_current(bridge), 0.0, 1e-15);
}

TEST(Mna, ResistorLadderMatchesAnalytic) {
  // 5-section R-2R style ladder driven by 1 V.
  Netlist net;
  std::vector<NodeId> nodes;
  const NodeId in = net.add_node();
  net.add_voltage_source(in, kGround, 1.0);
  NodeId prev = in;
  for (int i = 0; i < 5; ++i) {
    const NodeId n = net.add_node();
    net.add_resistor(prev, n, 1e3);
    net.add_resistor(n, kGround, 2e3);
    nodes.push_back(n);
    prev = n;
  }
  const DcSolution sol = solve_dc(net);
  // Voltages must decay monotonically along the ladder.
  double last = 1.0;
  for (const NodeId n : nodes) {
    EXPECT_LT(sol.voltage(n), last);
    EXPECT_GT(sol.voltage(n), 0.0);
    last = sol.voltage(n);
  }
}

TEST(Mna, VccsImplementsTransconductance) {
  Netlist net;
  const NodeId ctrl = net.add_node();
  const NodeId out = net.add_node();
  net.add_voltage_source(ctrl, kGround, 0.5);
  net.add_vccs(out, kGround, ctrl, kGround, 1e-3);  // i = gm * v_ctrl out of `out`
  net.add_resistor(out, kGround, 1e3);
  const DcSolution sol = solve_dc(net);
  // i(out -> gnd through VCCS) = 1e-3 * 0.5 = 0.5 mA leaves node `out`,
  // so the resistor pulls the node to -0.5 V.
  EXPECT_NEAR(sol.voltage(out), -0.5, 1e-12);
}

TEST(Mna, FloatingNodeIsSingular) {
  Netlist net;
  (void)net.add_node();  // no element touches it
  const NodeId driven = net.add_node();
  net.add_resistor(driven, kGround, 1e3);
  net.add_current_source(kGround, driven, 1e-3);
  EXPECT_THROW(solve_dc(net), NumericalError);
}

TEST(Mna, TwoVoltageSourcesInSeries) {
  Netlist net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  net.add_voltage_source(a, kGround, 1.0);
  net.add_voltage_source(b, a, 0.5);
  net.add_resistor(b, kGround, 1e3);
  const DcSolution sol = solve_dc(net);
  EXPECT_NEAR(sol.voltage(b), 1.5, 1e-12);
}

TEST(Mna, GroundedSourceConvention) {
  // Current source from a to b pushes current through the source a -> b.
  Netlist net;
  const NodeId a = net.add_node();
  net.add_resistor(a, kGround, 1e3);
  net.add_current_source(a, kGround, 1e-3);  // pulls current *out of* a
  const DcSolution sol = solve_dc(net);
  EXPECT_NEAR(sol.voltage(a), -1.0, 1e-12);
}

TEST(Mna, ParallelResistors) {
  Netlist net;
  const NodeId n = net.add_node();
  net.add_current_source(kGround, n, 1e-3);
  net.add_resistor(n, kGround, 2e3);
  net.add_resistor(n, kGround, 2e3);
  const DcSolution sol = solve_dc(net);
  EXPECT_NEAR(sol.voltage(n), 1.0, 1e-12);
}

TEST(Mna, CapacitorIsOpenInDc) {
  Netlist net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  net.add_voltage_source(a, kGround, 1.0);
  net.add_resistor(a, b, 1e3);
  net.add_capacitor(b, kGround, 1e-12);
  net.add_resistor(b, kGround, 1e3);
  const DcSolution sol = solve_dc(net);
  EXPECT_NEAR(sol.voltage(b), 0.5, 1e-12);  // divider unaffected by C
}

}  // namespace
}  // namespace spinsim
