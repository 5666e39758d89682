#include <gtest/gtest.h>

#include <cmath>

#include "core/units.hpp"
#include "support/transient.hpp"

namespace spinsim {
namespace {

TEST(Transient, RcDischargeMatchesAnalytic) {
  // 1 pF precharged to 1 V discharging through 10 kOhm: tau = 10 ns.
  Netlist net;
  const NodeId n = net.add_node();
  net.add_capacitor(n, kGround, 1e-12, 1.0);
  net.add_resistor(n, kGround, 10e3);
  const double tau = 10e-9;

  TransientSimulator sim(std::move(net), tau / 1000.0);
  const TransientTrace trace = sim.run(3.0 * tau);
  for (std::size_t k = 99; k < trace.steps(); k += 250) {
    const double expected = std::exp(-trace.time[k] / tau);
    EXPECT_NEAR(trace.at(k, n), expected, 5e-3);
  }
}

TEST(Transient, RcChargeThroughSource) {
  Netlist net;
  const NodeId in = net.add_node();
  const NodeId out = net.add_node();
  net.add_voltage_source(in, kGround, 1.0);
  net.add_resistor(in, out, 1e3);
  net.add_capacitor(out, kGround, 1e-12, 0.0);
  const double tau = 1e-9;

  TransientSimulator sim(std::move(net), tau / 500.0);
  const TransientTrace trace = sim.run(5.0 * tau);
  const double v_end = trace.at(trace.steps() - 1, out);
  EXPECT_NEAR(v_end, 1.0 - std::exp(-5.0), 5e-3);
}

TEST(Transient, FasterBranchDischargesFirst) {
  // The read-latch race: two identical caps, different resistances.
  Netlist net;
  const NodeId fast = net.add_node();
  const NodeId slow = net.add_node();
  net.add_capacitor(fast, kGround, 2e-15, 1.0);
  net.add_capacitor(slow, kGround, 2e-15, 1.0);
  net.add_resistor(fast, kGround, 5e3);    // R_parallel
  net.add_resistor(slow, kGround, 15e3);   // R_antiparallel

  TransientSimulator sim(std::move(net), 1e-12);
  const TransientTrace trace = sim.run(100e-12);
  const std::size_t last = trace.steps() - 1;
  EXPECT_LT(trace.at(last, fast), trace.at(last, slow));
}

TEST(Transient, StepSizeConvergence) {
  // Halving dt should roughly halve backward-Euler's first-order error.
  const auto run_with_dt = [](double dt) {
    Netlist net;
    const NodeId n = net.add_node();
    net.add_capacitor(n, kGround, 1e-12, 1.0);
    net.add_resistor(n, kGround, 1e3);
    TransientSimulator sim(std::move(net), dt);
    const TransientTrace trace = sim.run(1e-9);  // one tau
    return trace.at(trace.steps() - 1, 1);
  };
  const double exact = std::exp(-1.0);
  const double err_coarse = std::abs(run_with_dt(1e-11) - exact);
  const double err_fine = std::abs(run_with_dt(5e-12) - exact);
  EXPECT_LT(err_fine, err_coarse);
  EXPECT_NEAR(err_coarse / err_fine, 2.0, 0.5);
}

TEST(Transient, SourceUpdateHookDrivesWaveform) {
  // Square-wave current source into an RC; check the node follows.
  Netlist net;
  const NodeId n = net.add_node();
  net.add_resistor(n, kGround, 1e3);
  net.add_capacitor(n, kGround, 1e-15, 0.0);
  net.add_current_source(kGround, n, 0.0, "drive");

  TransientSimulator sim(std::move(net), 1e-12);
  const TransientTrace trace =
      sim.run(20e-9, [](double t, Netlist& nl) {
        nl.mutable_current_sources()[0].value = (t < 10e-9) ? 1e-3 : 0.0;
      });
  // Settled high phase ~ 1 V, settled low phase ~ 0 V.
  const std::size_t steps = trace.steps();
  EXPECT_NEAR(trace.at(steps / 2 - 5, n), 1.0, 0.05);
  EXPECT_NEAR(trace.at(steps - 1, n), 0.0, 0.05);
}

TEST(Transient, RejectsBadArguments) {
  Netlist net;
  const NodeId n = net.add_node();
  net.add_resistor(n, kGround, 1e3);
  EXPECT_THROW(TransientSimulator(std::move(net), 0.0), InvalidArgument);

  Netlist net2;
  const NodeId m = net2.add_node();
  net2.add_resistor(m, kGround, 1e3);
  TransientSimulator sim(std::move(net2), 1e-12);
  EXPECT_THROW(sim.run(0.0), InvalidArgument);
}

TEST(Transient, TwoCapacitorChargeSharing) {
  // 1 pF at 1 V dumped onto an uncharged 1 pF: both settle at 0.5 V.
  Netlist net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  net.add_capacitor(a, kGround, 1e-12, 1.0);
  net.add_capacitor(b, kGround, 1e-12, 0.0);
  net.add_resistor(a, b, 1e3);
  TransientSimulator sim(std::move(net), 1e-11);
  const TransientTrace trace = sim.run(20e-9);
  const std::size_t last = trace.steps() - 1;
  EXPECT_NEAR(trace.at(last, a), 0.5, 1e-2);
  EXPECT_NEAR(trace.at(last, b), 0.5, 1e-2);
}

}  // namespace
}  // namespace spinsim
