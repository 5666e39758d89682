#include "support/latch_transient.hpp"

#include <cmath>
#include <utility>

#include "core/error.hpp"

namespace spinsim {

LatchTransient simulate_read_latch(const ReadLatchDesign& design, double r_mtj,
                                   double r_reference, const Tech45& tech) {
  require(r_mtj > 0.0 && r_reference > 0.0,
          "simulate_read_latch: resistances must be positive");

  // Discharge phase only: each branch is a precharged sense cap
  // discharging to ground through its MTJ. Node 1 = DWN branch,
  // node 2 = reference branch.
  Netlist net;
  const NodeId n_dwn = net.add_node("sense_dwn");
  const NodeId n_ref = net.add_node("sense_ref");
  net.add_capacitor(n_dwn, kGround, design.sense_cap, tech.vdd, "C_dwn");
  net.add_capacitor(n_ref, kGround, design.sense_cap, tech.vdd, "C_ref");
  net.add_resistor(n_dwn, kGround, r_mtj, "R_mtj");
  net.add_resistor(n_ref, kGround, r_reference, "R_ref");

  const double dt = design.sense_time / 200.0;
  TransientSimulator sim(std::move(net), dt);
  LatchTransient out;
  out.trace = sim.run(design.sense_time);

  const std::size_t last = out.trace.steps() - 1;
  const double v_dwn = out.trace.at(last, n_dwn);
  const double v_ref = out.trace.at(last, n_ref);
  // Lower branch voltage = faster discharge = smaller resistance.
  out.decided_parallel = v_dwn < v_ref;
  out.branch_separation = std::abs(v_dwn - v_ref);
  return out;
}

}  // namespace spinsim
