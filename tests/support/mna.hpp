/// \file mna.hpp
/// DC operating point by modified nodal analysis (dense LU).
///
/// Unknowns are the non-ground node voltages followed by the branch
/// currents of the voltage sources. Capacitors are open in DC. Suitable
/// for circuits up to a few thousand nodes; the parasitic crossbar uses
/// the sparse ResistiveNetwork fast path instead.

#pragma once

#include <vector>

#include "support/netlist.hpp"
#include "support/dense_matrix.hpp"

namespace spinsim {

/// Result of a DC operating-point analysis.
class DcSolution {
 public:
  DcSolution(std::vector<double> node_voltages, std::vector<double> source_currents)
      : node_voltages_(std::move(node_voltages)), source_currents_(std::move(source_currents)) {}

  /// Voltage of node `n` relative to ground.
  double voltage(NodeId n) const;

  /// Voltage difference v(a) - v(b).
  double voltage(NodeId a, NodeId b) const { return voltage(a) - voltage(b); }

  /// Current through voltage source `index` (positive flowing p -> n
  /// inside the source, i.e. the current delivered out of the p terminal
  /// is -value by passive sign convention).
  double source_current(std::size_t index) const;

  /// Current through a resistor, positive from a to b.
  double resistor_current(const Resistor& r) const {
    return voltage(r.a, r.b) / r.resistance;
  }

  std::size_t node_count() const { return node_voltages_.size(); }

 private:
  std::vector<double> node_voltages_;   // [0] = ground = 0
  std::vector<double> source_currents_;
};

/// Solves the DC operating point of `netlist`. Throws NumericalError when
/// the MNA matrix is singular (floating nodes, voltage-source loops).
DcSolution solve_dc(const Netlist& netlist);

/// Assembles the dense MNA matrix and right-hand side (exposed for tests).
void assemble_mna(const Netlist& netlist, Matrix& a, std::vector<double>& rhs);

}  // namespace spinsim
