/// \file transient.hpp
/// Linear transient analysis (backward Euler) for RC circuits.
///
/// Used to simulate the dynamic CMOS read latch at circuit level: two
/// capacitive branches discharging through the DWN MTJ and the reference
/// MTJ. Capacitors become a conductance C/dt in parallel with a history
/// current (companion model); the constant system matrix is factored once.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "support/netlist.hpp"
#include "support/lu.hpp"

namespace spinsim {

/// Waveform of a single node across a transient run.
struct TransientTrace {
  std::vector<double> time;                    ///< [s]
  std::vector<std::vector<double>> voltages;   ///< voltages[k][node]

  double at(std::size_t step, NodeId node) const { return voltages[step][node]; }
  std::size_t steps() const { return time.size(); }
};

/// Hook invoked before every step; may rewrite source values (piecewise-
/// constant waveforms). Signature: (time, netlist).
using SourceUpdate = std::function<void(double, Netlist&)>;

/// Backward-Euler transient simulator over a linear netlist.
class TransientSimulator {
 public:
  /// `dt` is the fixed timestep. Source values may change between steps
  /// via the update hook, but topology (R/C placement) is fixed.
  TransientSimulator(Netlist netlist, double dt);

  /// Runs until `t_end`, recording every node voltage at every step.
  /// The initial state honours the capacitors' `initial_voltage`.
  TransientTrace run(double t_end, const SourceUpdate& update = nullptr);

 private:
  void factorize();

  Netlist netlist_;
  double dt_;
  std::size_t n_nodes_ = 0;  // excluding ground
  std::size_t n_vsrc_ = 0;
  std::unique_ptr<LuDecomposition> lu_;
};

}  // namespace spinsim
