#include "support/transient.hpp"

#include <memory>

#include "support/mna.hpp"

namespace spinsim {

TransientSimulator::TransientSimulator(Netlist netlist, double dt)
    : netlist_(std::move(netlist)), dt_(dt) {
  require(dt_ > 0.0, "TransientSimulator: dt must be positive");
  n_nodes_ = netlist_.node_count() - 1;
  n_vsrc_ = netlist_.voltage_sources().size();
  factorize();
}

void TransientSimulator::factorize() {
  // Assemble the DC MNA matrix, then add the capacitor companion
  // conductances (C/dt between the capacitor terminals).
  Matrix a;
  std::vector<double> rhs_unused;
  assemble_mna(netlist_, a, rhs_unused);

  const auto row_of = [](NodeId n) { return n - 1; };
  for (const auto& c : netlist_.capacitors()) {
    const double g = c.capacitance / dt_;
    if (c.a != kGround) {
      a(row_of(c.a), row_of(c.a)) += g;
    }
    if (c.b != kGround) {
      a(row_of(c.b), row_of(c.b)) += g;
    }
    if (c.a != kGround && c.b != kGround) {
      a(row_of(c.a), row_of(c.b)) -= g;
      a(row_of(c.b), row_of(c.a)) -= g;
    }
  }
  lu_ = std::make_unique<LuDecomposition>(std::move(a));
}

TransientTrace TransientSimulator::run(double t_end, const SourceUpdate& update) {
  require(t_end > 0.0, "TransientSimulator::run: t_end must be positive");

  const auto row_of = [](NodeId n) { return n - 1; };
  const std::size_t dim = n_nodes_ + n_vsrc_;

  // State: capacitor voltages v(a)-v(b) from the previous step.
  std::vector<double> cap_voltage;
  cap_voltage.reserve(netlist_.capacitors().size());
  for (const auto& c : netlist_.capacitors()) {
    cap_voltage.push_back(c.initial_voltage);
  }

  TransientTrace trace;
  const auto n_steps = static_cast<std::size_t>(t_end / dt_ + 0.5);
  trace.time.reserve(n_steps + 1);
  trace.voltages.reserve(n_steps + 1);

  // Record t = 0 state as seen through the capacitors' initial condition;
  // node voltages at t=0 are approximated by the first solve below, so we
  // start the trace at the first step.
  std::vector<double> rhs(dim, 0.0);

  for (std::size_t step = 1; step <= n_steps; ++step) {
    const double t = static_cast<double>(step) * dt_;
    if (update) {
      update(t, netlist_);
    }

    // Rebuild only the RHS: current sources, voltage sources, capacitor
    // history currents.
    rhs.assign(dim, 0.0);
    for (const auto& s : netlist_.current_sources()) {
      if (s.a != kGround) {
        rhs[row_of(s.a)] -= s.value;
      }
      if (s.b != kGround) {
        rhs[row_of(s.b)] += s.value;
      }
    }
    for (std::size_t k = 0; k < n_vsrc_; ++k) {
      rhs[n_nodes_ + k] = netlist_.voltage_sources()[k].value;
    }
    for (std::size_t k = 0; k < netlist_.capacitors().size(); ++k) {
      const auto& c = netlist_.capacitors()[k];
      const double hist = (c.capacitance / dt_) * cap_voltage[k];
      if (c.a != kGround) {
        rhs[row_of(c.a)] += hist;
      }
      if (c.b != kGround) {
        rhs[row_of(c.b)] -= hist;
      }
    }

    const std::vector<double> x = lu_->solve(rhs);

    std::vector<double> node_v(netlist_.node_count(), 0.0);
    for (std::size_t i = 0; i < n_nodes_; ++i) {
      node_v[i + 1] = x[i];
    }
    for (std::size_t k = 0; k < netlist_.capacitors().size(); ++k) {
      const auto& c = netlist_.capacitors()[k];
      cap_voltage[k] = node_v[c.a] - node_v[c.b];
    }

    trace.time.push_back(t);
    trace.voltages.push_back(std::move(node_v));
  }
  return trace;
}

}  // namespace spinsim
