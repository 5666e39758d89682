#include "support/mna.hpp"

#include "support/lu.hpp"

namespace spinsim {

double DcSolution::voltage(NodeId n) const {
  require(n < node_voltages_.size(), "DcSolution::voltage: unknown node");
  return node_voltages_[n];
}

double DcSolution::source_current(std::size_t index) const {
  require(index < source_currents_.size(), "DcSolution::source_current: unknown source");
  return source_currents_[index];
}

void assemble_mna(const Netlist& netlist, Matrix& a, std::vector<double>& rhs) {
  const std::size_t n_nodes = netlist.node_count() - 1;  // excluding ground
  const std::size_t n_vsrc = netlist.voltage_sources().size();
  const std::size_t dim = n_nodes + n_vsrc;

  a = Matrix(dim, dim, 0.0);
  rhs.assign(dim, 0.0);

  // Map a NodeId to its matrix row (ground contributes nothing).
  const auto row_of = [](NodeId n) { return n - 1; };

  for (const auto& r : netlist.resistors()) {
    const double g = 1.0 / r.resistance;
    if (r.a != kGround) {
      a(row_of(r.a), row_of(r.a)) += g;
    }
    if (r.b != kGround) {
      a(row_of(r.b), row_of(r.b)) += g;
    }
    if (r.a != kGround && r.b != kGround) {
      a(row_of(r.a), row_of(r.b)) -= g;
      a(row_of(r.b), row_of(r.a)) -= g;
    }
  }

  for (const auto& s : netlist.current_sources()) {
    // Current flows from a to b through the source: it leaves node a and
    // enters node b.
    if (s.a != kGround) {
      rhs[row_of(s.a)] -= s.value;
    }
    if (s.b != kGround) {
      rhs[row_of(s.b)] += s.value;
    }
  }

  for (const auto& g : netlist.vccs()) {
    // i(a->b) = gm * (v(cp) - v(cn))
    const auto stamp = [&](NodeId node, NodeId ctrl, double sign) {
      if (node != kGround && ctrl != kGround) {
        a(row_of(node), row_of(ctrl)) += sign * g.gm;
      }
    };
    stamp(g.a, g.cp, +1.0);
    stamp(g.a, g.cn, -1.0);
    stamp(g.b, g.cp, -1.0);
    stamp(g.b, g.cn, +1.0);
  }

  for (std::size_t k = 0; k < n_vsrc; ++k) {
    const auto& v = netlist.voltage_sources()[k];
    const std::size_t cur_row = n_nodes + k;
    if (v.p != kGround) {
      a(row_of(v.p), cur_row) += 1.0;
      a(cur_row, row_of(v.p)) += 1.0;
    }
    if (v.n != kGround) {
      a(row_of(v.n), cur_row) -= 1.0;
      a(cur_row, row_of(v.n)) -= 1.0;
    }
    rhs[cur_row] = v.value;
  }
}

DcSolution solve_dc(const Netlist& netlist) {
  Matrix a;
  std::vector<double> rhs;
  assemble_mna(netlist, a, rhs);

  const std::vector<double> x = solve_dense(a, rhs);

  const std::size_t n_nodes = netlist.node_count() - 1;
  std::vector<double> node_voltages(netlist.node_count(), 0.0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    node_voltages[i + 1] = x[i];
  }
  std::vector<double> source_currents(netlist.voltage_sources().size(), 0.0);
  for (std::size_t k = 0; k < source_currents.size(); ++k) {
    source_currents[k] = x[n_nodes + k];
  }
  return DcSolution(std::move(node_voltages), std::move(source_currents));
}

}  // namespace spinsim
