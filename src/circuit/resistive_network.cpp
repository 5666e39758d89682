#include "circuit/resistive_network.hpp"

#include <utility>

#include "core/error.hpp"

namespace spinsim {

RNode ResistiveNetwork::add_node() {
  fixed_voltage_.emplace_back(std::nullopt);
  injections_.push_back(0.0);
  structure_dirty_ = true;
  solved_ = false;
  return fixed_voltage_.size() - 1;
}

RNode ResistiveNetwork::add_nodes(std::size_t count) {
  require(count > 0, "ResistiveNetwork::add_nodes: count must be positive");
  const RNode first = fixed_voltage_.size();
  fixed_voltage_.resize(fixed_voltage_.size() + count, std::nullopt);
  injections_.resize(injections_.size() + count, 0.0);
  structure_dirty_ = true;
  solved_ = false;
  return first;
}

void ResistiveNetwork::fix_voltage(RNode n, double volts) {
  require(n < node_count(), "ResistiveNetwork::fix_voltage: unknown node");
  fixed_voltage_[n] = volts;
  structure_dirty_ = true;
  solved_ = false;
}

void ResistiveNetwork::add_conductance(RNode a, RNode b, double g) {
  require(a < node_count() && b < node_count(), "ResistiveNetwork::add_conductance: unknown node");
  require(a != b, "ResistiveNetwork::add_conductance: self-loop");
  require(g > 0.0, "ResistiveNetwork::add_conductance: conductance must be positive");
  elements_.push_back({a, b, g});
  structure_dirty_ = true;
  solved_ = false;
}

void ResistiveNetwork::set_injection(RNode n, double amps) {
  require(n < node_count(), "ResistiveNetwork::set_injection: unknown node");
  injections_[n] = amps;
  solved_ = false;
}

void ResistiveNetwork::build_system() {
  const std::size_t n = node_count();

  // Unknowns = nodes without a pinned voltage.
  reduced_index_.assign(n, -1);
  std::size_t n_unknown = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!fixed_voltage_[i].has_value()) {
      reduced_index_[i] = static_cast<std::ptrdiff_t>(n_unknown++);
    }
  }
  require(n_unknown < n || n == 0,
          "ResistiveNetwork::solve: at least one node must be pinned (no ground reference)");

  CooBuilder builder(n_unknown, n_unknown);
  dirichlet_rhs_.assign(n_unknown, 0.0);

  for (const auto& e : elements_) {
    const std::ptrdiff_t ia = reduced_index_[e.a];
    const std::ptrdiff_t ib = reduced_index_[e.b];
    if (ia >= 0) {
      builder.add(static_cast<std::size_t>(ia), static_cast<std::size_t>(ia), e.g);
    }
    if (ib >= 0) {
      builder.add(static_cast<std::size_t>(ib), static_cast<std::size_t>(ib), e.g);
    }
    if (ia >= 0 && ib >= 0) {
      builder.add(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib), -e.g);
      builder.add(static_cast<std::size_t>(ib), static_cast<std::size_t>(ia), -e.g);
    } else if (ia >= 0) {
      // b pinned: conductance to a known voltage becomes a RHS term.
      dirichlet_rhs_[static_cast<std::size_t>(ia)] += e.g * *fixed_voltage_[e.b];
    } else if (ib >= 0) {
      dirichlet_rhs_[static_cast<std::size_t>(ib)] += e.g * *fixed_voltage_[e.a];
    }
  }

  reduced_a_ = builder.compress();
  structure_dirty_ = false;
  factor_dirty_ = true;
}

std::vector<double> ResistiveNetwork::assemble_rhs() const {
  std::vector<double> rhs = dirichlet_rhs_;
  for (std::size_t i = 0; i < node_count(); ++i) {
    const std::ptrdiff_t ri = reduced_index_[i];
    if (ri >= 0) {
      rhs[static_cast<std::size_t>(ri)] += injections_[i];
    }
  }
  return rhs;
}

void ResistiveNetwork::set_elimination_order(std::vector<RNode> order) {
  elimination_order_ = std::move(order);
  factor_dirty_ = true;
}

void ResistiveNetwork::factorize() {
  if (structure_dirty_) {
    build_system();
  }
  if (!factor_dirty_) {
    return;
  }
  std::vector<std::size_t> order;
  order.reserve(reduced_a_.rows());
  for (const RNode n : elimination_order_) {
    require(n < node_count(), "ResistiveNetwork::factorize: unknown node in elimination order");
    if (reduced_index_[n] >= 0) {
      order.push_back(static_cast<std::size_t>(reduced_index_[n]));
    }
  }
  require(elimination_order_.empty() || order.size() == reduced_a_.rows(),
          "ResistiveNetwork::factorize: elimination order must list every free node once");
  ldlt_.factorize(reduced_a_, order);
  factor_dirty_ = false;
}

const std::vector<double>& ResistiveNetwork::solve() {
  factorize();
  std::vector<double> x;
  ldlt_.solve_into(assemble_rhs(), x);

  solution_.assign(node_count(), 0.0);
  for (std::size_t i = 0; i < node_count(); ++i) {
    const std::ptrdiff_t ri = reduced_index_[i];
    solution_[i] = (ri >= 0) ? x[static_cast<std::size_t>(ri)] : *fixed_voltage_[i];
  }
  solved_ = true;
  return solution_;
}

std::vector<double> ResistiveNetwork::influence(const std::vector<RNode>& observe,
                                                const std::vector<RNode>& inject) {
  for (const auto* nodes : {&observe, &inject}) {
    for (const RNode n : *nodes) {
      require(n < node_count(), "ResistiveNetwork::influence: unknown node");
    }
  }
  factorize();
  // Only free nodes are unknowns: a pinned node's voltage ignores every
  // injection, and a current injected into one moves nothing, so their
  // entries stay zero. `at` keeps each free node's place in the request.
  const auto free_nodes = [&](const std::vector<RNode>& nodes, std::vector<std::size_t>& at,
                              std::vector<std::size_t>& unknown) {
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      if (reduced_index_[nodes[k]] >= 0) {
        at.push_back(k);
        unknown.push_back(static_cast<std::size_t>(reduced_index_[nodes[k]]));
      }
    }
  };
  std::vector<std::size_t> obs_at;
  std::vector<std::size_t> obs_unknown;
  std::vector<std::size_t> inj_at;
  std::vector<std::size_t> inj_unknown;
  free_nodes(observe, obs_at, obs_unknown);
  free_nodes(inject, inj_at, inj_unknown);
  // A is symmetric, so (A^-1 e_observe)[inject] = dv(observe)/dI(inject).
  const std::vector<double> block = ldlt_.inverse_entries(obs_unknown, inj_unknown);
  std::vector<double> out(observe.size() * inject.size(), 0.0);
  for (std::size_t a = 0; a < obs_at.size(); ++a) {
    for (std::size_t b = 0; b < inj_at.size(); ++b) {
      out[obs_at[a] * inject.size() + inj_at[b]] = block[a * inj_at.size() + b];
    }
  }
  return out;
}

double ResistiveNetwork::voltage(RNode n) const {
  require(solved_, "ResistiveNetwork::voltage: call solve() first");
  require(n < node_count(), "ResistiveNetwork::voltage: unknown node");
  return solution_[n];
}

}  // namespace spinsim
