#include "circuit/resistive_network.hpp"

#include <utility>

#include "core/error.hpp"

namespace spinsim {

RNode ResistiveNetwork::add_node() {
  grounded_.push_back(0);
  structure_dirty_ = true;
  return grounded_.size() - 1;
}

RNode ResistiveNetwork::add_nodes(std::size_t count) {
  require(count > 0, "ResistiveNetwork::add_nodes: count must be positive");
  const RNode first = grounded_.size();
  grounded_.resize(grounded_.size() + count, 0);
  structure_dirty_ = true;
  return first;
}

void ResistiveNetwork::ground(RNode n) {
  require(n < node_count(), "ResistiveNetwork::ground: unknown node");
  grounded_[n] = 1;
  structure_dirty_ = true;
}

void ResistiveNetwork::add_conductance(RNode a, RNode b, double g) {
  require(a < node_count() && b < node_count(), "ResistiveNetwork::add_conductance: unknown node");
  require(a != b, "ResistiveNetwork::add_conductance: self-loop");
  require(g > 0.0, "ResistiveNetwork::add_conductance: conductance must be positive");
  elements_.push_back({a, b, g});
  structure_dirty_ = true;
}

void ResistiveNetwork::build_system() {
  const std::size_t n = node_count();

  // Unknowns = nodes not tied to ground.
  reduced_index_.assign(n, -1);
  std::size_t n_unknown = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (grounded_[i] == 0) {
      reduced_index_[i] = static_cast<std::ptrdiff_t>(n_unknown++);
    }
  }
  require(n_unknown < n || n == 0,
          "ResistiveNetwork: at least one node must be grounded (no reference)");

  // A conductance to ground only loads its free end's diagonal.
  CooBuilder builder(n_unknown, n_unknown);
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
    }
  }

  reduced_a_ = builder.compress();
  structure_dirty_ = false;
  factor_dirty_ = true;
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

std::vector<double> ResistiveNetwork::influence(const std::vector<RNode>& observe,
                                                const std::vector<RNode>& inject) {
  for (const auto* nodes : {&observe, &inject}) {
    for (const RNode n : *nodes) {
      require(n < node_count(), "ResistiveNetwork::influence: unknown node");
    }
  }
  factorize();
  // Only free nodes are unknowns: a grounded node's voltage ignores every
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

}  // namespace spinsim
