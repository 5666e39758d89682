/// \file resistive_network.hpp
/// The parasitic crossbar's wire-junction network: a large grounded
/// resistive network solved by sparse LDL^T.
///
/// Ideal voltage sources are handled as *Dirichlet nodes*: their voltage
/// is known, so they are eliminated from the unknown set. What remains is
/// a symmetric positive-definite conductance system. The parasitic
/// crossbar factors it once, in the elimination order it supplies, reads
/// its whole transfer operator from that factor through influence(), and
/// takes the operator's offset from one solve().

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/cholesky.hpp"
#include "core/sparse.hpp"

namespace spinsim {

/// A node in a ResistiveNetwork (dense index space, no ground node; use a
/// fixed node at 0 V instead).
using RNode = std::size_t;

/// Large resistive network with known-voltage (Dirichlet) nodes.
class ResistiveNetwork {
 public:
  /// Adds a floating node; returns its id.
  RNode add_node();

  /// Adds `count` floating nodes; returns the id of the first.
  RNode add_nodes(std::size_t count);

  /// Pins node `n` to `volts` (an ideal voltage source to ground).
  void fix_voltage(RNode n, double volts);

  /// Adds a conductance `g` (= 1/R) between nodes a and b.
  void add_conductance(RNode a, RNode b, double g);

  /// Sets the current injected into node n (from an ideal current source
  /// to ground) [A]; every node starts at zero.
  void set_injection(RNode n, double amps);

  /// Solves for all node voltages: factorizes the reduced system once per
  /// structure (lazily), then back-substitutes. Re-solving after only
  /// injection changes reuses the factor.
  const std::vector<double>& solve();

  /// Sets the order the factorization eliminates the free nodes in. Every
  /// free node must appear exactly once; pinned nodes are not unknowns and
  /// are skipped wherever they appear. Empty (the default) keeps node
  /// order. The next solve() or influence() throws InvalidArgument on an
  /// unknown node or on an order that misses or repeats a free node.
  void set_elimination_order(std::vector<RNode> order);

  /// Nonzeros in the cached LDL^T factor (0 before the first solve() or
  /// influence()).
  std::size_t factor_nnz() const { return ldlt_.factor_nnz(); }

  /// Reciprocity block: out[j * inject.size() + c] = d v(observe[j]) /
  /// d I(inject[c]), zero where either node is pinned. By symmetry it is
  /// one block of the inverse conductance matrix, computed by a single
  /// SparseLdlt::inverse_entries() call: blocked unit solves, one per
  /// observed node, with L streamed once per block of them. This is what
  /// lets a crossbar build its whole transfer operator in one call, from
  /// its outputs rather than its inputs.
  std::vector<double> influence(const std::vector<RNode>& observe,
                                const std::vector<RNode>& inject);

  /// Voltage of node n after solve().
  double voltage(RNode n) const;

 private:
  struct Element {
    RNode a;
    RNode b;
    double g;
  };

  std::size_t node_count() const { return fixed_voltage_.size(); }
  void build_system();
  void factorize();
  std::vector<double> assemble_rhs() const;

  std::vector<std::optional<double>> fixed_voltage_;
  std::vector<Element> elements_;
  std::vector<double> injections_;

  // Cached reduced system.
  bool structure_dirty_ = true;
  std::vector<std::ptrdiff_t> reduced_index_;  // node -> unknown index or -1
  CsrMatrix reduced_a_;
  std::vector<double> dirichlet_rhs_;  // contribution of pinned nodes
  std::vector<double> solution_;       // full node voltages
  bool solved_ = false;

  // Factor of the reduced system.
  std::vector<RNode> elimination_order_;
  SparseLdlt ldlt_;
  bool factor_dirty_ = true;
};

}  // namespace spinsim
