/// \file resistive_network.hpp
/// The parasitic crossbar's wire-junction network: a large grounded
/// resistive network factored by sparse LDL^T.
///
/// Grounded nodes sit at 0 V, so they are eliminated from the unknown set.
/// What remains is a symmetric positive-definite conductance system, and
/// the network is linear in the currents injected into its free nodes.
/// The parasitic crossbar factors it once, in the elimination order it
/// supplies, and reads its whole transfer operator from that factor
/// through influence().

#pragma once

#include <cstddef>
#include <vector>

#include "core/cholesky.hpp"
#include "core/sparse.hpp"

namespace spinsim {

/// A node in a ResistiveNetwork (dense index space, no ground node; ground
/// a node instead).
using RNode = std::size_t;

/// Large resistive network with grounded nodes.
class ResistiveNetwork {
 public:
  /// Adds a floating node; returns its id.
  RNode add_node();

  /// Adds `count` floating nodes; returns the id of the first.
  RNode add_nodes(std::size_t count);

  /// Ties node `n` to ground (0 V).
  void ground(RNode n);

  /// Adds a conductance `g` (= 1/R) between nodes a and b.
  void add_conductance(RNode a, RNode b, double g);

  /// Sets the order the factorization eliminates the free nodes in. Every
  /// free node must appear exactly once; grounded nodes are not unknowns
  /// and are skipped wherever they appear. Empty (the default) keeps node
  /// order. The next influence() throws InvalidArgument on an unknown node
  /// or on an order that misses or repeats a free node.
  void set_elimination_order(std::vector<RNode> order);

  /// Nonzeros in the cached LDL^T factor (0 before the first influence()).
  std::size_t factor_nnz() const { return ldlt_.factor_nnz(); }

  /// Reciprocity block: out[j * inject.size() + c] = d v(observe[j]) /
  /// d I(inject[c]), zero where either node is grounded. By symmetry it is
  /// one block of the inverse conductance matrix, computed by a single
  /// SparseLdlt::inverse_entries() call: blocked unit solves, one per
  /// observed node, with L streamed once per block of them. This is what
  /// lets a crossbar build its whole transfer operator in one call, from
  /// its outputs rather than its inputs. Factors the network first if it
  /// changed; throws InvalidArgument if no node is grounded.
  std::vector<double> influence(const std::vector<RNode>& observe,
                                const std::vector<RNode>& inject);

 private:
  struct Element {
    RNode a;
    RNode b;
    double g;
  };

  std::size_t node_count() const { return grounded_.size(); }
  void build_system();
  void factorize();

  std::vector<char> grounded_;
  std::vector<Element> elements_;

  // Cached reduced system.
  bool structure_dirty_ = true;
  std::vector<std::ptrdiff_t> reduced_index_;  // node -> unknown index or -1
  CsrMatrix reduced_a_;

  // Factor of the reduced system.
  std::vector<RNode> elimination_order_;
  SparseLdlt ldlt_;
  bool factor_dirty_ = true;
};

}  // namespace spinsim
