/// \file resistive_network.hpp
/// Fast path for large grounded resistive networks (the parasitic crossbar).
///
/// Compared to the general MNA, ideal voltage sources are handled as
/// *Dirichlet nodes*: their voltage is known, so they are eliminated from
/// the unknown set. What remains is a symmetric positive-definite
/// conductance system solved by Jacobi-preconditioned CG. The 128x40
/// crossbar (10k+ unknowns) solves in milliseconds, and consecutive solves
/// of the same topology warm-start from the previous operating point.

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/cg.hpp"
#include "core/cholesky.hpp"
#include "core/sparse.hpp"

namespace spinsim {

/// A node in a ResistiveNetwork (dense index space, no ground node; use a
/// fixed node at 0 V instead).
using RNode = std::size_t;

/// How solve() computes node voltages.
enum class SolverStrategy {
  kCg,        ///< Jacobi-preconditioned CG (reference iterative path)
  kFactored,  ///< sparse LDL^T factored once, two triangular solves per call
};

/// Large resistive network with known-voltage (Dirichlet) nodes.
class ResistiveNetwork {
 public:
  /// Adds a floating node; returns its id.
  RNode add_node();

  /// Adds `count` floating nodes; returns the id of the first.
  RNode add_nodes(std::size_t count);

  std::size_t node_count() const { return fixed_voltage_.size(); }

  /// Pins node `n` to `volts` (an ideal voltage source to ground).
  void fix_voltage(RNode n, double volts);

  /// True if the node is pinned.
  bool is_fixed(RNode n) const;

  /// Adds a conductance `g` (= 1/R) between nodes a and b.
  void add_conductance(RNode a, RNode b, double g);

  /// Injects `amps` into node n (from an ideal current source to ground).
  void inject_current(RNode n, double amps);

  /// Replaces the injection at node n.
  void set_injection(RNode n, double amps);

  /// Clears all current injections (conductances and pins stay).
  void clear_injections();

  /// Selects the algorithm solve() dispatches to. Switching strategy
  /// never changes the answer beyond solver tolerance; kFactored pays a
  /// one-time factorization, then each solve is two triangular solves.
  void set_solver(SolverStrategy strategy) { strategy_ = strategy; }
  SolverStrategy solver() const { return strategy_; }

  /// Solves for all node voltages using the selected strategy. Results
  /// are cached; re-solving after only injection changes reuses the
  /// factorised structure (and, for CG, the last solution as warm start).
  const std::vector<double>& solve(const CgOptions& options = {});

  /// Forces the CG path regardless of the selected strategy.
  const std::vector<double>& solve_cg(const CgOptions& options = {});

  /// Forces the direct path: factorizes lazily, then back-substitutes.
  const std::vector<double>& solve_factored();

  /// Eagerly computes the LDL^T factor of the reduced system (no-op if
  /// already current). Called lazily by solve_factored().
  void factorize();

  /// Nonzeros in the cached LDL^T factor (0 before factorize()).
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

  /// Current flowing a -> b through the conductance element `index`
  /// (in insertion order) after solve().
  double element_current(std::size_t index) const;

  /// Total current delivered by the pin on node n (positive out of the
  /// source into the network) after solve().
  double pin_current(RNode n) const;

  /// Number of conductance elements.
  std::size_t element_count() const { return elements_.size(); }

  /// Statistics from the last solve.
  const CgResult& last_result() const { return last_result_; }

 private:
  struct Element {
    RNode a;
    RNode b;
    double g;
  };

  void build_system();
  std::vector<double> assemble_rhs() const;
  void scatter_solution(const std::vector<double>& reduced);

  std::vector<std::optional<double>> fixed_voltage_;
  std::vector<Element> elements_;
  std::vector<double> injections_;

  // Cached reduced system.
  bool structure_dirty_ = true;
  std::vector<std::ptrdiff_t> reduced_index_;  // node -> unknown index or -1
  CsrMatrix reduced_a_;
  std::vector<double> dirichlet_rhs_;  // contribution of pinned nodes
  std::vector<double> solution_;       // full node voltages
  std::vector<double> warm_start_;     // previous reduced solution
  CgResult last_result_;
  bool solved_ = false;

  // Per-node incident-element index (CSR over nodes), built with the
  // system so pin_current() stops scanning every element.
  std::vector<std::size_t> node_elem_ptr_;
  std::vector<std::size_t> node_elem_idx_;

  // Direct-solver state.
  SolverStrategy strategy_ = SolverStrategy::kCg;
  SparseLdlt ldlt_;
  bool factor_dirty_ = true;
};

}  // namespace spinsim
