/// \file hierarchical_amm.hpp
/// Hierarchical associative memory: the paper's Section-5 extension.
///
/// "Very large number of images can be grouped into smaller clusters
/// [25], that can be hierarchically stored in the multiple RCM modules."
///
/// Templates are k-means-clustered in feature space. A *router* AMM
/// stores the cluster centroids; one *leaf* AMM per cluster stores its
/// member templates. Recognition first routes the input to the best
/// cluster, then searches only that leaf — so instead of one huge WTA
/// across N templates, each lookup activates a k-column router plus one
/// ~N/k-column leaf. Power follows the active path, which is how the
/// scheme scales the energy story to thousands of patterns.
///
/// HierarchicalAmm is a LeafCacheEngine with one slot per cluster and
/// every leaf programmed at store time: routing, batching and the
/// routed result (see LeafCacheEngine::recognize) are the leaf cache's.
/// A preloaded pool never reprograms, so power() and energy_per_query()
/// price the active-path search alone.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "amm/leaf_cache_engine.hpp"

namespace spinsim {

/// Two-level AMM with every leaf resident.
class HierarchicalAmm : public LeafCacheEngine {
 public:
  explicit HierarchicalAmm(const HierarchicalAmmConfig& config);

  std::string name() const override { return "hierarchical"; }

  /// Clusters the templates and programs the router and every leaf. The
  /// leaf writes are set-up, not traffic: no counter or energy charges
  /// them. Must be called before recognize().
  void store_templates(const std::vector<FeatureVector>& templates) override;

  /// Number of leaves (== clusters).
  std::size_t leaf_count() const { return cluster_count(); }

  /// Power of the active path (router + worst-case leaf).
  PowerReport power() const override { return active_path_power(); }

  /// Energy of one routed recognition: router search + worst-case leaf
  /// search, each an M-cycle WTA conversion.
  EnergyPerQuery energy_per_query() const override { return search_energy_per_query(); }

  /// Power a *flat* AMM holding all templates would burn, for comparison.
  PowerReport flat_equivalent_power() const { return module_power(template_count()); }
};

}  // namespace spinsim
