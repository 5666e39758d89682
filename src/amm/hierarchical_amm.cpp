#include "amm/hierarchical_amm.hpp"

namespace spinsim {

namespace {

/// One slot per cluster, default write cost, endurance off.
LeafCacheEngineConfig resident_config(const HierarchicalAmmConfig& config) {
  LeafCacheEngineConfig c;
  c.hierarchy = config;
  c.leaf_slots = config.clusters;
  return c;
}

}  // namespace

HierarchicalAmm::HierarchicalAmm(const HierarchicalAmmConfig& config)
    : LeafCacheEngine(resident_config(config)) {}

void HierarchicalAmm::store_templates(const std::vector<FeatureVector>& templates) {
  LeafCacheEngine::store_templates(templates);
  preload();
}

}  // namespace spinsim
