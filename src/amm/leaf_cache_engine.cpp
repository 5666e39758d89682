#include "amm/leaf_cache_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/error.hpp"
#include "core/kmeans.hpp"
#include "energy/spin_power.hpp"

namespace spinsim {

namespace {

/// splitmix64 finalizer (seed derivation for the slot substrates).
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Quantises a raw k-means centroid onto the feature grid so it can be
/// programmed like any template.
FeatureVector centroid_to_template(const std::vector<double>& centroid, const FeatureSpec& spec) {
  FeatureVector t;
  t.spec = spec;
  const double top = static_cast<double>((1u << spec.bits) - 1);
  t.analog.resize(centroid.size());
  t.digital.resize(centroid.size());
  for (std::size_t i = 0; i < centroid.size(); ++i) {
    const double clamped = std::clamp(centroid[i], 0.0, 1.0);
    const auto level = static_cast<std::uint32_t>(std::lround(clamped * top));
    t.digital[i] = level;
    t.analog[i] = static_cast<double>(level) / top;
  }
  return t;
}

/// SpinAmm configuration of one module (router: salt 0; leaf of cluster
/// c: salt c + 1). A reprogrammed leaf derives from the same salt, so it
/// realises the same device noise as the leaf it replaces.
SpinAmmConfig hierarchical_module_config(const HierarchicalAmmConfig& config, std::size_t columns,
                                         std::uint64_t salt) {
  SpinAmmConfig c;
  c.features = config.features;
  c.templates = columns;
  c.memristor = config.memristor;
  c.wta_bits = config.wta_bits;
  c.dwn = config.dwn;
  c.delta_v = config.delta_v;
  c.clock = config.clock;
  c.sample_mismatch = config.sample_mismatch;
  // The hierarchy applies the threshold to whichever DOM ends the active
  // path (leaf, or router for singleton clusters), so the modules
  // themselves judge every local match accepted; see finish_routed().
  c.accept_threshold = 0;
  c.seed = config.seed ^ (salt * 0x9E3779B97F4A7C15ULL + 0x1234);
  return c;
}

/// Power-model design point of one module of the hierarchy.
SpinAmmDesign hierarchical_module_design(const HierarchicalAmmConfig& config,
                                         std::size_t columns) {
  SpinAmmDesign d;
  d.dimension = config.features.dimension();
  d.templates = std::max<std::size_t>(columns, 2);
  d.resolution_bits = config.wta_bits;
  d.dwn_threshold = config.dwn.i_threshold;
  d.delta_v = config.delta_v;
  d.clock = config.clock;
  return d;
}

/// The clustering step: k-means over the templates' analog vectors with
/// the config's seed/iteration schedule. Returns the per-cluster global
/// template indices and fills `router_templates` with one quantised
/// centroid per cluster, ready for the router module.
std::vector<std::vector<std::size_t>> cluster_templates(
    const HierarchicalAmmConfig& config, const std::vector<FeatureVector>& templates,
    std::vector<FeatureVector>& router_templates) {
  require(templates.size() >= config.clusters,
          "cluster_templates: fewer templates than clusters");
  std::vector<std::vector<double>> points;
  points.reserve(templates.size());
  for (const auto& t : templates) {
    require(t.dimension() == config.features.dimension(),
            "cluster_templates: template dimension mismatch");
    points.push_back(t.analog);
  }
  Rng rng(config.seed);
  const KMeansResult clustering =
      kmeans(points, config.clusters, rng, config.kmeans_iterations);

  std::vector<std::vector<std::size_t>> members(config.clusters);
  for (std::size_t i = 0; i < templates.size(); ++i) {
    members[clustering.assignment[i]].push_back(i);
  }

  router_templates.clear();
  router_templates.reserve(config.clusters);
  for (const auto& centroid : clustering.centroids) {
    router_templates.push_back(centroid_to_template(centroid, config.features));
  }
  return members;
}

/// Folds a leaf answer and its routing decision into the global result:
/// winner becomes the global template index, the leaf-local margin is
/// capped by the router's relative score gap (the global runner-up may
/// live in another cluster), a zero-DOM answer carries zero margin, and
/// `accepted` requires a unique winner at or above `accept_threshold`.
Recognition finish_routed(const Recognition& leaf, const Recognition& routed, std::size_t cluster,
                          std::size_t global_winner, std::uint32_t accept_threshold) {
  // The leaf margin only measures the winning cluster's local runner-up;
  // the *global* runner-up may live in another cluster the leaf search
  // never visited. Cap with the router's relative score gap (the same
  // rule RecognitionService::merge applies across shards) so downstream
  // escalation keyed on margin never sees overstated confidence. The
  // singleton-cluster path gets the identical treatment: its router-level
  // margin is a gap between *centroids*, not stored templates, so it too
  // must not outrank what the router gap supports.
  std::uint32_t router_second = 0;
  if (const SpinRecognitionDetail* rd = routed.spin()) {
    for (std::size_t c = 0; c < rd->wta.dom_codes.size(); ++c) {
      if (c != routed.winner) {
        router_second = std::max(router_second, rd->wta.dom_codes[c]);
      }
    }
  }
  Recognition out;
  out.winner = global_winner;
  out.unique = leaf.unique;
  out.dom = leaf.dom;
  out.score = static_cast<double>(out.dom);
  if (routed.dom == 0 || out.dom == 0) {
    // Nothing matched at the router, or the active path ended on a zero
    // degree of match: a non-positive winner carries no confidence.
    out.margin = 0.0;
  } else {
    const double router_gap = static_cast<double>(routed.dom - router_second) /
                              static_cast<double>(routed.dom);
    out.margin = std::min(leaf.margin, router_gap);
  }
  out.accepted = out.unique && out.dom >= accept_threshold;
  out.detail = HierarchicalRecognitionDetail{cluster, routed.dom, router_second};
  return out;
}

}  // namespace

LeafCacheEngine::LeafCacheEngine(const LeafCacheEngineConfig& config) : config_(config) {
  require(config.hierarchy.clusters >= 2, "LeafCacheEngine: need at least two clusters");
  require(config.leaf_slots >= 1, "LeafCacheEngine: need at least one leaf slot");
  require(config.endurance.verify_tolerance > 0.0,
          "LeafCacheEngine: verify_tolerance must be positive");
  require(config.endurance.rewrite_attempts >= 1,
          "LeafCacheEngine: need at least one rewrite attempt");
}

void LeafCacheEngine::store_templates(const std::vector<FeatureVector>& templates) {
  const HierarchicalAmmConfig& h = config_.hierarchy;
  total_templates_ = templates.size();

  // 1. Cluster the template vectors and build the router.
  std::vector<FeatureVector> router_templates;
  members_ = cluster_templates(h, templates, router_templates);
  router_ = std::make_unique<SpinAmm>(hierarchical_module_config(h, h.clusters, 0));
  router_->store_templates(router_templates);

  // 2. Record the per-cluster template slices; leaves materialise on
  //    first touch instead of being programmed here.
  leaf_sets_.assign(h.clusters, {});
  largest_leaf_ = 0;
  for (std::size_t c = 0; c < h.clusters; ++c) {
    largest_leaf_ = std::max(largest_leaf_, members_[c].size());
    if (members_[c].size() < 2) {
      continue;  // singleton: the router answers it, no leaf needed
    }
    leaf_sets_[c].reserve(members_[c].size());
    for (std::size_t global : members_[c]) {
      leaf_sets_[c].push_back(templates[global]);
    }
  }

  pinned_.assign(h.clusters, false);
  slot_of_.assign(h.clusters, -1);
  evicted_.clear();  // the old leaves hold the old templates
  evicted_.resize(h.clusters);
  slots_.clear();
  lru_clock_ = 0;
  queries_since_verify_ = 0;

  // 3. Endurance mode: any endurance feature (or device wear on the
  //    spec) backs every slot with a persistent physical substrate. All
  //    substrates share one write-noise key so answers are independent
  //    of which slot a cluster lands in (keeps batch and sequential
  //    serving in lockstep); wear sampling stays per-slot.
  endurance_active_ = config_.endurance.enabled() || h.memristor.wear_enabled();
  substrates_.clear();
  if (endurance_active_) {
    const std::size_t physical_columns =
        std::max<std::size_t>(largest_leaf_, 2) + config_.endurance.spare_columns;
    const std::uint64_t noise_seed = mix64(h.seed + 0xEA51D00DULL);
    substrates_.reserve(config_.leaf_slots);
    for (std::size_t s = 0; s < config_.leaf_slots; ++s) {
      substrates_.push_back(std::make_shared<CrossbarSubstrate>(
          h.memristor, h.features.dimension(), physical_columns, noise_seed,
          mix64(noise_seed + s + 1)));
    }
  }
  slot_writes_ = std::make_unique<std::atomic<std::uint64_t>[]>(config_.leaf_slots);
  // A re-store serves a new template set: the traffic counters must not
  // blend the old workload into the new hit rate / amortized energy.
  reset_counters();
}

void LeafCacheEngine::reset_counters() {
  for (std::size_t s = 0; s < config_.leaf_slots; ++s) {
    slot_writes_[s].store(0, std::memory_order_relaxed);
  }
  for (std::atomic<std::uint64_t>* counter :
       {&queries_, &hits_, &misses_, &evictions_, &devices_written_, &columns_written_,
        &writes_saved_, &repair_writes_, &verify_scans_, &devices_checked_, &faults_detected_,
        &devices_rewritten_, &columns_remapped_, &repair_reloads_, &unrepairable_,
        &worn_out_devices_}) {
    counter->store(0, std::memory_order_relaxed);
  }
}

void LeafCacheEngine::preload() {
  for (std::size_t c = 0; c < members_.size(); ++c) {
    (void)ensure_resident(c);
  }
  SPINSIM_ASSERT(evictions_.load(std::memory_order_relaxed) == 0,
                 "LeafCacheEngine::preload: the pool must hold every leaf");
  reset_counters();
}

SpinAmm* LeafCacheEngine::ensure_resident(std::size_t cluster) {
  if (leaf_sets_[cluster].empty()) {
    return nullptr;  // singleton cluster, served by the router
  }
  ++lru_clock_;
  const std::ptrdiff_t have = slot_of_[cluster];
  if (have >= 0) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    slots_[static_cast<std::size_t>(have)].last_used = lru_clock_;
    return slots_[static_cast<std::size_t>(have)].engine.get();
  }

  const std::size_t victim = pick_victim();
  load_slot(victim, cluster, /*repair_reload=*/false);
  misses_.fetch_add(1, std::memory_order_relaxed);
  return slots_[victim].engine.get();
}

std::size_t LeafCacheEngine::pick_victim() {
  // Free slot first.
  if (slots_.size() < config_.leaf_slots) {
    slots_.emplace_back();
    return slots_.size() - 1;
  }

  // LRU among the unpinned slots.
  std::size_t victim = slots_.size();
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!pinned_[slots_[s].cluster] && slots_[s].last_used < oldest) {
      oldest = slots_[s].last_used;
      victim = s;
    }
  }
  require(victim < slots_.size(),
          "LeafCacheEngine: every leaf slot is pinned; cannot serve a miss");

  if (config_.endurance.policy == LeafSlotPolicy::kWearLeveled) {
    // Static wear leveling, flash-FTL style: while pool wear is balanced
    // the victim stays the LRU choice (best hit rate); once the gap
    // between the most- and least-written slots reaches wear_delta, the
    // incoming writes land on the least-worn unpinned slot instead,
    // capping the pool's maximum device wear.
    std::uint64_t lowest = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t highest = 0;
    std::size_t least_worn = slots_.size();
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      const std::uint64_t writes = slot_writes_[s].load(std::memory_order_relaxed);
      highest = std::max(highest, writes);
      if (!pinned_[slots_[s].cluster] && writes < lowest) {
        lowest = writes;
        least_worn = s;
      }
    }
    if (least_worn < slots_.size() && highest - lowest >= config_.endurance.wear_delta) {
      victim = least_worn;
    }
  }

  slot_of_[slots_[victim].cluster] = -1;
  if (!endurance_active_) {
    // A plain leaf stays as programmed: keep it for re-attach (load_slot).
    evicted_[slots_[victim].cluster] = std::move(slots_[victim].engine);
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return victim;
}

void LeafCacheEngine::load_slot(std::size_t slot_index, std::size_t cluster,
                                bool repair_reload) {
  // Absent endurance mode a leaf is a pure function of its cluster: the
  // module seeds from the cluster's own salt (hierarchical_module_config),
  // its WTA runs without thermal noise, and nothing writes it after
  // programming (verify_and_repair and inject_slot_fault need endurance
  // mode). So a cluster whose leaf was built before gets that very leaf
  // back, bit for bit what a rebuild would realise, and zeroing the
  // charged counters below charges its one programming again, exactly as
  // a rebuild would. Endurance mode always rebuilds: wear and delta
  // writes change the devices between loads.
  Slot& slot = slots_[slot_index];
  slot.cluster = cluster;
  slot.last_used = lru_clock_;
  slot.charged_writes = 0;
  slot.charged_skips = 0;
  slot.charged_columns = 0;
  slot.col_map.clear();
  if (evicted_[cluster] != nullptr) {
    slot.engine = std::move(evicted_[cluster]);
  } else {
    slot.engine = std::make_unique<SpinAmm>(
        hierarchical_module_config(config_.hierarchy, leaf_sets_[cluster].size(), cluster + 1));
    if (endurance_active_) {
      slot.col_map = substrates_[slot_index]->allocate_columns(leaf_sets_[cluster].size());
      slot.engine->attach_substrate(substrates_[slot_index], slot.col_map,
                                    config_.endurance.delta_writes);
    }
    slot.engine->store_templates(leaf_sets_[cluster]);
  }
  slot_of_[cluster] = static_cast<std::ptrdiff_t>(slot_index);
  charge_slot(slot_index, repair_reload);
  if (endurance_active_) {
    refresh_worn_count();
  }
}

void LeafCacheEngine::charge_slot(std::size_t slot_index, bool repair) {
  Slot& slot = slots_[slot_index];
  const RcmArray& rcm = slot.engine->crossbar();
  const std::uint64_t writes = rcm.device_writes() - slot.charged_writes;
  const std::uint64_t skips = rcm.device_write_skips() - slot.charged_skips;
  const std::uint64_t columns = rcm.columns_touched() - slot.charged_columns;
  slot.charged_writes += writes;
  slot.charged_skips += skips;
  slot.charged_columns += columns;
  devices_written_.fetch_add(writes, std::memory_order_relaxed);
  columns_written_.fetch_add(columns, std::memory_order_relaxed);
  writes_saved_.fetch_add(skips, std::memory_order_relaxed);
  if (repair) {
    repair_writes_.fetch_add(writes, std::memory_order_relaxed);
  }
  slot_writes_[slot_index].fetch_add(writes, std::memory_order_relaxed);
}

void LeafCacheEngine::maybe_verify(std::uint64_t served) {
  if (config_.endurance.verify_interval == 0 || !endurance_active_) {
    return;
  }
  queries_since_verify_ += served;
  if (queries_since_verify_ >= config_.endurance.verify_interval) {
    queries_since_verify_ = 0;
    verify_and_repair();
  }
}

bool LeafCacheEngine::verify_ok(double weight, double realised) const {
  const MemristorSpec& spec = config_.hierarchy.memristor;
  const double target = spec.level_conductance(spec.weight_to_level(weight));
  // The window is sized against full scale, not the target: the column
  // dot product weighs *absolute* conductance error, so a low-level
  // device drifted by a multiple of g_min is harmless while the same
  // relative error at g_max is not. A stuck-short (4x g_max) trips the
  // window for any target; a stuck-open only trips targets large enough
  // to actually move the dot product.
  return std::abs(realised - target) <= config_.endurance.verify_tolerance * spec.g_max();
}

void LeafCacheEngine::refresh_worn_count() {
  std::uint64_t worn = 0;
  for (const auto& substrate : substrates_) {
    worn += substrate->worn_out_devices();
  }
  worn_out_devices_.store(worn, std::memory_order_relaxed);
}

LeafRepairReport LeafCacheEngine::verify_and_repair() {
  require(router_ != nullptr, "LeafCacheEngine: store_templates() first");
  LeafRepairReport report;
  if (!endurance_active_) {
    return report;  // plain mode: no substrates, nothing to verify against
  }
  verify_scans_.fetch_add(1, std::memory_order_relaxed);

  const std::size_t dimension = config_.hierarchy.features.dimension();
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].engine == nullptr) {
      continue;
    }
    const std::size_t cluster = slots_[s].cluster;
    const std::vector<FeatureVector>& templates = leaf_sets_[cluster];
    RcmArray& rcm = slots_[s].engine->mutable_crossbar();

    // Verify-read every device against its programmed level window;
    // rewrite out-of-window devices in place, collect the columns whose
    // devices would not come back.
    std::vector<std::size_t> dead_columns;
    bool rewrote = false;
    for (std::size_t j = 0; j < templates.size(); ++j) {
      bool column_dead = false;
      for (std::size_t r = 0; r < dimension; ++r) {
        ++report.devices_checked;
        const double weight = templates[j].analog[r];
        if (verify_ok(weight, rcm.conductance(r, j))) {
          continue;
        }
        ++report.faults_detected;
        if (!config_.endurance.repair) {
          continue;  // detect-only control arm
        }
        bool fixed = false;
        for (std::size_t attempt = 0;
             attempt < config_.endurance.rewrite_attempts && !fixed; ++attempt) {
          rcm.program_cell(r, j, weight);
          rewrote = true;
          fixed = verify_ok(weight, rcm.conductance(r, j));
        }
        if (fixed) {
          ++report.devices_rewritten;
        } else {
          column_dead = true;
        }
      }
      if (column_dead) {
        dead_columns.push_back(j);
      }
    }
    if (rewrote) {
      rcm.equalize_rows();
    }
    charge_slot(s, /*repair=*/true);

    if (!dead_columns.empty() && config_.endurance.repair) {
      // Spare-column remap: retire the physical columns behind the dead
      // devices and reload the leaf on the remaining healthy columns
      // (delta reprogramming keeps the reload cheap — only the moved
      // columns rewrite). When the spare budget is gone the leaf keeps
      // serving degraded on retired columns.
      CrossbarSubstrate& substrate = *substrates_[s];
      for (const std::size_t j : dead_columns) {
        const std::size_t physical = slots_[s].col_map[j];
        if (!substrate.column_retired(physical)) {
          substrate.retire_column(physical);
          ++report.columns_remapped;
        }
      }
      if (substrate.healthy_columns() < templates.size()) {
        report.unrepairable +=
            static_cast<std::uint64_t>(templates.size() - substrate.healthy_columns());
      }
      slot_of_[cluster] = -1;
      load_slot(s, cluster, /*repair_reload=*/true);
      ++report.repair_reloads;
    }
  }

  devices_checked_.fetch_add(report.devices_checked, std::memory_order_relaxed);
  faults_detected_.fetch_add(report.faults_detected, std::memory_order_relaxed);
  devices_rewritten_.fetch_add(report.devices_rewritten, std::memory_order_relaxed);
  columns_remapped_.fetch_add(report.columns_remapped, std::memory_order_relaxed);
  repair_reloads_.fetch_add(report.repair_reloads, std::memory_order_relaxed);
  unrepairable_.fetch_add(report.unrepairable, std::memory_order_relaxed);
  refresh_worn_count();
  return report;
}

void LeafCacheEngine::inject_slot_fault(std::size_t slot, std::size_t row, std::size_t column,
                                        RcmArray::StuckFault fault) {
  require(router_ != nullptr, "LeafCacheEngine: store_templates() first");
  require(endurance_active_,
          "LeafCacheEngine::inject_slot_fault: requires endurance mode (substrate slots)");
  require(slot < config_.leaf_slots, "LeafCacheEngine::inject_slot_fault: slot out of range");
  CrossbarSubstrate& substrate = *substrates_[slot];
  if (slot < slots_.size() && slots_[slot].engine != nullptr) {
    const std::vector<std::size_t>& map = slots_[slot].col_map;
    for (std::size_t j = 0; j < map.size(); ++j) {
      if (map[j] == column) {
        // Resident and mapped: damage the live array, which writes the
        // failure through to the substrate itself.
        slots_[slot].engine->mutable_crossbar().inject_fault(row, j, fault);
        refresh_worn_count();
        return;
      }
    }
  }
  substrate.mark_failed(row, column,
                        fault == RcmArray::StuckFault::kOpen ? MemristorHealth::kStuckOpen
                                                             : MemristorHealth::kStuckShort);
  refresh_worn_count();
}

const CrossbarSubstrate& LeafCacheEngine::slot_substrate(std::size_t slot) const {
  require(endurance_active_, "LeafCacheEngine::slot_substrate: requires endurance mode");
  require(slot < substrates_.size(), "LeafCacheEngine::slot_substrate: slot out of range");
  return *substrates_[slot];
}

Recognition LeafCacheEngine::recognize(const FeatureVector& input) {
  require(router_ != nullptr, "LeafCacheEngine: store_templates() before recognition");

  const Recognition routed = router_->recognize(input);
  const std::size_t cluster = routed.winner;
  queries_.fetch_add(1, std::memory_order_relaxed);
  maybe_verify(1);

  const auto& member_list = members_[cluster];
  SPINSIM_ASSERT(!member_list.empty(), "LeafCacheEngine: routed to an empty cluster");
  SpinAmm* leaf = ensure_resident(cluster);
  if (leaf == nullptr) {
    // Singleton cluster: the router answered it; no slot was consulted,
    // so neither hit nor miss is charged.
    Recognition single = routed;
    single.unique = true;
    return finish_routed(single, routed, cluster, member_list.front(),
                         config_.hierarchy.accept_threshold);
  }

  const Recognition answer = leaf->recognize(input);
  return finish_routed(answer, routed, cluster, member_list[answer.winner],
                       config_.hierarchy.accept_threshold);
}

std::vector<Recognition> LeafCacheEngine::recognize_batch(const std::vector<FeatureVector>& inputs,
                                                          std::size_t threads) {
  require(router_ != nullptr, "LeafCacheEngine: store_templates() before recognition");

  std::vector<Recognition> results(inputs.size());
  if (inputs.empty()) {
    return results;
  }

  // Stage 1: route every input in one router batch.
  const std::vector<Recognition> routed = router_->recognize_batch(inputs, threads);
  queries_.fetch_add(inputs.size(), std::memory_order_relaxed);

  // Stage 2: group queries per cluster (input order preserved within each
  // group) — the whole group shares at most one reprogram. Groups whose
  // leaf is already resident are served first (pure hits, touching no
  // slot contents), then the misses, each partition in ascending cluster
  // order: a miss can then only evict a leaf whose group was already
  // served, so extra slots actually raise the hit rate instead of being
  // scanned over, and the order derives purely from the (deterministic)
  // cache state at batch start, keeping the eviction schedule identical
  // under any thread count.
  std::vector<std::vector<std::size_t>> by_cluster(members_.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    by_cluster[routed[i].winner].push_back(i);
  }
  std::vector<std::size_t> serve_order;
  serve_order.reserve(members_.size());
  for (std::size_t c = 0; c < members_.size(); ++c) {
    if (!by_cluster[c].empty() && slot_of_[c] >= 0) {
      serve_order.push_back(c);
    }
  }
  for (std::size_t c = 0; c < members_.size(); ++c) {
    if (!by_cluster[c].empty() && slot_of_[c] < 0) {
      serve_order.push_back(c);
    }
  }

  for (const std::size_t c : serve_order) {
    const auto& member_list = members_[c];
    SPINSIM_ASSERT(!member_list.empty(), "LeafCacheEngine: routed to an empty cluster");
    SpinAmm* leaf = ensure_resident(c);
    if (leaf == nullptr) {
      for (const std::size_t i : by_cluster[c]) {
        Recognition single = routed[i];
        single.unique = true;
        results[i] = finish_routed(single, routed[i], c, member_list.front(),
                                   config_.hierarchy.accept_threshold);
      }
      continue;
    }
    // The whole group rides the one residency check above: count the
    // queries beyond the first as hits so hit_rate reflects miss-cost
    // sharing the same way sequential recognize() accounting would see
    // repeated visits to a resident leaf.
    hits_.fetch_add(by_cluster[c].size() - 1, std::memory_order_relaxed);
    std::vector<FeatureVector> leaf_inputs;
    leaf_inputs.reserve(by_cluster[c].size());
    for (const std::size_t i : by_cluster[c]) {
      leaf_inputs.push_back(inputs[i]);
    }
    const std::vector<Recognition> leaf_results = leaf->recognize_batch(leaf_inputs, threads);
    for (std::size_t k = 0; k < by_cluster[c].size(); ++k) {
      const std::size_t i = by_cluster[c][k];
      results[i] = finish_routed(leaf_results[k], routed[i], c, member_list[leaf_results[k].winner],
                                 config_.hierarchy.accept_threshold);
    }
  }
  maybe_verify(inputs.size());
  return results;
}

void LeafCacheEngine::pin(std::size_t cluster) {
  require(cluster < pinned_.size(), "LeafCacheEngine::pin: cluster out of range");
  if (pinned_[cluster] || leaf_sets_[cluster].empty()) {
    // Singleton clusters are answered by the router and never occupy a
    // slot, so pinning one is a no-op — and must not eat the pin budget.
    return;
  }
  std::size_t already_pinned = 0;
  std::size_t eligible = 0;  // clusters that can ever occupy a slot
  for (std::size_t c = 0; c < pinned_.size(); ++c) {
    already_pinned += (pinned_[c] && !leaf_sets_[c].empty()) ? 1 : 0;
    eligible += leaf_sets_[c].empty() ? 0 : 1;
  }
  // Pinning must leave a slot serviceable for misses — unless every
  // slot-eligible cluster fits in the pool at once, in which case no
  // miss can ever need an eviction and any pin mix is safe.
  require(already_pinned + 1 < config_.leaf_slots || config_.leaf_slots >= eligible,
          "LeafCacheEngine::pin: at least one slot must stay unpinned");
  pinned_[cluster] = true;
}

void LeafCacheEngine::unpin(std::size_t cluster) {
  require(cluster < pinned_.size(), "LeafCacheEngine::unpin: cluster out of range");
  pinned_[cluster] = false;
}

bool LeafCacheEngine::pinned(std::size_t cluster) const {
  require(cluster < pinned_.size(), "LeafCacheEngine::pinned: cluster out of range");
  return pinned_[cluster];
}

bool LeafCacheEngine::resident(std::size_t cluster) const {
  require(cluster < slot_of_.size(), "LeafCacheEngine::resident: cluster out of range");
  return slot_of_[cluster] >= 0;
}

const std::vector<std::size_t>& LeafCacheEngine::leaf_members(std::size_t cluster) const {
  require(cluster < members_.size(), "LeafCacheEngine::leaf_members: out of range");
  return members_[cluster];
}

LeafCacheCounters LeafCacheEngine::counters() const {
  LeafCacheCounters out;
  // Per-event counters before the total, so a mid-traffic snapshot never
  // shows more hits+misses than queries admitted.
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.queries = queries_.load(std::memory_order_relaxed);
  out.reprograms = out.misses;
  out.device_writes = devices_written_.load(std::memory_order_relaxed);
  out.device_writes_saved = writes_saved_.load(std::memory_order_relaxed);
  out.repair_device_writes = repair_writes_.load(std::memory_order_relaxed);
  out.verify_scans = verify_scans_.load(std::memory_order_relaxed);
  out.devices_checked = devices_checked_.load(std::memory_order_relaxed);
  out.faults_detected = faults_detected_.load(std::memory_order_relaxed);
  out.devices_rewritten = devices_rewritten_.load(std::memory_order_relaxed);
  out.columns_remapped = columns_remapped_.load(std::memory_order_relaxed);
  out.repair_reloads = repair_reloads_.load(std::memory_order_relaxed);
  out.unrepairable = unrepairable_.load(std::memory_order_relaxed);
  out.worn_out_devices = worn_out_devices_.load(std::memory_order_relaxed);
  if (slot_writes_ != nullptr) {
    out.slot_write_cycles.reserve(config_.leaf_slots);
    for (std::size_t s = 0; s < config_.leaf_slots; ++s) {
      out.slot_write_cycles.push_back(slot_writes_[s].load(std::memory_order_relaxed));
    }
  }
  out.reprogram_energy =
      config_.write_cost.device_write_energy(config_.hierarchy.memristor) *
      static_cast<double>(out.device_writes);
  out.repair_energy =
      config_.write_cost.device_write_energy(config_.hierarchy.memristor) *
      static_cast<double>(out.repair_device_writes);
  out.reprogram_latency = config_.write_cost.array_write_latency(
      static_cast<std::size_t>(columns_written_.load(std::memory_order_relaxed)));
  return out;
}

PowerReport LeafCacheEngine::module_power(std::size_t columns) const {
  return spin_amm_power(hierarchical_module_design(config_.hierarchy, columns));
}

PowerReport LeafCacheEngine::active_path_power() const {
  require(router_ != nullptr, "LeafCacheEngine: store_templates() first");
  PowerReport combined;
  combined.add_all_prefixed("router: ", module_power(config_.hierarchy.clusters));
  combined.add_all_prefixed("leaf: ", module_power(largest_leaf_));
  return combined;
}

EnergyPerQuery LeafCacheEngine::search_energy_per_query() const {
  const HierarchicalAmmConfig& h = config_.hierarchy;
  return active_path_power().total() * static_cast<double>(h.wta_bits) / (h.clock * units::Hz) /
         units::query;
}

EnergyPerQuery LeafCacheEngine::energy_per_query() const {
  const EnergyPerQuery search = search_energy_per_query();
  const std::uint64_t devices = devices_written_.load(std::memory_order_relaxed);
  const std::uint64_t queries = queries_.load(std::memory_order_relaxed);
  const Energy device_energy = config_.write_cost.device_write_energy(config_.hierarchy.memristor);
  if (queries == 0) {
    // No traffic yet: assume every query misses the largest leaf — the
    // conservative upper bound, mirroring TieredEngine's convention.
    const Energy all_miss = device_energy *
                            static_cast<double>(config_.hierarchy.features.dimension()) *
                            static_cast<double>(std::max<std::size_t>(largest_leaf_, 2));
    return search + all_miss / units::query;
  }
  return search + device_energy * static_cast<double>(devices) /
                      Queries{static_cast<double>(queries)};
}

PowerReport LeafCacheEngine::power() const {
  const HierarchicalAmmConfig& h = config_.hierarchy;
  PowerReport combined = active_path_power();
  // Amortized write power at the observed miss mix: reprogram energy per
  // query times the design's query rate (one M-cycle search per query).
  const EnergyPerQuery write_energy_per_query =
      LeafCacheEngine::energy_per_query() - search_energy_per_query();
  const auto query_rate = (h.clock * units::Hz) / static_cast<double>(h.wta_bits) * units::query;
  combined.add("write: reprogram (amortized)", PowerKind::kDynamic,
               write_energy_per_query * query_rate);
  return combined;
}

}  // namespace spinsim
