/// \file leaf_cache_engine.hpp
/// The two-level hierarchy of the paper's Section 5, served from a
/// bounded pool of crossbar slots.
///
/// "Very large number of images can be grouped into smaller clusters
/// [25], that can be hierarchically stored in the multiple RCM modules."
/// Templates are k-means-clustered in feature space; a *router* module
/// stores the cluster centroids and each cluster's member templates form
/// one *leaf*. A lookup activates the k-column router plus one ~N/k-column
/// leaf instead of one N-column WTA, and power follows that active path.
///
/// The HTM follow-on (Fan et al., arXiv:1402.2902) touches only a small
/// active subset of pattern memory per query — the access pattern a leaf
/// cache exploits. LeafCacheEngine owns `leaf_slots` programmable
/// crossbar slots. The router picks the candidate cluster; if that
/// cluster's templates are resident in a slot the query is a *hit* and
/// costs one leaf search, otherwise the engine evicts the
/// least-recently-used unpinned slot, programs the cluster's templates
/// into it (a *miss*), and charges the write path — priced by
/// CrossbarWriteCost — into its counters, power() and energy_per_query().
///
/// Every module derives its configuration from the cluster index alone,
/// so a reprogrammed leaf realises the same device noise as the leaf it
/// replaces and the answers do not depend on the pool size: it only moves
/// the hit rate, i.e. the energy/latency story. Absent endurance mode a
/// leaf is a pure function of its cluster: its seed comes from the
/// cluster index, its WTA runs without thermal noise, and nothing writes
/// it after programming. So eviction keeps the realised leaf, and the
/// cluster's next miss re-attaches it to a slot and charges its one
/// programming again instead of building a bit-identical copy. The host
/// then holds at most one realised leaf per touched cluster, while the
/// modelled pool stays `leaf_slots` crossbars. Endurance mode rebuilds on
/// every miss, since wear and delta writes change the devices between
/// loads. HierarchicalAmm (hierarchical_amm.hpp) is this engine with one
/// slot per cluster, every leaf programmed at store time.
///
/// recognize_batch() groups queries by target cluster so one reprogram
/// serves every query of the batch headed to that cluster — miss-cost
/// sharing. Resident clusters are served before misses (each partition in
/// ascending index order), so a miss only ever evicts a leaf whose group
/// was already served; the order derives purely from the cache state at
/// batch start, keeping the eviction schedule deterministic under any
/// thread count.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "amm/engine.hpp"
#include "amm/spin_amm.hpp"
#include "crossbar/wear.hpp"
#include "energy/write_cost.hpp"

namespace spinsim {

/// Knobs of the two-level hierarchy: clustering plus the router and leaf
/// modules' design point.
struct HierarchicalAmmConfig {
  FeatureSpec features;
  std::size_t clusters = 8;       ///< router fan-out (k)
  unsigned wta_bits = 5;
  DwnParams dwn;
  MemristorSpec memristor;
  double delta_v = 30e-3;
  double clock = 100e6;
  bool sample_mismatch = true;
  /// Leaf DOM below this rejects the match (same semantics as
  /// SpinAmmConfig::accept_threshold; singleton clusters are judged on
  /// the router DOM, the only degree of match their path produces).
  std::uint32_t accept_threshold = 0;
  std::size_t kmeans_iterations = 50;
  std::uint64_t seed = 2013;
};

/// Eviction policy of the slot pool.
enum class LeafSlotPolicy {
  kLru,          ///< evict the least-recently-used unpinned slot
  kWearLeveled,  ///< LRU until pool wear skews, then least-worn (FTL-style)
};

/// Endurance / self-repair knobs. Everything defaults off, and the
/// engine then behaves exactly like the plain leaf cache (answers
/// independent of the pool size). Enabling any feature — or enabling
/// wear on the hierarchy's MemristorSpec — switches the pool to
/// substrate-backed slots: each slot's physical devices keep wear,
/// realised state, and fault history across reprograms, and write noise
/// comes from per-device keyed streams (see wear.hpp). Batch and
/// sequential serving still agree answer-for-answer, but answers are no
/// longer bit-identical to the plain pool's: the device noise is
/// statistically identical, drawn differently.
struct LeafCacheEnduranceConfig {
  /// Delta reprogramming: on a miss into a previously used slot, write
  /// only devices whose target level differs from the recorded state.
  bool delta_writes = false;
  LeafSlotPolicy policy = LeafSlotPolicy::kLru;
  /// Wear-leveling trigger: once the gap between the most- and
  /// least-written unpinned slots reaches this many device writes, the
  /// next victim is the least-worn slot instead of the LRU one.
  std::uint64_t wear_delta = 4096;
  /// Spare physical columns per slot — the self-repair remap budget.
  std::size_t spare_columns = 0;
  /// Run a verify-read scan every this many queries (0 disables).
  std::uint64_t verify_interval = 0;
  /// Repair what a scan finds (in-place rewrite, then spare-column
  /// remap). False leaves the scan detect-only — the unrepaired control
  /// arm of the endurance harness.
  bool repair = true;
  /// Half-width of the conductance window a verify-read accepts around
  /// the programmed level's target, as a fraction of the full-scale
  /// (top-level) conductance — absolute error is what the column dot
  /// product sees, so a drifted low-level device with negligible
  /// absolute error is not flagged.
  double verify_tolerance = 0.25;
  /// In-place rewrites attempted before a device is declared dead and
  /// its column remapped.
  std::size_t rewrite_attempts = 2;

  bool enabled() const {
    return delta_writes || policy != LeafSlotPolicy::kLru || spare_columns > 0 ||
           verify_interval > 0;
  }
};

/// Knobs of the leaf-cache engine.
struct LeafCacheEngineConfig {
  /// Clustering + module configuration.
  HierarchicalAmmConfig hierarchy;
  /// Programmed crossbar slots available for leaves. With
  /// leaf_slots >= hierarchy.clusters nothing is ever evicted.
  std::size_t leaf_slots = 4;
  /// Write-path pricing charged on every miss.
  CrossbarWriteCost write_cost;
  /// Endurance, wear-leveling and self-repair (default: all off).
  LeafCacheEnduranceConfig endurance;
};

/// Running totals of one LeafCacheEngine (snapshot of atomic counters).
struct LeafCacheCounters {
  std::uint64_t queries = 0;      ///< recognitions served
  /// Slot lookups that found the leaf resident. Singleton clusters are
  /// answered by the router without consulting a slot and count neither
  /// as hit nor as miss.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       ///< leaf had to be programmed
  std::uint64_t evictions = 0;    ///< a resident leaf was displaced
  std::uint64_t reprograms = 0;   ///< arrays programmed (== misses)
  Energy reprogram_energy;        ///< total write energy charged
  /// Subset of reprogram_energy spent by self-repair rewrites (priced at
  /// the same per-device write cost as the miss path).
  Energy repair_energy;
  Time reprogram_latency;         ///< total write wall-clock charged

  // Endurance / self-repair accounting:
  std::uint64_t device_writes = 0;        ///< physical device writes performed
  std::uint64_t device_writes_saved = 0;  ///< writes avoided by delta reprogramming
  std::uint64_t repair_device_writes = 0; ///< subset of device_writes from repair rewrites
  std::uint64_t verify_scans = 0;         ///< verify-read passes run
  std::uint64_t devices_checked = 0;      ///< verify-reads performed
  std::uint64_t faults_detected = 0;      ///< verify-reads out of window
  std::uint64_t devices_rewritten = 0;    ///< in-place repairs that restored the window
  std::uint64_t columns_remapped = 0;     ///< physical columns retired to spares
  std::uint64_t repair_reloads = 0;       ///< slot reloads forced by remaps
  std::uint64_t unrepairable = 0;         ///< faults left in service (spares exhausted)
  std::uint64_t worn_out_devices = 0;     ///< devices currently stuck (wear or field faults)
  /// Per-slot cumulative device writes — the pool's wear histogram.
  std::vector<std::uint64_t> slot_write_cycles;

  std::uint64_t max_slot_write_cycles() const {
    std::uint64_t worst = 0;
    for (const std::uint64_t w : slot_write_cycles) {
      worst = std::max(worst, w);
    }
    return worst;
  }

  double hit_rate() const {
    const std::uint64_t looked = hits + misses;
    return looked == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(looked);
  }
};

/// Outcome of one verify-and-repair pass over the resident slots.
struct LeafRepairReport {
  std::uint64_t devices_checked = 0;
  std::uint64_t faults_detected = 0;
  std::uint64_t devices_rewritten = 0;
  std::uint64_t columns_remapped = 0;
  std::uint64_t repair_reloads = 0;
  std::uint64_t unrepairable = 0;
};

/// Hierarchical AMM over a bounded pool of on-demand-programmed leaves.
class LeafCacheEngine : public AssociativeEngine {
 public:
  explicit LeafCacheEngine(const LeafCacheEngineConfig& config);

  const LeafCacheEngineConfig& config() const { return config_; }

  std::string name() const override { return "leaf-cache"; }
  std::size_t template_count() const override { return total_templates_; }

  /// Clusters the templates (k-means over the analog vectors on the
  /// config's seed), programs the router, and records the per-cluster
  /// template slices — but programs no leaf: leaves are materialised on
  /// first touch.
  void store_templates(const std::vector<FeatureVector>& templates) override;

  /// Routed recognition through the slot pool: router -> ensure the
  /// winning cluster's leaf is resident (programming on a miss) -> leaf
  /// search. Winner is the *global* template index; dom is the winning
  /// leaf's degree of match; the detail holds the routing decision
  /// (cluster, router dom, router runner-up dom). The margin is the
  /// leaf-local margin capped by the router's relative score gap, so it
  /// never overstates confidence against templates the visited leaf
  /// could not see (the rule escalation policies key on).
  Recognition recognize(const FeatureVector& input) override;

  /// Batched routed recognition with miss-cost sharing: all inputs are
  /// routed in one router batch, grouped by cluster, and each group is
  /// served by at most one reprogram. Winner-for-winner identical to a
  /// sequential loop of recognize() (leaves are deterministic modules),
  /// whatever `threads` resolves to.
  std::vector<Recognition> recognize_batch(const std::vector<FeatureVector>& inputs,
                                           std::size_t threads = 0) override;

  /// Pins `cluster`: once resident its slot is never evicted. At least
  /// one slot must stay unpinned so misses remain serviceable — unless
  /// the pool holds every slot-eligible cluster at once, in which case
  /// any pin mix is safe. Pinning does not itself load the cluster.
  void pin(std::size_t cluster);

  /// Unpins `cluster` (no-op when not pinned).
  void unpin(std::size_t cluster);

  bool pinned(std::size_t cluster) const;

  /// True when `cluster`'s leaf currently occupies a slot. Singleton
  /// clusters never occupy one (the router answers them outright).
  bool resident(std::size_t cluster) const;

  std::size_t cluster_count() const { return members_.size(); }

  /// Global template indices stored in cluster `cluster`.
  const std::vector<std::size_t>& leaf_members(std::size_t cluster) const;

  /// Counter snapshot (safe while traffic is in flight).
  LeafCacheCounters counters() const;

  /// Verify-reads every resident device against its programmed level
  /// window and (with `endurance.repair`) fixes what it finds: stuck,
  /// worn-out, or drifted devices get up to `rewrite_attempts` in-place
  /// rewrites; a device that stays out of window retires its physical
  /// column and the leaf reloads on the remaining healthy columns (spare
  /// remap). Runs automatically every `verify_interval` queries; callable
  /// directly from the serving thread. No-op without endurance mode.
  LeafRepairReport verify_and_repair();

  /// Injects a permanent stuck fault into physical device (row, column)
  /// of slot `slot` — `column` indexes the substrate, not the leaf. The
  /// damage persists across reprograms; when the slot currently maps
  /// that column, the live array is damaged immediately. Requires
  /// endurance mode (substrate-backed slots).
  void inject_slot_fault(std::size_t slot, std::size_t row, std::size_t column,
                         RcmArray::StuckFault fault);

  /// Physical substrate of slot `slot` (inspection; endurance mode only).
  const CrossbarSubstrate& slot_substrate(std::size_t slot) const;

  /// Search power of the active path: the router's items prefixed
  /// "router: ", then the worst-case leaf's prefixed "leaf: ".
  PowerReport active_path_power() const;

  /// active_path_power() plus an amortized "write: reprogram" item at the
  /// observed miss rate.
  PowerReport power() const override;

  /// Energy of one query: router + worst-case leaf search, plus the
  /// observed reprogram energy amortized over the queries served. Before
  /// any traffic it conservatively assumes every query misses the
  /// largest leaf. Safe to call concurrently with recognition.
  EnergyPerQuery energy_per_query() const override;

 protected:
  /// Programs every slot-eligible cluster in ascending order, then zeroes
  /// every counter: set-up, so the writes are not charged. The pool must
  /// hold every slot-eligible cluster. Call after store_templates().
  void preload();

  /// Router search followed by one worst-case leaf search, each an
  /// M-cycle SAR/WTA conversion of the active path's modules.
  EnergyPerQuery search_energy_per_query() const;

  /// Power model of one module of the hierarchy with `columns` columns.
  PowerReport module_power(std::size_t columns) const;

 private:
  struct Slot {
    std::size_t cluster = 0;
    std::unique_ptr<SpinAmm> engine;
    std::uint64_t last_used = 0;
    std::vector<std::size_t> col_map;  // leaf column -> physical column
    // Per-engine-instance write counters already charged (the RcmArray
    // counters are cumulative per instance; repairs keep writing into a
    // live instance, so charges are taken as deltas against these).
    std::uint64_t charged_writes = 0;
    std::uint64_t charged_skips = 0;
    std::uint64_t charged_columns = 0;
  };

  /// Returns the resident leaf for `cluster`, programming it into a slot
  /// first when absent. nullptr for singleton clusters.
  SpinAmm* ensure_resident(std::size_t cluster);
  /// Frees a slot for an incoming leaf (grow, LRU, or wear-leveled pick).
  std::size_t pick_victim();
  /// Loads `cluster` into slot `slot` (re-attaching its evicted plain
  /// leaf, else programming a new one) and charges the write path.
  void load_slot(std::size_t slot, std::size_t cluster, bool repair_reload);
  /// Charges the slot engine's un-charged writes into the counters.
  void charge_slot(std::size_t slot, bool repair);
  /// Triggers verify_and_repair() every endurance.verify_interval queries.
  void maybe_verify(std::uint64_t served);
  bool verify_ok(double weight, double realised) const;
  void refresh_worn_count();
  void reset_counters();

  LeafCacheEngineConfig config_;
  std::unique_ptr<SpinAmm> router_;
  std::vector<std::vector<std::size_t>> members_;       // cluster -> global indices
  std::vector<std::vector<FeatureVector>> leaf_sets_;   // cluster -> template slice
  std::vector<bool> pinned_;
  std::size_t total_templates_ = 0;
  std::size_t largest_leaf_ = 0;

  // Threading: all cache state below (slots, residency map, LRU clock,
  // substrates, verify cadence) is owned by the single serving thread —
  // one LeafCacheEngine belongs to one shard worker, and the service's
  // scrub calls arrive on that same worker. The std::atomic counters
  // further down are the one cross-thread surface: counters() snapshots
  // them from the stats/repair-alarm path while serving is in flight.
  // Relaxed everywhere — independent monotonic tallies, no snapshot
  // invariant spans two counters.
  std::vector<Slot> slots_;
  std::vector<std::ptrdiff_t> slot_of_;  // cluster -> slot index, -1 if absent
  // cluster -> its evicted leaf, kept for re-attach on the next miss; null
  // while resident or never built (plain mode only; see load_slot).
  std::vector<std::unique_ptr<SpinAmm>> evicted_;
  std::uint64_t lru_clock_ = 0;

  // Endurance mode (set in store_templates): substrate-backed slots.
  bool endurance_active_ = false;
  std::vector<std::shared_ptr<CrossbarSubstrate>> substrates_;  // per slot
  std::uint64_t queries_since_verify_ = 0;  // serving thread only

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  // Write-path charges in integer device/column units so the atomics stay
  // lock-free; energies are priced at read time from the write-cost model.
  std::atomic<std::uint64_t> devices_written_{0};
  std::atomic<std::uint64_t> columns_written_{0};
  std::atomic<std::uint64_t> writes_saved_{0};
  std::atomic<std::uint64_t> repair_writes_{0};
  std::atomic<std::uint64_t> verify_scans_{0};
  std::atomic<std::uint64_t> devices_checked_{0};
  std::atomic<std::uint64_t> faults_detected_{0};
  std::atomic<std::uint64_t> devices_rewritten_{0};
  std::atomic<std::uint64_t> columns_remapped_{0};
  std::atomic<std::uint64_t> repair_reloads_{0};
  std::atomic<std::uint64_t> unrepairable_{0};
  std::atomic<std::uint64_t> worn_out_devices_{0};
  // Per-slot cumulative device writes (the wear histogram); allocated at
  // store_templates (atomics are not movable, so a fixed array instead
  // of a vector) so concurrent counters() reads stay race-free against
  // serving-thread updates.
  std::unique_ptr<std::atomic<std::uint64_t>[]> slot_writes_;
};

}  // namespace spinsim
