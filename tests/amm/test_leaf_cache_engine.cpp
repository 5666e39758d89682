/// LeafCacheEngine: cache-policy accounting (hit/evict/pin), equivalence
/// with a fully resident HierarchicalAmm under any pool size (including
/// the forced-capacity-1 thrash case), batch miss-cost sharing, and the
/// determinism of the cluster-reordered batch path under parallel_for.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "amm/hierarchical_amm.hpp"
#include "amm/leaf_cache_engine.hpp"
#include "support/random_features.hpp"
#include "support/shared_dataset.hpp"

namespace spinsim {
namespace {

FeatureSpec small_spec() {
  FeatureSpec s;
  s.height = 8;
  s.width = 6;
  s.bits = 5;
  return s;
}

HierarchicalAmmConfig hierarchy_config(std::size_t clusters, std::uint64_t seed = 17) {
  HierarchicalAmmConfig c;
  c.features = small_spec();
  c.clusters = clusters;
  c.dwn = DwnParams::from_barrier(20.0);
  c.seed = seed;
  return c;
}

std::vector<FeatureVector> all_inputs() {
  std::vector<FeatureVector> inputs;
  for (const auto& sample : testing::small_dataset().all()) {
    inputs.push_back(extract_features(sample.image, small_spec()));
  }
  return inputs;
}

void expect_same_recognition(const Recognition& got, const Recognition& expected,
                             const char* what, std::size_t index) {
  EXPECT_EQ(got.winner, expected.winner) << what << " input " << index;
  EXPECT_EQ(got.unique, expected.unique) << what << " input " << index;
  EXPECT_EQ(got.dom, expected.dom) << what << " input " << index;
  EXPECT_EQ(got.score, expected.score) << what << " input " << index;
  EXPECT_EQ(got.margin, expected.margin) << what << " input " << index;
  EXPECT_EQ(got.accepted, expected.accepted) << what << " input " << index;
  ASSERT_NE(got.hierarchical(), nullptr) << what << " input " << index;
  ASSERT_NE(expected.hierarchical(), nullptr) << what << " input " << index;
  EXPECT_EQ(got.hierarchical()->cluster, expected.hierarchical()->cluster)
      << what << " input " << index;
  EXPECT_EQ(got.hierarchical()->router_dom, expected.hierarchical()->router_dom)
      << what << " input " << index;
}

TEST(LeafCacheEngine, PoolCoveringAllClustersIsBitIdenticalToHierarchical) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  HierarchicalAmm flat(hierarchy_config(3));
  flat.store_templates(templates);

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 3;  // pool >= clusters: nothing is ever evicted
  LeafCacheEngine cached(config);
  cached.store_templates(templates);

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_same_recognition(cached.recognize(inputs[i]), flat.recognize(inputs[i]),
                            "full pool", i);
  }
  const LeafCacheCounters counters = cached.counters();
  EXPECT_EQ(counters.evictions, 0u);
  EXPECT_EQ(counters.queries, inputs.size());
  // Each non-singleton cluster is programmed at most once.
  EXPECT_LE(counters.misses, cached.cluster_count());
  EXPECT_EQ(counters.reprograms, counters.misses);
}

TEST(LeafCacheEngine, CapacityOneThrashStillMatchesHierarchical) {
  // The adversarial case: a single slot serving three clusters thrashes
  // on nearly every cluster switch — yet every answer must stay
  // winner-for-winner (indeed field-for-field) identical to the fully
  // resident hierarchy, because a reprogrammed leaf realises the same
  // device noise as the one it displaced.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  HierarchicalAmm flat(hierarchy_config(3));
  flat.store_templates(templates);

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 1;
  LeafCacheEngine cached(config);
  cached.store_templates(templates);

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_same_recognition(cached.recognize(inputs[i]), flat.recognize(inputs[i]),
                            "capacity 1", i);
  }
  const LeafCacheCounters counters = cached.counters();
  EXPECT_GT(counters.misses, 1u);
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_GT(counters.reprogram_energy, Energy{});
  EXPECT_GT(counters.reprogram_latency, Time{});
}

TEST(LeafCacheEngine, CapacityOneReloadOfAnAllZeroClusterMatchesHierarchical) {
  // A leaf of all-zero templates finds no positive self-match, so its
  // calibration keeps the analytic-scale input-DAC bank. The one slot
  // evicts that leaf and re-attaches it on every switch back, and a
  // re-attached leaf must answer exactly as a fresh build of it does
  // (HierarchicalAmm preloads fresh builds). The other templates are dark
  // in the lower half of the rows; queries lit only there tie every
  // router column, and seed 19 numbers the all-zero leaf cluster 0, which
  // a tie routes to. Queries lit all over alternate with them, so the one
  // slot reloads on every switch.
  const FeatureSpec spec = small_spec();
  const std::size_t half = spec.dimension() / 2;
  Rng rng(31);
  const auto lit = [&](std::size_t from, std::size_t to) {
    FeatureVector f = testing::random_feature_vector(spec, rng);
    for (std::size_t r = 0; r < spec.dimension(); ++r) {
      if (r < from || r >= to) {
        f.digital[r] = 0;
        f.analog[r] = 0.0;
      }
    }
    return f;
  };
  std::vector<FeatureVector> templates(2, lit(0, 0));
  // Two tight groups of four around two prototypes, so k-means keeps the
  // all-zero pair as a leaf of its own.
  for (const FeatureVector& prototype : {lit(0, half), lit(0, half)}) {
    for (std::uint32_t step = 0; step < 4; ++step) {
      FeatureVector t = prototype;
      for (std::size_t r = 0; r < half; ++r) {
        t.digital[r] = std::min(t.digital[r] + step, spec.levels() - 1);
        t.analog[r] = static_cast<double>(t.digital[r]) / static_cast<double>(spec.levels() - 1);
      }
      templates.push_back(t);
    }
  }
  std::vector<FeatureVector> inputs;
  for (std::size_t q = 0; q < 240; ++q) {
    inputs.push_back(q % 2 == 0 ? lit(half, spec.dimension()) : lit(0, spec.dimension()));
  }

  HierarchicalAmm flat(hierarchy_config(3, 19));
  flat.store_templates(templates);

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3, 19);
  config.leaf_slots = 1;
  LeafCacheEngine cached(config);
  cached.store_templates(templates);
  ASSERT_EQ(cached.leaf_members(0), (std::vector<std::size_t>{0, 1}))
      << "seed 19 no longer makes the all-zero pair leaf 0";

  std::size_t zero_reloads = 0;
  std::size_t previous = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Recognition got = cached.recognize(inputs[i]);
    expect_same_recognition(got, flat.recognize(inputs[i]), "all-zero leaf", i);
    const std::size_t cluster = got.hierarchical()->cluster;
    zero_reloads += (i > 0 && cluster == 0 && previous != 0) ? 1 : 0;
    previous = cluster;
  }
  EXPECT_GT(zero_reloads, 50u);
}

TEST(LeafCacheEngine, CapacityOneRestoreAfterThrashMatchesHierarchical) {
  // Re-storing a different template set drops every kept leaf: the new
  // leaves share the old ones' seeds but not their templates, so a leaf
  // kept from the first set and re-attached would still answer with the
  // old templates. After the thrash, evicted leaves are kept for re-attach.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  TemplateOptions untrimmed;
  untrimmed.level_trim = false;
  const auto others = build_templates(testing::small_dataset(), small_spec(), untrimmed);
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 1;
  LeafCacheEngine cached(config);
  cached.store_templates(templates);
  for (const auto& input : inputs) {
    (void)cached.recognize(input);
  }
  ASSERT_GT(cached.counters().evictions, 0u);

  HierarchicalAmm flat(hierarchy_config(3));
  flat.store_templates(others);
  cached.store_templates(others);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_same_recognition(cached.recognize(inputs[i]), flat.recognize(inputs[i]),
                            "re-stored", i);
  }
  EXPECT_GT(cached.counters().evictions, 0u);
}

TEST(LeafCacheEngine, HitEvictPinAccounting) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  // Seed 19 clusters the 10-identity set into three non-singleton
  // leaves (6/2/2), which the pin/evict choreography below needs.
  config.hierarchy = hierarchy_config(3, 19);
  config.leaf_slots = 2;
  LeafCacheEngine cached(config);
  cached.store_templates(templates);

  // Find one representative query per non-singleton cluster by asking
  // the engine itself where it routes.
  std::vector<std::ptrdiff_t> probe_of_cluster(cached.cluster_count(), -1);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Recognition r = cached.recognize(inputs[i]);
    const std::size_t c = r.hierarchical()->cluster;
    if (probe_of_cluster[c] < 0 && cached.leaf_members(c).size() >= 2) {
      probe_of_cluster[c] = static_cast<std::ptrdiff_t>(i);
    }
  }
  std::vector<std::size_t> leaf_clusters;
  for (std::size_t c = 0; c < cached.cluster_count(); ++c) {
    if (probe_of_cluster[c] >= 0) {
      leaf_clusters.push_back(c);
    }
  }
  ASSERT_GE(leaf_clusters.size(), 3u) << "dataset no longer spreads over three leaf clusters";

  const auto probe = [&](std::size_t cluster) {
    (void)cached.recognize(inputs[static_cast<std::size_t>(probe_of_cluster[cluster])]);
  };

  // Revisiting a resident cluster is a pure hit.
  const LeafCacheCounters before = cached.counters();
  ASSERT_TRUE(cached.resident(leaf_clusters[2]) || cached.resident(leaf_clusters[1]));
  const std::size_t resident_cluster =
      cached.resident(leaf_clusters[2]) ? leaf_clusters[2] : leaf_clusters[1];
  probe(resident_cluster);
  LeafCacheCounters after = cached.counters();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);

  // Pin cluster A, then sweep the others through the two slots: A must
  // survive the pressure, the victim is always the unpinned LRU slot.
  const std::size_t pinned = leaf_clusters[0];
  probe(pinned);
  ASSERT_TRUE(cached.resident(pinned));
  cached.pin(pinned);
  EXPECT_TRUE(cached.pinned(pinned));
  for (int round = 0; round < 3; ++round) {
    probe(leaf_clusters[1]);
    probe(leaf_clusters[2]);
  }
  EXPECT_TRUE(cached.resident(pinned)) << "pinned cluster was evicted";
  after = cached.counters();
  EXPECT_GT(after.evictions, before.evictions);

  // Unpinning makes it evictable again.
  cached.unpin(pinned);
  EXPECT_FALSE(cached.pinned(pinned));
  probe(leaf_clusters[1]);
  probe(leaf_clusters[2]);
  EXPECT_FALSE(cached.resident(pinned));
}

TEST(LeafCacheEngine, PinKeepsOneSlotServiceable) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());

  LeafCacheEngineConfig config;
  // Seed 19: three non-singleton clusters (6/2/2), so both pins below
  // target clusters that actually occupy slots.
  config.hierarchy = hierarchy_config(3, 19);
  config.leaf_slots = 2;
  LeafCacheEngine cached(config);
  cached.store_templates(templates);

  cached.pin(0);
  // A second pin would leave no unpinned slot for misses.
  EXPECT_THROW(cached.pin(1), InvalidArgument);
}

TEST(LeafCacheEngine, PinningASingletonClusterIsANoOp) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  // Seed 17 clusters the set 7/1/2: cluster 1 is a singleton, answered
  // by the router without ever occupying a slot.
  config.hierarchy = hierarchy_config(3, 17);
  config.leaf_slots = 2;
  LeafCacheEngine cached(config);
  cached.store_templates(templates);
  ASSERT_EQ(cached.leaf_members(1).size(), 1u)
      << "seed 17 no longer produces a singleton cluster";

  // The singleton pin neither sticks nor eats the pin budget.
  cached.pin(1);
  EXPECT_FALSE(cached.pinned(1));
  // Both slot-eligible clusters fit the 2-slot pool at once, so pinning
  // them both is safe: no miss can ever need an eviction. The budget
  // counts slot-eligible clusters, not the singleton.
  cached.pin(0);
  EXPECT_TRUE(cached.pinned(0));
  cached.pin(2);
  EXPECT_TRUE(cached.pinned(2));
  // Traffic over the whole set still serves: every leaf lands in its own
  // (pinned) slot and the singleton rides the router.
  for (const auto& input : inputs) {
    (void)cached.recognize(input);
  }
  EXPECT_EQ(cached.counters().evictions, 0u);
}

TEST(LeafCacheEngine, BatchSharesMissCostAcrossClusterGroups) {
  // An alternating cluster sequence thrashes a capacity-1 pool when
  // served sequentially, but recognize_batch regroups by cluster so each
  // cluster is programmed at most once per batch.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 1;

  LeafCacheEngine sequential(config);
  sequential.store_templates(templates);
  for (const auto& input : inputs) {
    (void)sequential.recognize(input);
  }
  const LeafCacheCounters seq = sequential.counters();

  LeafCacheEngine batched(config);
  batched.store_templates(templates);
  (void)batched.recognize_batch(inputs, 2);
  const LeafCacheCounters bat = batched.counters();

  EXPECT_EQ(bat.queries, seq.queries);
  EXPECT_EQ(bat.hits + bat.misses, seq.hits + seq.misses);
  // Miss-cost sharing: at most one reprogram per (non-singleton) cluster
  // for the whole batch, against a sequential schedule that thrashes.
  EXPECT_LE(bat.misses, batched.cluster_count());
  EXPECT_GT(seq.misses, bat.misses);
  EXPECT_LT(bat.reprogram_energy, seq.reprogram_energy);
}

TEST(LeafCacheEngine, BatchDeterministicUnderThreadsAndMatchesSequential) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 2;

  LeafCacheEngine sequential(config);
  sequential.store_templates(templates);
  std::vector<Recognition> expected;
  expected.reserve(inputs.size());
  for (const auto& input : inputs) {
    expected.push_back(sequential.recognize(input));
  }

  // Two identically configured engines, different thread counts: the
  // cluster-reordered batch must be deterministic and winner-for-winner
  // equal to the sequential schedule either way.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    LeafCacheEngine batched(config);
    batched.store_templates(templates);
    const std::vector<Recognition> got = batched.recognize_batch(inputs, threads);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_recognition(got[i], expected[i], "threads", i);
    }
  }
}

TEST(LeafCacheEngine, RestoreResetsCountersAndPool) {
  // Re-storing serves a new template set: the hit/energy accounting must
  // start fresh instead of amortizing new write charges over old traffic.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 2;
  LeafCacheEngine cached(config);
  cached.store_templates(templates);
  (void)cached.recognize_batch(inputs);
  ASSERT_GT(cached.counters().queries, 0u);

  cached.store_templates(templates);
  const LeafCacheCounters fresh = cached.counters();
  EXPECT_EQ(fresh.queries, 0u);
  EXPECT_EQ(fresh.hits, 0u);
  EXPECT_EQ(fresh.misses, 0u);
  EXPECT_EQ(fresh.evictions, 0u);
  EXPECT_DOUBLE_EQ(fresh.reprogram_energy.in(units::J), 0.0);
  for (std::size_t c = 0; c < cached.cluster_count(); ++c) {
    EXPECT_FALSE(cached.resident(c)) << "cluster " << c;
    EXPECT_FALSE(cached.pinned(c)) << "cluster " << c;
  }
}

TEST(LeafCacheEngine, EnergyChargesReprogramPath) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 1;  // thrash: high miss rate
  LeafCacheEngine thrashing(config);
  thrashing.store_templates(templates);

  config.leaf_slots = 3;  // resident: compulsory misses only
  LeafCacheEngine resident(config);
  resident.store_templates(templates);

  // Before traffic both report the conservative every-query-misses bound.
  EXPECT_GT(thrashing.energy_per_query(), EnergyPerQuery{});
  const EnergyPerQuery upfront = resident.energy_per_query();

  for (const auto& input : inputs) {
    (void)thrashing.recognize(input);
    (void)resident.recognize(input);
  }
  // Observed mixes: the thrashing pool pays more write energy per query
  // than the fully resident pool, and warm traffic beats the upfront
  // assumption.
  EXPECT_GT(thrashing.energy_per_query(), resident.energy_per_query());
  EXPECT_LT(resident.energy_per_query(), upfront);
  // The write item shows up in the power breakdown.
  bool has_write_item = false;
  const PowerReport report = thrashing.power();
  for (const auto& item : report.items()) {
    if (item.name.rfind("write:", 0) == 0) {
      has_write_item = true;
      EXPECT_GT(item.power, Power{});
    }
  }
  EXPECT_TRUE(has_write_item);
}

TEST(LeafCacheEngine, CountersExposeThePerSlotWriteHistogram) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 2;
  LeafCacheEngine cached(config);
  cached.store_templates(templates);
  for (const auto& input : inputs) {
    (void)cached.recognize(input);
  }
  const LeafCacheCounters counters = cached.counters();
  ASSERT_EQ(counters.slot_write_cycles.size(), config.leaf_slots);
  std::uint64_t histogram_sum = 0;
  for (const std::uint64_t w : counters.slot_write_cycles) {
    histogram_sum += w;
  }
  // Every charged device write lands in exactly one slot's bucket.
  EXPECT_EQ(histogram_sum, counters.device_writes);
  EXPECT_GT(counters.device_writes, 0u);
  EXPECT_EQ(counters.device_writes_saved, 0u);  // no delta mode
  EXPECT_EQ(counters.max_slot_write_cycles(),
            *std::max_element(counters.slot_write_cycles.begin(),
                              counters.slot_write_cycles.end()));
}

TEST(LeafCacheEngine, DeltaReprogrammingSavesDeviceWrites) {
  // Same thrash traffic, same miss schedule: delta mode must serve the
  // identical demand with strictly fewer physical writes, the difference
  // showing up as saved writes and cheaper reprogram energy.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 1;  // every cluster switch reprograms the one slot

  LeafCacheEngine plain(config);
  plain.store_templates(templates);
  for (const auto& input : inputs) {
    (void)plain.recognize(input);
  }
  const LeafCacheCounters p = plain.counters();

  config.endurance.delta_writes = true;
  LeafCacheEngine delta(config);
  delta.store_templates(templates);
  for (const auto& input : inputs) {
    (void)delta.recognize(input);
  }
  const LeafCacheCounters d = delta.counters();

  // The router is identical in both modes, so the miss schedule is too.
  EXPECT_EQ(d.misses, p.misses);
  EXPECT_EQ(d.hits, p.hits);
  // Delta splits the same programming demand into writes + skips.
  EXPECT_EQ(d.device_writes + d.device_writes_saved, p.device_writes);
  EXPECT_GT(d.device_writes_saved, 0u);
  EXPECT_LT(d.device_writes, p.device_writes);
  EXPECT_LT(d.reprogram_energy, p.reprogram_energy);
}

TEST(LeafCacheEngine, DeltaModeKeepsBatchAndSequentialAgreement) {
  // Substrate-keyed write noise makes the conductance a device realises a
  // function of (device, level), not of the programming schedule — so the
  // reordered batch path must agree field-for-field with a sequential
  // loop even though delta mode skips most writes.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 1;
  config.endurance.delta_writes = true;

  LeafCacheEngine sequential(config);
  sequential.store_templates(templates);
  std::vector<Recognition> expected;
  expected.reserve(inputs.size());
  for (const auto& input : inputs) {
    expected.push_back(sequential.recognize(input));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    LeafCacheEngine batched(config);
    batched.store_templates(templates);
    const std::vector<Recognition> got = batched.recognize_batch(inputs, threads);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_recognition(got[i], expected[i], "delta threads", i);
    }
  }
}

TEST(LeafCacheEngine, EnergyPerQueryAmortizesAtTheObservedRate) {
  // S2 regression: before traffic the estimate is the conservative
  // every-query-misses bound; once traffic exists it must amortize the
  // *observed* write energy over the *observed* query count, i.e.
  // energy_per_query - reprogram_energy / queries is the constant search
  // cost, whatever the traffic mix so far.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig config;
  config.hierarchy = hierarchy_config(3);
  config.leaf_slots = 3;  // fully resident after warmup
  LeafCacheEngine cached(config);
  cached.store_templates(templates);

  const EnergyPerQuery joule_per_query = units::J / units::query;
  const double upfront = cached.energy_per_query().in(joule_per_query);

  for (const auto& input : inputs) {
    (void)cached.recognize(input);
  }
  const LeafCacheCounters c1 = cached.counters();
  const double e1 = cached.energy_per_query().in(joule_per_query);
  ASSERT_GT(c1.queries, 0u);
  EXPECT_LT(e1, upfront);

  // A second, all-hit pass: write energy is unchanged, queries double, so
  // the amortized share halves while the search term stays put.
  for (const auto& input : inputs) {
    (void)cached.recognize(input);
  }
  const LeafCacheCounters c2 = cached.counters();
  const double e2 = cached.energy_per_query().in(joule_per_query);
  ASSERT_EQ(c2.misses, c1.misses);
  EXPECT_LT(e2, e1);

  const double search1 =
      e1 - c1.reprogram_energy.in(units::J) / static_cast<double>(c1.queries);
  const double search2 =
      e2 - c2.reprogram_energy.in(units::J) / static_cast<double>(c2.queries);
  EXPECT_NEAR(search1, search2, 1e-15 + 1e-9 * search1);
}

}  // namespace
}  // namespace spinsim
