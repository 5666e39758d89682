/// Cross-backend conformance of the unified AssociativeEngine API.
///
/// On noise-free / mismatch-free configurations every backend implements
/// the same mathematical function — correlation argmax — so its winners
/// must agree with DigitalAmm's bit-exact integer argmax (the ground
/// truth the analog designs approximate). The hierarchical backend adds
/// a routing approximation, so it is held to a high agreement fraction
/// rather than exactness. Independently, recognize_batch must equal a
/// sequential loop of recognize() for every backend, including the
/// parallel-WTA path.
///
/// The EngineConformanceRandomized suite below is the property harness
/// every engine — present and future — inherits: seeded trials over
/// randomized template sets and queries assert the invariants the
/// service relies on (batch == sequential winner-for-winner, margin
/// never negative and zero for non-positive winners, accepted implies
/// unique, positive energy_per_query) across all six backends.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "amm/digital_amm.hpp"
#include "amm/engine.hpp"
#include "amm/hierarchical_amm.hpp"
#include "amm/leaf_cache_engine.hpp"
#include "amm/mscmos_amm.hpp"
#include "amm/spin_amm.hpp"
#include "amm/tiered_engine.hpp"
#include "core/random.hpp"
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

/// Memristor with deterministic programming (no write or d2d noise).
MemristorSpec clean_memristor() {
  MemristorSpec m;
  m.write_sigma = 0.0;
  m.d2d_sigma = 0.0;
  return m;
}

SpinAmmConfig clean_spin_config() {
  SpinAmmConfig c;
  c.features = small_spec();
  c.templates = 10;
  c.memristor = clean_memristor();
  c.dwn = DwnParams::from_barrier(20.0);
  c.sample_mismatch = false;
  c.thermal_noise = false;
  c.seed = 7;
  return c;
}

std::vector<FeatureVector> all_inputs(const FeatureSpec& spec) {
  std::vector<FeatureVector> inputs;
  for (const auto& sample : testing::small_dataset().all()) {
    inputs.push_back(extract_features(sample.image, spec));
  }
  return inputs;
}

std::vector<std::size_t> digital_ground_truth(const std::vector<FeatureVector>& inputs) {
  DigitalAmmConfig c;
  c.features = small_spec();
  c.templates = 10;
  DigitalAmm digital(c);
  digital.store_templates(build_templates(testing::small_dataset(), c.features));
  std::vector<std::size_t> winners;
  winners.reserve(inputs.size());
  for (const auto& input : inputs) {
    winners.push_back(digital.recognize(input).winner);
  }
  return winners;
}

double agreement_with_ground_truth(AssociativeEngine& engine,
                                   const std::vector<FeatureVector>& inputs,
                                   const std::vector<std::size_t>& truth) {
  std::size_t agree = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (engine.recognize(inputs[i]).winner == truth[i]) {
      ++agree;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(inputs.size());
}

TEST(EngineConformance, SpinAgreesWithDigitalArgmaxNoiseFree) {
  SpinAmm spin(clean_spin_config());
  spin.store_templates(build_templates(testing::small_dataset(), small_spec()));
  const auto inputs = all_inputs(small_spec());
  const auto truth = digital_ground_truth(inputs);
  // Even noise-free, the analog path legitimately diverges from the
  // integer argmax on close calls: the DTCS input DAC compresses large
  // codes (Fig. 8b) and the 5-bit DOM quantisation ties near-equal
  // columns. So: high aggregate agreement, and *exact* agreement
  // whenever the analog margin clears two LSB of full scale.
  std::size_t agree = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Recognition r = spin.recognize(inputs[i]);
    agree += r.winner == truth[i] ? 1 : 0;
    if (r.margin > 2.0 / 32.0) {
      EXPECT_EQ(r.winner, truth[i]) << "clear-margin input " << i;
    }
  }
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(inputs.size()), 0.8);
}

TEST(EngineConformance, MsCmosAgreesWithDigitalArgmaxCleanProcess) {
  MsCmosAmmConfig c;
  c.features = small_spec();
  c.templates = 10;
  c.memristor = clean_memristor();
  c.sigma_vt_min_size = 1e-9;  // vanishing process mismatch
  MsCmosAmm mscmos(c);
  mscmos.store_templates(build_templates(testing::small_dataset(), c.features));
  const auto inputs = all_inputs(small_spec());
  const auto truth = digital_ground_truth(inputs);
  EXPECT_GE(agreement_with_ground_truth(mscmos, inputs, truth), 0.95);
}

TEST(EngineConformance, HierarchicalAgreesWithDigitalArgmaxMostly) {
  HierarchicalAmmConfig c;
  c.features = small_spec();
  c.clusters = 3;
  c.memristor = clean_memristor();
  c.dwn = DwnParams::from_barrier(20.0);
  c.sample_mismatch = false;
  c.seed = 9;
  HierarchicalAmm hier(c);
  hier.store_templates(build_templates(testing::small_dataset(), c.features));
  const auto inputs = all_inputs(small_spec());
  const auto truth = digital_ground_truth(inputs);
  // Routing adds a genuine failure mode (right template, wrong cluster)
  // on top of the flat analog path's close-call divergences, so the bar
  // sits below the flat designs' (chance is 0.1).
  EXPECT_GE(agreement_with_ground_truth(hier, inputs, truth), 0.7);
}

/// recognize_batch == per-query recognize, through the unified interface.
void expect_batch_matches_sequential(AssociativeEngine& sequential, AssociativeEngine& batched,
                                     const std::vector<FeatureVector>& inputs,
                                     std::size_t threads) {
  std::vector<Recognition> expected;
  expected.reserve(inputs.size());
  for (const auto& input : inputs) {
    expected.push_back(sequential.recognize(input));
  }
  const std::vector<Recognition> got = batched.recognize_batch(inputs, threads);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].winner, expected[i].winner) << "input " << i;
    EXPECT_EQ(got[i].unique, expected[i].unique) << "input " << i;
    EXPECT_EQ(got[i].dom, expected[i].dom) << "input " << i;
    EXPECT_DOUBLE_EQ(got[i].score, expected[i].score) << "input " << i;
    EXPECT_EQ(got[i].accepted, expected[i].accepted) << "input " << i;
  }
}

TEST(EngineConformance, BatchMatchesSequentialAllBackends) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs(small_spec());

  // Spin, with thermal noise on so the parallel WTA's counter-based
  // streams are exercised, not just the deterministic path.
  SpinAmmConfig sc = clean_spin_config();
  sc.thermal_noise = true;
  sc.sample_mismatch = true;
  sc.memristor = MemristorSpec{};
  SpinAmm spin_seq(sc);
  SpinAmm spin_batch(sc);
  spin_seq.store_templates(templates);
  spin_batch.store_templates(templates);
  expect_batch_matches_sequential(spin_seq, spin_batch, inputs, 4);

  DigitalAmmConfig dc;
  dc.features = small_spec();
  dc.templates = 10;
  DigitalAmm dig_seq(dc);
  DigitalAmm dig_batch(dc);
  dig_seq.store_templates(templates);
  dig_batch.store_templates(templates);
  expect_batch_matches_sequential(dig_seq, dig_batch, inputs, 4);

  MsCmosAmmConfig mc;
  mc.features = small_spec();
  mc.templates = 10;
  MsCmosAmm ms_seq(mc);
  MsCmosAmm ms_batch(mc);
  ms_seq.store_templates(templates);
  ms_batch.store_templates(templates);
  expect_batch_matches_sequential(ms_seq, ms_batch, inputs, 4);

  HierarchicalAmmConfig hc;
  hc.features = small_spec();
  hc.clusters = 3;
  hc.dwn = DwnParams::from_barrier(20.0);
  hc.seed = 21;
  HierarchicalAmm hier_seq(hc);
  HierarchicalAmm hier_batch(hc);
  hier_seq.store_templates(templates);
  hier_batch.store_templates(templates);
  expect_batch_matches_sequential(hier_seq, hier_batch, inputs, 4);
}

// ---------------------------------------------------------------------------
// Randomized property suite: the contract every engine inherits for free.
// ---------------------------------------------------------------------------

/// Builds one engine sized for `templates` columns; `seed` varies per
/// trial so device noise, mismatch and clustering all get re-rolled.
using MakeEngine =
    std::function<std::unique_ptr<AssociativeEngine>(std::size_t templates, std::uint64_t seed)>;

FeatureVector zero_feature_vector(const FeatureSpec& spec) {
  FeatureVector f;
  f.spec = spec;
  f.analog.assign(spec.dimension(), 0.0);
  f.digital.assign(spec.dimension(), 0);
  return f;
}

/// One seeded trial: random templates, a query mix of random vectors,
/// near-template probes and the all-zero vector (the non-positive-winner
/// edge), checked sequentially and as one batch on twin engine instances.
void run_randomized_trial(const std::string& label, const MakeEngine& make, std::uint64_t seed) {
  const FeatureSpec spec = small_spec();
  Rng rng(seed);
  const std::size_t templates = static_cast<std::size_t>(rng.uniform_int(6, 16));

  std::vector<FeatureVector> stored;
  stored.reserve(templates);
  for (std::size_t j = 0; j < templates; ++j) {
    stored.push_back(testing::random_feature_vector(spec, rng));
  }

  std::vector<FeatureVector> queries;
  for (std::size_t q = 0; q < 6; ++q) {
    queries.push_back(testing::random_feature_vector(spec, rng));
  }
  for (std::size_t q = 0; q < 3; ++q) {
    // Near-template probes keep the trial from living only in the
    // low-correlation regime random vectors produce.
    FeatureVector probe =
        stored[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(templates) - 1))];
    const std::size_t flip = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.dimension()) - 1));
    probe.digital[flip] = spec.levels() - 1 - probe.digital[flip];
    probe.analog[flip] = static_cast<double>(probe.digital[flip]) /
                         static_cast<double>(spec.levels() - 1);
    queries.push_back(probe);
  }
  queries.push_back(zero_feature_vector(spec));

  std::unique_ptr<AssociativeEngine> sequential = make(templates, seed);
  std::unique_ptr<AssociativeEngine> batched = make(templates, seed);
  sequential->store_templates(stored);
  batched->store_templates(stored);

  EXPECT_GT(sequential->energy_per_query(), EnergyPerQuery{}) << label << " seed " << seed;

  std::vector<Recognition> expected;
  expected.reserve(queries.size());
  for (const auto& query : queries) {
    expected.push_back(sequential->recognize(query));
  }
  const std::vector<Recognition> got = batched->recognize_batch(queries, 3);
  ASSERT_EQ(got.size(), expected.size()) << label << " seed " << seed;

  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string where = label + " seed " + std::to_string(seed) + " query " +
                              std::to_string(i);
    // recognize_batch is winner-for-winner the sequential schedule.
    EXPECT_EQ(got[i].winner, expected[i].winner) << where;
    EXPECT_EQ(got[i].unique, expected[i].unique) << where;
    EXPECT_EQ(got[i].dom, expected[i].dom) << where;
    EXPECT_DOUBLE_EQ(got[i].score, expected[i].score) << where;
    EXPECT_EQ(got[i].accepted, expected[i].accepted) << where;
    const Recognition* const views[] = {&got[i], &expected[i]};
    for (const Recognition* r : views) {
      EXPECT_LT(r->winner, templates) << where;
      // Margin is never negative and carries no confidence for a
      // non-positive winner.
      EXPECT_GE(r->margin, 0.0) << where;
      if (r->score <= 0.0) {
        EXPECT_DOUBLE_EQ(r->margin, 0.0) << where;
      }
      // A tied winner is never an acceptable match.
      if (r->accepted) {
        EXPECT_TRUE(r->unique) << where;
      }
    }
  }
  EXPECT_GT(sequential->energy_per_query(), EnergyPerQuery{})
      << label << " (post-traffic) seed " << seed;
}

constexpr std::uint64_t kRandomizedTrials = 20;

void run_randomized_suite(const std::string& label, const MakeEngine& make) {
  for (std::uint64_t trial = 0; trial < kRandomizedTrials; ++trial) {
    run_randomized_trial(label, make, 0xC0FFEE + 7919 * trial);
  }
}

TEST(EngineConformanceRandomized, Spin) {
  run_randomized_suite("spin", [](std::size_t templates, std::uint64_t seed) {
    SpinAmmConfig c;
    c.features = small_spec();
    c.templates = templates;
    c.dwn = DwnParams::from_barrier(20.0);
    c.thermal_noise = true;  // exercise the counter-based parallel WTA
    c.seed = seed;
    return std::make_unique<SpinAmm>(c);
  });
}

TEST(EngineConformanceRandomized, Digital) {
  run_randomized_suite("digital", [](std::size_t templates, std::uint64_t) {
    DigitalAmmConfig c;
    c.features = small_spec();
    c.templates = templates;
    return std::make_unique<DigitalAmm>(c);
  });
}

TEST(EngineConformanceRandomized, MsCmos) {
  run_randomized_suite("mscmos", [](std::size_t templates, std::uint64_t seed) {
    MsCmosAmmConfig c;
    c.features = small_spec();
    c.templates = templates;
    c.seed = seed;
    return std::make_unique<MsCmosAmm>(c);
  });
}

HierarchicalAmmConfig randomized_hierarchy_config(std::uint64_t seed) {
  HierarchicalAmmConfig c;
  c.features = small_spec();
  c.clusters = 3;
  c.dwn = DwnParams::from_barrier(20.0);
  c.seed = seed;
  return c;
}

TEST(EngineConformanceRandomized, Hierarchical) {
  run_randomized_suite("hierarchical", [](std::size_t, std::uint64_t seed) {
    return std::make_unique<HierarchicalAmm>(randomized_hierarchy_config(seed));
  });
}

TEST(EngineConformanceRandomized, Tiered) {
  // Deterministic tier engines (no thermal noise): batch == sequential
  // holds for TieredEngine only when the escalated subset is slot-free.
  run_randomized_suite("tiered", [](std::size_t templates, std::uint64_t seed) {
    SpinAmmConfig flat;
    flat.features = small_spec();
    flat.templates = templates;
    flat.dwn = DwnParams::from_barrier(20.0);
    flat.seed = seed ^ 0xF1A7;
    TieredEngineConfig policy;
    policy.escalation_margin = 0.05;
    return std::make_unique<TieredEngine>(
        std::make_unique<HierarchicalAmm>(randomized_hierarchy_config(seed)),
        std::make_unique<SpinAmm>(flat), policy);
  });
}

TEST(EngineConformanceRandomized, LeafCache) {
  // Two slots against three clusters, so the trials continuously evict
  // and reprogram — the invariants must survive the cache churn.
  run_randomized_suite("leaf-cache", [](std::size_t, std::uint64_t seed) {
    LeafCacheEngineConfig c;
    c.hierarchy = randomized_hierarchy_config(seed);
    c.leaf_slots = 2;
    return std::make_unique<LeafCacheEngine>(c);
  });
}

TEST(EngineConformance, PolymorphicUseThroughBasePointer) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs(small_spec());

  std::vector<std::unique_ptr<AssociativeEngine>> engines;
  engines.push_back(std::make_unique<SpinAmm>(clean_spin_config()));
  {
    DigitalAmmConfig dc;
    dc.features = small_spec();
    dc.templates = 10;
    engines.push_back(std::make_unique<DigitalAmm>(dc));
  }
  {
    MsCmosAmmConfig mc;
    mc.features = small_spec();
    mc.templates = 10;
    engines.push_back(std::make_unique<MsCmosAmm>(mc));
  }

  for (auto& engine : engines) {
    engine->store_templates(templates);
    EXPECT_EQ(engine->template_count(), 10u) << engine->name();
    EXPECT_GT(engine->power().total(), Power{}) << engine->name();
    const Recognition r = engine->recognize(inputs[0]);
    EXPECT_LT(r.winner, 10u) << engine->name();
    const auto batch = engine->recognize_batch(inputs, 2);
    EXPECT_EQ(batch.size(), inputs.size()) << engine->name();
  }
}

}  // namespace
}  // namespace spinsim
