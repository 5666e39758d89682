/// RecognitionService: sharding parity, micro-batching, futures API,
/// stats, and concurrent submission (the TSan job races this file).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "amm/digital_amm.hpp"
#include "amm/hierarchical_amm.hpp"
#include "amm/leaf_cache_engine.hpp"
#include "amm/spin_amm.hpp"
#include "core/clock.hpp"
#include "service/recognition_service.hpp"
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

std::vector<FeatureVector> all_inputs() {
  std::vector<FeatureVector> inputs;
  for (const auto& sample : testing::small_dataset().all()) {
    inputs.push_back(extract_features(sample.image, small_spec()));
  }
  return inputs;
}

RecognitionService::EngineFactory digital_factory() {
  return [](std::size_t, std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
    DigitalAmmConfig c;
    c.features = small_spec();
    c.templates = columns;
    return std::make_unique<DigitalAmm>(c);
  };
}

/// Noise-free spin config whose scores are shard-invariant: deterministic
/// programming plus the shared sizing (input full scale, row pad target)
/// read off a flat reference engine.
SpinAmmConfig clean_spin_config(std::size_t columns) {
  SpinAmmConfig c;
  c.features = small_spec();
  c.templates = columns;
  c.memristor.write_sigma = 0.0;
  c.memristor.d2d_sigma = 0.0;
  c.dwn = DwnParams::from_barrier(20.0);
  c.sample_mismatch = false;
  c.thermal_noise = false;
  c.seed = 33;
  return c;
}

TEST(RecognitionService, DigitalShardedParityWithFlat) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  DigitalAmmConfig flat_config;
  flat_config.features = small_spec();
  flat_config.templates = templates.size();
  DigitalAmm flat(flat_config);
  flat.store_templates(templates);

  for (std::size_t shards : {std::size_t{2}, std::size_t{3}}) {
    RecognitionServiceConfig config;
    config.shards = shards;
    config.max_batch = 8;
    RecognitionService service(config, digital_factory());
    service.store_templates(templates);

    auto future = service.submit_batch(inputs);
    const std::vector<Recognition> got = future.get();
    ASSERT_EQ(got.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Recognition expected = flat.recognize(inputs[i]);
      EXPECT_EQ(got[i].winner, expected.winner) << shards << " shards, input " << i;
      EXPECT_DOUBLE_EQ(got[i].score, expected.score) << shards << " shards, input " << i;
      EXPECT_EQ(got[i].unique, expected.unique) << shards << " shards, input " << i;
    }
  }
}

TEST(RecognitionService, SpinShardedParityWithFlat) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  SpinAmm flat(clean_spin_config(templates.size()));
  flat.store_templates(templates);

  // Shards share the flat engine's realised sizing so their DOM codes
  // land on the same scale (the service header's comparability contract).
  const double full_scale = flat.input_full_scale();
  const double row_target = flat.crossbar().row_conductance(0);

  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 16;
  config.engine_threads = 2;
  RecognitionService service(config, [&](std::size_t,
                                         std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
    SpinAmmConfig c = clean_spin_config(columns);
    c.input_full_scale_override = full_scale;
    c.row_target_conductance = row_target;
    return std::make_unique<SpinAmm>(c);
  });
  service.store_templates(templates);

  auto future = service.submit_batch(inputs);
  const std::vector<Recognition> got = future.get();
  ASSERT_EQ(got.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Recognition expected = flat.recognize(inputs[i]);
    EXPECT_EQ(got[i].winner, expected.winner) << "input " << i;
    EXPECT_EQ(got[i].dom, expected.dom) << "input " << i;
    EXPECT_EQ(got[i].accepted, expected.accepted) << "input " << i;
  }
}

TEST(RecognitionService, SubmitSingleMatchesDirectEngine) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  DigitalAmmConfig flat_config;
  flat_config.features = small_spec();
  flat_config.templates = templates.size();
  DigitalAmm flat(flat_config);
  flat.store_templates(templates);

  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config, digital_factory());
  service.store_templates(templates);

  std::vector<std::future<Recognition>> futures;
  futures.reserve(inputs.size());
  for (const auto& input : inputs) {
    futures.push_back(service.submit(input));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Recognition got = futures[i].get();
    EXPECT_EQ(got.winner, flat.recognize(inputs[i]).winner) << "input " << i;
  }
}

TEST(RecognitionService, AdmissionWindowCoalescesBatchSubmissions) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();  // 40 queries

  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 64;
  config.admission_window = std::chrono::microseconds(2000);
  RecognitionService service(config, digital_factory());
  service.store_templates(templates);

  service.submit_batch(inputs).get();
  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, inputs.size());
  // submit_batch enqueues under one lock, so the whole batch is visible
  // to the collector at once and coalesces into a single dispatch.
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, static_cast<double>(inputs.size()));
  EXPECT_GT(stats.queries_per_sec, 0.0);
  EXPECT_GT(stats.mean_latency_us, 0.0);
  // All queries of one submit_batch share an enqueue stamp, so mean and
  // max coincide up to floating-point summation error.
  EXPECT_GE(stats.max_latency_us, 0.999 * stats.mean_latency_us);
}

TEST(RecognitionService, AdmissionWindowClosesAfterTheOldestEnqueueStamp) {
  // The window runs from the first query's enqueue stamp on the injected
  // clock. Once the FakeClock has passed its close, the collector's next
  // wake-up (the second submit) dispatches — it must not sleep out the
  // 30 s window in real time.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();
  auto clock = std::make_shared<FakeClock>();

  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 64;
  config.admission_window = std::chrono::seconds(30);
  config.clock = clock;
  RecognitionService service(config, digital_factory());
  service.store_templates(templates);

  auto first = service.submit(inputs[0]);
  clock->advance(config.admission_window);
  auto second = service.submit(inputs[1]);
  ASSERT_EQ(first.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_NO_THROW(first.get());
}

TEST(RecognitionService, NegativeAdmissionWindowThrows) {
  RecognitionServiceConfig config;
  config.admission_window = std::chrono::microseconds(-1);
  EXPECT_THROW(RecognitionService(config, digital_factory()), InvalidArgument);
}

TEST(RecognitionService, MaxBatchSplitsLargeSubmissions) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();  // 40 queries

  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 16;
  config.admission_window = std::chrono::microseconds(0);
  RecognitionService service(config, digital_factory());
  service.store_templates(templates);

  service.submit_batch(inputs).get();
  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, inputs.size());
  EXPECT_GE(stats.batches, (inputs.size() + config.max_batch - 1) / config.max_batch);
}

TEST(RecognitionService, ConcurrentSubmitters) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 8;
  config.engine_threads = 2;
  RecognitionService service(config, digital_factory());
  service.store_templates(templates);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 25;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<Recognition>>> futures(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        futures[c].push_back(service.submit(inputs[(c * kPerClient + i) % inputs.size()]));
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  std::size_t fulfilled = 0;
  for (auto& per_client : futures) {
    for (auto& f : per_client) {
      (void)f.get();
      ++fulfilled;
    }
  }
  EXPECT_EQ(fulfilled, kClients * kPerClient);
  EXPECT_EQ(service.stats().queries, kClients * kPerClient);
}

TEST(RecognitionService, DrainBlocksUntilIdle) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config, digital_factory());
  service.store_templates(templates);

  auto future = service.submit_batch(inputs);
  service.drain();
  // After drain() the future must already be ready.
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
}

TEST(RecognitionService, SubmitBeforeStoreThrows) {
  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config, digital_factory());
  FeatureVector f;
  f.analog.assign(48, 0.5);
  f.digital.assign(48, 16);
  EXPECT_THROW(service.submit(f), InvalidArgument);
}

TEST(RecognitionService, TooFewTemplatesPerShardThrows) {
  RecognitionServiceConfig config;
  config.shards = 8;
  RecognitionService service(config, digital_factory());
  const auto templates = build_templates(testing::small_dataset(), small_spec());  // 10
  EXPECT_THROW(service.store_templates(templates), InvalidArgument);
}

TEST(RecognitionService, EngineErrorPropagatesThroughFuture) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config, digital_factory());
  service.store_templates(templates);

  FeatureVector bad;
  bad.analog.assign(3, 0.5);
  bad.digital.assign(3, 10);
  auto future = service.submit(bad);
  EXPECT_THROW(future.get(), InvalidArgument);
}

TEST(RecognitionService, HierarchicalBackendServes) {
  // HierarchicalAmm only learns its template count from
  // store_templates(); the service must still accept it as a shard
  // backend ("replicas of *any* backend").
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config, [](std::size_t shard,
                                        std::size_t) -> std::unique_ptr<AssociativeEngine> {
    HierarchicalAmmConfig c;
    c.features = small_spec();
    c.clusters = 2;
    c.dwn = DwnParams::from_barrier(20.0);
    c.seed = 41 + shard;
    return std::make_unique<HierarchicalAmm>(c);
  });
  service.store_templates(templates);

  const auto inputs = all_inputs();
  const std::vector<Recognition> got = service.submit_batch(inputs).get();
  ASSERT_EQ(got.size(), inputs.size());
  for (const auto& r : got) {
    EXPECT_LT(r.winner, templates.size());
    EXPECT_NE(r.hierarchical(), nullptr);
  }
}

/// Fixed-answer stub backend for merge-semantics regressions: every query
/// gets the same scripted score/margin/accepted, so cross-shard merge
/// arithmetic is tested in isolation (including score ranges — zero,
/// negative — that no physical backend happens to produce today).
class ScriptedEngine : public AssociativeEngine {
 public:
  struct Answer {
    double score = 0.0;
    double margin = 0.0;
    bool accepted = true;
  };

  explicit ScriptedEngine(Answer answer) : answer_(answer) {}

  std::string name() const override { return "scripted"; }
  std::size_t template_count() const override { return columns_; }
  void store_templates(const std::vector<FeatureVector>& templates) override {
    columns_ = templates.size();
  }
  Recognition recognize(const FeatureVector&) override {
    Recognition r;
    r.winner = 0;
    r.score = answer_.score;
    r.margin = answer_.margin;
    r.accepted = answer_.accepted;
    return r;
  }
  std::vector<Recognition> recognize_batch(const std::vector<FeatureVector>& inputs,
                                           std::size_t) override {
    std::vector<Recognition> out;
    out.reserve(inputs.size());
    for (const auto& input : inputs) {
      out.push_back(recognize(input));
    }
    return out;
  }
  PowerReport power() const override { return {}; }
  EnergyPerQuery energy_per_query() const override {
    return 1e-9 * units::J / units::query;
  }

 private:
  Answer answer_;
  std::size_t columns_ = 0;
};

RecognitionService::EngineFactory scripted_factory(std::vector<ScriptedEngine::Answer> answers) {
  return [answers = std::move(answers)](std::size_t shard,
                                        std::size_t) -> std::unique_ptr<AssociativeEngine> {
    return std::make_unique<ScriptedEngine>(answers.at(shard));
  };
}

/// Four don't-care feature vectors (ScriptedEngine never reads them).
std::vector<FeatureVector> scripted_templates() {
  std::vector<FeatureVector> templates(4);
  for (auto& t : templates) {
    t.analog.assign(4, 0.5);
    t.digital.assign(4, 16);
  }
  return templates;
}

TEST(RecognitionService, MergeMarginZeroForNonPositiveWinner) {
  // Regression: the merge used to skip the cross-shard cap entirely when
  // the winning score was <= 0, passing the winning shard's local margin
  // through unchecked. A best match at or below zero carries no
  // confidence — the merged margin must be 0 so escalation policies fire.
  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config,
                             scripted_factory({{-1.0, 0.8, true}, {-2.0, 0.7, true}}));
  service.store_templates(scripted_templates());

  const Recognition got = service.submit(scripted_templates().front()).get();
  EXPECT_EQ(got.winner, 0u);  // shard 0 holds the higher (less negative) score
  EXPECT_DOUBLE_EQ(got.score, -1.0);
  EXPECT_DOUBLE_EQ(got.margin, 0.0);
}

TEST(RecognitionService, MergeMarginUsesActualRunnerUpScore) {
  // Regression: the cross-shard runner-up used to be initialised to 0.0,
  // so any negative other-shard score was silently clamped up and the cap
  // bit harder than the real score gap warrants. With the true runner-up
  // (-1.0) the relative gap is (2 - (-1)) / 2 = 1.5, which must NOT
  // shrink the winning shard's local margin of 1.4; the old clamp capped
  // it at (2 - 0) / 2 = 1.0.
  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config,
                             scripted_factory({{2.0, 1.4, true}, {-1.0, 0.2, true}}));
  service.store_templates(scripted_templates());

  const Recognition got = service.submit(scripted_templates().front()).get();
  EXPECT_DOUBLE_EQ(got.score, 2.0);
  EXPECT_DOUBLE_EQ(got.margin, 1.4);
}

TEST(RecognitionService, MergeTieAcrossShardsYieldsZeroMargin) {
  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config,
                             scripted_factory({{3.0, 0.5, true}, {3.0, 0.5, true}}));
  service.store_templates(scripted_templates());

  const Recognition got = service.submit(scripted_templates().front()).get();
  EXPECT_FALSE(got.unique);
  EXPECT_DOUBLE_EQ(got.margin, 0.0);
}

TEST(RecognitionService, ErrorPathCountsFailedQueries) {
  // Regression: the dispatch error path used to bump `batches` without
  // `queries`, deflating mean_batch_size and decoupling it from the
  // number of delivered futures. Failed queries now count in both
  // `queries` and `failed`.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config, digital_factory());
  service.store_templates(templates);

  FeatureVector bad;
  bad.analog.assign(3, 0.5);
  bad.digital.assign(3, 10);
  auto failing = service.submit_batch({bad, bad, bad});
  EXPECT_THROW(failing.get(), InvalidArgument);
  service.drain();

  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size,
                   static_cast<double>(stats.queries) / static_cast<double>(stats.batches));
  // Latency tracking covers successes only.
  EXPECT_DOUBLE_EQ(stats.mean_latency_us, 0.0);

  // Successes after a failure keep both counters coherent.
  const auto inputs = all_inputs();
  service.submit_batch(inputs).get();
  stats = service.stats();
  EXPECT_EQ(stats.queries, 3u + inputs.size());
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_GT(stats.mean_latency_us, 0.0);
}

TEST(RecognitionService, StatsSurfaceLatencyPercentilesAndEnergy) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();
  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 8;
  RecognitionService service(config, digital_factory());
  service.store_templates(templates);
  service.submit_batch(inputs).get();

  const RecognitionServiceStats stats = service.stats();
  EXPECT_GT(stats.p50_latency_us, 0.0);
  EXPECT_LE(stats.p50_latency_us, stats.p95_latency_us);
  EXPECT_LE(stats.p95_latency_us, stats.p99_latency_us);
  // Every query visits both shards, so the service-level energy estimate
  // is the sum of the shard engines' per-query figures.
  EXPECT_GT(stats.energy_per_query, EnergyPerQuery{});
  ASSERT_EQ(stats.shards.size(), 2u);
  for (const auto& shard : stats.shards) {
    EXPECT_GT(shard.batches, 0u);
    EXPECT_GT(shard.p50_batch_us, 0.0);
    EXPECT_LE(shard.p50_batch_us, shard.p95_batch_us);
    EXPECT_LE(shard.p95_batch_us, shard.p99_batch_us);
  }
}

TEST(RecognitionService, RejectedAnswersCounted) {
  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config,
                             scripted_factory({{1.0, 0.5, false}, {0.5, 0.5, false}}));
  service.store_templates(scripted_templates());

  const std::vector<FeatureVector> probes(6, scripted_templates().front());
  service.submit_batch(probes).get();
  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, probes.size());
  EXPECT_DOUBLE_EQ(stats.reject_rate, 1.0);
  EXPECT_EQ(stats.escalated, 0u);  // no tiered backend in play
}

TEST(RecognitionService, TieredForcedEscalationMatchesFlatTier1) {
  // The service-edge conformance contract of the tiered router: with the
  // escalation threshold above any reachable margin every query is
  // answered by tier 1, so a sharded tiered service must be
  // winner-for-winner identical to one flat instance of the tier-1
  // configuration — and the stats must show the 100 % escalation.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  SpinAmm flat(clean_spin_config(templates.size()));
  flat.store_templates(templates);
  const double full_scale = flat.input_full_scale();
  const double row_target = flat.crossbar().row_conductance(0);

  auto tier0 = [](std::size_t shard, std::size_t) -> std::unique_ptr<AssociativeEngine> {
    HierarchicalAmmConfig c;
    c.features = small_spec();
    c.clusters = 2;
    c.dwn = DwnParams::from_barrier(20.0);
    c.seed = 41 + shard;
    return std::make_unique<HierarchicalAmm>(c);
  };
  auto tier1 = [&](std::size_t, std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
    SpinAmmConfig c = clean_spin_config(columns);
    c.input_full_scale_override = full_scale;
    c.row_target_conductance = row_target;
    return std::make_unique<SpinAmm>(c);
  };
  TieredEngineConfig policy;
  policy.escalation_margin = 2.0;  // beyond any reachable margin

  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 16;
  RecognitionService service(config, make_tiered_factory(tier0, tier1, policy));
  service.store_templates(templates);

  const std::vector<Recognition> got = service.submit_batch(inputs).get();
  ASSERT_EQ(got.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Recognition expected = flat.recognize(inputs[i]);
    EXPECT_EQ(got[i].winner, expected.winner) << "input " << i;
    EXPECT_EQ(got[i].dom, expected.dom) << "input " << i;
    ASSERT_NE(got[i].tiered(), nullptr) << "input " << i;
    EXPECT_EQ(got[i].tiered()->tier, 1u) << "input " << i;
  }

  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.escalated, inputs.size());
  EXPECT_DOUBLE_EQ(stats.escalation_rate, 1.0);
  EXPECT_GT(stats.energy_per_query, EnergyPerQuery{});
}

TEST(RecognitionService, TieredServiceReportsPartialEscalation) {
  // A realistic threshold keeps some traffic in tier 0 — the service
  // stats must agree with the shard engines' own counters.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  auto tier0 = [](std::size_t shard, std::size_t) -> std::unique_ptr<AssociativeEngine> {
    HierarchicalAmmConfig c;
    c.features = small_spec();
    c.clusters = 2;
    c.dwn = DwnParams::from_barrier(20.0);
    c.seed = 41 + shard;
    return std::make_unique<HierarchicalAmm>(c);
  };
  auto tier1 = [](std::size_t, std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
    DigitalAmmConfig c;
    c.features = small_spec();
    c.templates = columns;
    return std::make_unique<DigitalAmm>(c);
  };
  TieredEngineConfig policy;
  policy.escalation_margin = 0.05;

  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config, make_tiered_factory(tier0, tier1, policy));
  service.store_templates(templates);
  service.submit_batch(inputs).get();

  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, inputs.size());
  EXPECT_LE(stats.escalated, stats.queries);
  EXPECT_GE(stats.escalation_rate, 0.0);
  EXPECT_LE(stats.escalation_rate, 1.0);
  EXPECT_GT(stats.energy_per_query, EnergyPerQuery{});
}

TEST(RecognitionService, LeafCacheShardsServeOversizedTemplateSets) {
  // Larger-than-memory serving: per shard, one programmed leaf slot
  // against two-plus clusters, so each shard's slice exceeds what its
  // crossbar pool can hold resident and the engines must reprogram on
  // demand. The stats must surface the hit rate and the write energy.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig leaf_config;
  leaf_config.hierarchy.features = small_spec();
  leaf_config.hierarchy.clusters = 2;
  leaf_config.hierarchy.dwn = DwnParams::from_barrier(20.0);
  leaf_config.hierarchy.seed = 59;
  leaf_config.leaf_slots = 1;

  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 8;
  RecognitionService service(config, make_leaf_cache_factory(leaf_config));
  service.store_templates(templates);

  // Verify the premise: every shard's template slice exceeds the
  // capacity its slot pool can keep programmed at once.
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const auto* shard = dynamic_cast<const LeafCacheEngine*>(&service.shard(s));
    ASSERT_NE(shard, nullptr);
    std::size_t largest_leaf = 0;
    for (std::size_t c = 0; c < shard->cluster_count(); ++c) {
      largest_leaf = std::max(largest_leaf, shard->leaf_members(c).size());
    }
    EXPECT_GT(shard->template_count(), shard->config().leaf_slots * largest_leaf)
        << "shard " << s << " is not oversized";
  }

  const std::vector<Recognition> got = service.submit_batch(inputs).get();
  ASSERT_EQ(got.size(), inputs.size());
  for (const auto& r : got) {
    EXPECT_LT(r.winner, templates.size());
    EXPECT_NE(r.hierarchical(), nullptr);
  }

  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, inputs.size());
  EXPECT_GT(stats.leaf_misses, 0u);  // something had to be programmed
  EXPECT_GE(stats.leaf_hit_rate, 0.0);
  EXPECT_LE(stats.leaf_hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(stats.leaf_hit_rate,
                   static_cast<double>(stats.leaf_hits) /
                       static_cast<double>(stats.leaf_hits + stats.leaf_misses));
  EXPECT_GT(stats.reprogram_energy, Energy{});
  EXPECT_GT(stats.energy_per_query, EnergyPerQuery{});
}

TEST(RecognitionService, LeafCacheCountersSurfaceThroughTieredComposition) {
  // Stacking the factories this service ships — a leaf-cache tier 0
  // under a flat spin tier 1 — wraps the LeafCacheEngine inside a
  // TieredEngine per shard. stats() must still find the caches and
  // surface hit/miss/reprogram counters, not silently read zero.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig leaf_config;
  leaf_config.hierarchy.features = small_spec();
  leaf_config.hierarchy.clusters = 2;
  leaf_config.hierarchy.dwn = DwnParams::from_barrier(20.0);
  leaf_config.hierarchy.seed = 59;
  leaf_config.leaf_slots = 1;  // guaranteed misses under two clusters

  auto tier1 = [](std::size_t, std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
    return std::make_unique<SpinAmm>(clean_spin_config(columns));
  };

  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 8;
  RecognitionService service(
      config, make_tiered_factory(make_leaf_cache_factory(leaf_config), tier1));
  service.store_templates(templates);

  const std::vector<Recognition> got = service.submit_batch(inputs).get();
  ASSERT_EQ(got.size(), inputs.size());

  const RecognitionServiceStats stats = service.stats();
  EXPECT_GT(stats.leaf_misses, 0u) << "tiered wrapper hid the leaf-cache counters";
  EXPECT_GT(stats.leaf_hits + stats.leaf_misses, 0u);
  EXPECT_GT(stats.reprogram_energy, Energy{});
}

TEST(RecognitionService, LeafEnduranceStatsSurfaceAcrossShards) {
  // Endurance-mode leaf caches behind the service edge: reprogram-heavy
  // traffic over finite-endurance devices must surface the wear story —
  // physical writes, delta savings, detected faults, remaps, and the
  // worst per-slot wear — through stats(), summed across shards, while
  // the periodic verify/repair scans run on the shard worker threads.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  LeafCacheEngineConfig leaf_config;
  leaf_config.hierarchy.features = small_spec();
  leaf_config.hierarchy.clusters = 2;
  leaf_config.hierarchy.dwn = DwnParams::from_barrier(20.0);
  leaf_config.hierarchy.seed = 59;
  leaf_config.hierarchy.memristor.endurance_cycles = 25.0;
  leaf_config.hierarchy.memristor.endurance_sigma = 0.2;
  leaf_config.leaf_slots = 1;  // thrash: reprogram on nearly every switch
  leaf_config.endurance.delta_writes = true;
  leaf_config.endurance.spare_columns = 2;
  leaf_config.endurance.verify_interval = 20;
  leaf_config.endurance.repair = true;

  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 8;
  RecognitionService service(config, make_leaf_cache_factory(leaf_config));
  service.store_templates(templates);

  for (int pass = 0; pass < 8; ++pass) {
    const std::vector<Recognition> got = service.submit_batch(inputs).get();
    ASSERT_EQ(got.size(), inputs.size());
  }

  const RecognitionServiceStats stats = service.stats();
  EXPECT_GT(stats.leaf_device_writes, 0u);
  EXPECT_GT(stats.leaf_device_writes_saved, 0u);
  EXPECT_GT(stats.leaf_max_slot_write_cycles, 0u);
  // Finite endurance under thrash: devices died in the field, the scans
  // noticed, and the repair path spent spare columns on them.
  EXPECT_GT(stats.leaf_worn_out_devices, 0u);
  EXPECT_GT(stats.leaf_faults_detected, 0u);
  EXPECT_GT(stats.leaf_columns_remapped, 0u);
}

TEST(RecognitionService, EmptyBatchResolvesImmediately) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  RecognitionServiceConfig config;
  config.shards = 2;
  RecognitionService service(config, digital_factory());
  service.store_templates(templates);
  auto future = service.submit_batch({});
  EXPECT_TRUE(future.get().empty());
}

}  // namespace
}  // namespace spinsim
