/// Library microbenchmarks (google-benchmark): throughput of the hot
/// paths behind the experiment harnesses — crossbar evaluation (ideal and
/// parasitic transfer operator), the LLG integrator, SAR conversion, and
/// a full end-to-end recognition.
///
/// `--json [path]` switches to self-timed rows written to
/// BENCH_recognition.json: service-level rows (full-recognition
/// queries/sec through a single engine's recognize_batch vs a sharded
/// RecognitionService, at several batch sizes and thread counts) with
/// their per-stage pipeline breakdown, tier rows (flat spin vs
/// hierarchical vs tiered: accuracy, throughput, energy/query and the
/// tiered escalation/reject rates on one face workload), leaf-cache
/// rows (hit rate and reprogram-amortized energy/query vs pool size for
/// the larger-than-memory serving path), endurance rows (wear-out under
/// reprogram traffic), and overload rows (an open-loop Poisson/Zipf
/// driver vs the hardened service edge: shed/reject/degraded rates,
/// served p99 and coverage at offered loads past the knee, plus a
/// stuck-shard run).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "amm/evaluation.hpp"
#include "amm/fault_injection.hpp"
#include "amm/hierarchical_amm.hpp"
#include "amm/leaf_cache_engine.hpp"
#include "amm/spin_amm.hpp"
#include "amm/tiered_engine.hpp"
#include "crossbar/rcm.hpp"
#include "datapath/sar.hpp"
#include "device/llg.hpp"
#include "service/load_gen.hpp"
#include "service/recognition_service.hpp"
#include "vision/dataset.hpp"
#include "wta/spin_sar_wta.hpp"

namespace {

using namespace spinsim;

std::vector<std::vector<double>> random_columns(std::size_t rows, std::size_t cols,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> w(cols, std::vector<double>(rows));
  for (auto& col : w) {
    for (auto& v : col) {
      v = rng.uniform(0.0, 1.0);
    }
  }
  return w;
}

void BM_CrossbarIdeal128x40(benchmark::State& state) {
  RcmConfig config;
  RcmArray rcm(config, Rng(1));
  rcm.program(random_columns(config.rows, config.cols, 2));
  std::vector<double> inputs(config.rows, 5e-6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rcm.column_currents_ideal(inputs));
  }
}
BENCHMARK(BM_CrossbarIdeal128x40);

void BM_CrossbarParasitic(benchmark::State& state, std::size_t rows, std::size_t cols) {
  RcmConfig config;
  config.rows = rows;
  config.cols = cols;
  RcmArray rcm(config, Rng(3));
  rcm.program(random_columns(config.rows, config.cols, 4));
  std::vector<double> inputs(config.rows, 5e-6);
  Rng jitter(5);
  for (auto _ : state) {
    inputs[0] = jitter.uniform(4e-6, 6e-6);
    benchmark::DoNotOptimize(rcm.column_currents_parasitic(inputs));
  }
}
BENCHMARK_CAPTURE(BM_CrossbarParasitic, Transfer128x40, 128, 40);
BENCHMARK_CAPTURE(BM_CrossbarParasitic, Transfer64x20, 64, 20);

void BM_LlgStep(benchmark::State& state) {
  DwmStripe stripe(DwmParams::paper_device());
  for (auto _ : state) {
    stripe.step(1.5e-6, 1e-12);
    if (stripe.position() >= stripe.params().length) {
      stripe.reset(0.0);
    }
  }
}
BENCHMARK(BM_LlgStep);

void BM_SarConversion5bit(benchmark::State& state) {
  SarRegister sar(5);
  std::uint32_t input = 0;
  for (auto _ : state) {
    sar.begin();
    while (sar.feed(input >= sar.code())) {
    }
    benchmark::DoNotOptimize(sar.result());
    input = (input + 1) & 31u;
  }
}
BENCHMARK(BM_SarConversion5bit);

void BM_SpinWta40Columns(benchmark::State& state) {
  SpinWtaConfig config;
  config.dwn = DwnParams::from_barrier(20.0);
  SpinSarWta wta(config);
  Rng rng(6);
  std::vector<double> currents(config.columns);
  for (auto& c : currents) {
    c = rng.uniform(0.0, 30e-6);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(wta.run(currents));
  }
}
BENCHMARK(BM_SpinWta40Columns);

void BM_FullRecognition(benchmark::State& state) {
  static const FaceDataset* dataset = new FaceDataset(8, 3, [] {
    FaceGeneratorConfig c;
    c.image_height = 64;
    c.image_width = 48;
    return c;
  }());
  SpinAmmConfig config;
  config.features.height = 8;
  config.features.width = 6;
  config.templates = 8;
  config.dwn = DwnParams::from_barrier(20.0);
  SpinAmm amm(config);
  amm.store_templates(build_templates(*dataset, config.features));
  const FeatureVector input = extract_features(dataset->image(0, 0), config.features);
  for (auto _ : state) {
    benchmark::DoNotOptimize(amm.recognize(input));
  }
}
BENCHMARK(BM_FullRecognition);

void BM_FaceGeneration(benchmark::State& state) {
  const FaceGenerator generator{FaceGeneratorConfig{}};
  std::size_t person = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate(person, 0));
    person = (person + 1) % 40;
  }
}
BENCHMARK(BM_FaceGeneration);

void BM_RecognizeBatch64(benchmark::State& state) {
  static const FaceDataset* dataset = new FaceDataset(8, 8, [] {
    FaceGeneratorConfig c;
    c.image_height = 64;
    c.image_width = 48;
    return c;
  }());
  SpinAmmConfig config;
  config.features.height = 8;
  config.features.width = 6;
  config.templates = 8;
  config.dwn = DwnParams::from_barrier(20.0);
  config.model = CrossbarModel::kParasitic;
  SpinAmm amm(config);
  amm.store_templates(build_templates(*dataset, config.features));
  std::vector<FeatureVector> inputs;
  for (const auto& sample : dataset->all()) {
    inputs.push_back(extract_features(sample.image, config.features));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(amm.recognize_batch(inputs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * inputs.size()));
}
BENCHMARK(BM_RecognizeBatch64);

// ---------------------------------------------------------------------------
// --json mode: the recognition-path comparison the README/ROADMAP quote.
// Self-timed (no google-benchmark) so the output format is ours.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;  // lint:allow(bare-clock) self-timed bench loops are wall-clock by definition

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --------------------------------------------------------------------------
// Service-level rows: full recognitions (front end + WTA) per second,
// direct single-module recognize_batch vs a sharded RecognitionService,
// on a parasitic 64x160 spin AMM.
// --------------------------------------------------------------------------

struct ServiceRow {
  const char* mode;  // "direct" or "sharded"
  std::size_t threads = 1;
  std::size_t shards = 1;
  std::size_t batch = 1;
  double queries_per_sec = 0.0;
};

/// Per-stage wall clock of the fused batch pipeline (DAC -> blocked GEMM
/// -> WTA -> assemble), per query, from SpinAmm::last_batch_timing()
/// accumulated over the direct t=1 measurement loop.
struct PipelineRow {
  std::size_t batch = 0;
  double dac_us = 0.0;
  double gemm_us = 0.0;
  double wta_us = 0.0;
  double assemble_us = 0.0;
  double total_us = 0.0;
};

struct ServiceBenchResult {
  std::vector<ServiceRow> rows;
  std::vector<PipelineRow> pipeline;
};

SpinAmmConfig service_bench_config(std::size_t templates) {
  SpinAmmConfig c;
  c.features.height = 8;
  c.features.width = 8;  // 64 rows
  c.templates = templates;
  c.dwn = DwnParams::from_barrier(20.0);
  c.model = CrossbarModel::kParasitic;
  c.seed = 5;
  return c;
}

std::vector<FeatureVector> service_bench_probes(const FaceDataset& dataset,
                                                const FeatureSpec& spec, std::size_t count) {
  std::vector<FeatureVector> probes;
  probes.reserve(count);
  std::size_t i = 0;
  while (probes.size() < count) {
    const auto& sample = dataset.all()[i++ % dataset.size()];
    probes.push_back(extract_features(sample.image, spec));
  }
  return probes;
}

ServiceBenchResult run_service_benchmark() {
  const std::size_t templates = 160;
  static const FaceDataset* dataset = new FaceDataset(templates, 4, [] {
    FaceGeneratorConfig c;
    c.image_height = 64;
    c.image_width = 64;
    return c;
  }());
  const SpinAmmConfig flat_config = service_bench_config(templates);
  const auto stored = build_templates(*dataset, flat_config.features);

  SpinAmm flat(flat_config);
  flat.store_templates(stored);
  // Shards reuse the flat engine's realised sizing so DOM codes merge
  // correctly (the service's score-comparability contract).
  const double full_scale = flat.input_full_scale();
  const double row_target = flat.crossbar().row_conductance(0);

  const std::size_t total_queries = 4096;
  ServiceBenchResult out;
  for (const std::size_t batch : {std::size_t{16}, std::size_t{64}, std::size_t{256}}) {
    const auto probes = service_bench_probes(*dataset, flat_config.features, batch);

    // Direct: one flat module's recognize_batch, at one and at several
    // worker threads (thread fan-out only pays off on multi-core hosts).
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      (void)flat.recognize_batch(probes, threads);  // warm caches
      SpinBatchTiming stages;
      const auto start = Clock::now();
      std::size_t done = 0;
      while (done < total_queries) {
        (void)flat.recognize_batch(probes, threads);
        done += probes.size();
        if (threads == 1) {
          // Per-stage breakdown rides the t=1 measurement loop for free.
          const SpinBatchTiming& t = flat.last_batch_timing();
          stages.dac_us += t.dac_us;
          stages.gemm_us += t.gemm_us;
          stages.wta_us += t.wta_us;
          stages.assemble_us += t.assemble_us;
          stages.queries += t.queries;
        }
      }
      ServiceRow row;
      row.mode = "direct";
      row.threads = threads;
      row.batch = batch;
      row.queries_per_sec = static_cast<double>(done) / seconds_since(start);
      out.rows.push_back(row);
      if (threads == 1 && stages.queries > 0) {
        PipelineRow stage_row;
        stage_row.batch = batch;
        const double n = static_cast<double>(stages.queries);
        stage_row.dac_us = stages.dac_us / n;
        stage_row.gemm_us = stages.gemm_us / n;
        stage_row.wta_us = stages.wta_us / n;
        stage_row.assemble_us = stages.assemble_us / n;
        stage_row.total_us =
            (stages.dac_us + stages.gemm_us + stages.wta_us + stages.assemble_us) / n;
        out.pipeline.push_back(stage_row);
      }
    }

    // Sharded: a RecognitionService with single-threaded shard workers
    // (one thread of engine work per shard).
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      RecognitionServiceConfig config;
      config.shards = shards;
      config.max_batch = batch;
      config.admission_window = std::chrono::microseconds(0);
      config.engine_threads = 1;
      RecognitionService service(
          config, [&](std::size_t, std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
            SpinAmmConfig c = service_bench_config(columns);
            c.input_full_scale_override = full_scale;
            c.row_target_conductance = row_target;
            return std::make_unique<SpinAmm>(c);
          });
      service.store_templates(stored);
      service.submit_batch(probes).get();  // warm caches
      const auto start = Clock::now();
      std::size_t done = 0;
      while (done < total_queries) {
        service.submit_batch(probes).get();
        done += probes.size();
      }
      ServiceRow row;
      row.mode = "sharded";
      row.threads = shards;
      row.shards = shards;
      row.batch = batch;
      row.queries_per_sec = static_cast<double>(done) / seconds_since(start);
      out.rows.push_back(row);
    }
  }
  return out;
}

// --------------------------------------------------------------------------
// Tier rows: flat spin vs hierarchical vs tiered (hierarchical tier 0 +
// flat spin tier 1) on one face workload — accuracy through the shared
// evaluate_engine harness, throughput self-timed, energy/query from each
// engine's own estimate (tier-mix-aware for the tiered row).
// --------------------------------------------------------------------------

struct TierRow {
  const char* engine;
  double accuracy = 0.0;
  double queries_per_sec = 0.0;
  double energy_per_query_j = 0.0;
  double escalation_rate = -1.0;  // < 0: not a tiered engine
  double reject_rate = -1.0;
};

TierRow time_tier_engine(const char* label, const FaceDataset& dataset, const FeatureSpec& spec,
                         AssociativeEngine& engine) {
  TierRow row;
  row.engine = label;
  row.accuracy = evaluate_engine(dataset, spec, engine).accuracy();

  std::vector<FeatureVector> probes;
  probes.reserve(dataset.size());
  for (const auto& sample : dataset.all()) {
    probes.push_back(extract_features(sample.image, spec));
  }
  (void)engine.recognize_batch(probes);  // warm caches
  const std::size_t total_queries = 1024;
  const auto start = Clock::now();
  std::size_t done = 0;
  while (done < total_queries) {
    (void)engine.recognize_batch(probes);
    done += probes.size();
  }
  row.queries_per_sec = static_cast<double>(done) / seconds_since(start);
  // Sampled after the traffic above, so a tiered engine reports the
  // energy of its *observed* tier mix.
  row.energy_per_query_j = engine.energy_per_query().in(units::J / units::query);
  return row;
}

/// The shared 40-identity bank (4 shots each, 64x48 px) the tier and
/// leaf-cache sections both measure on — built once per bench run.
const FaceDataset& bench_identity_dataset() {
  static const FaceDataset* dataset = new FaceDataset(40, 4, [] {
    FaceGeneratorConfig c;
    c.image_height = 64;
    c.image_width = 48;
    return c;
  }());
  return *dataset;
}

std::vector<TierRow> run_tier_benchmark() {
  // The 40-identity bank at the paper's 16x8 5-bit features: large
  // enough that the hierarchical active path (4-column router +
  // ~N/4-column leaf) is much smaller than the flat 40-column search,
  // small enough to time in CI. The 0.02 escalation threshold sits just
  // below the tier-0 margin mean (~0.025), which is what buys the flat
  // accuracy at roughly a third of the escalations.
  const FaceDataset* dataset = &bench_identity_dataset();
  FeatureSpec spec;  // 16x8, 5-bit
  const auto templates = build_templates(*dataset, spec);

  SpinAmmConfig flat_config;
  flat_config.features = spec;
  flat_config.templates = templates.size();
  flat_config.dwn = DwnParams::from_barrier(20.0);
  flat_config.seed = 7;

  HierarchicalAmmConfig hier_config;
  hier_config.features = spec;
  hier_config.clusters = 4;
  hier_config.dwn = DwnParams::from_barrier(20.0);
  hier_config.seed = 7;

  std::vector<TierRow> rows;

  SpinAmm flat(flat_config);
  flat.store_templates(templates);
  rows.push_back(time_tier_engine("flat-spin", *dataset, spec, flat));

  HierarchicalAmm hier(hier_config);
  hier.store_templates(templates);
  rows.push_back(time_tier_engine("hierarchical", *dataset, spec, hier));

  TieredEngineConfig policy;
  policy.escalation_margin = 0.02;
  TieredEngine tiered(std::make_unique<HierarchicalAmm>(hier_config),
                      std::make_unique<SpinAmm>(flat_config), policy);
  tiered.store_templates(templates);
  TierRow tiered_row = time_tier_engine("tiered", *dataset, spec, tiered);
  const TieredCounters counters = tiered.counters();
  tiered_row.escalation_rate = counters.escalation_rate();
  tiered_row.reject_rate = counters.reject_rate();
  rows.push_back(tiered_row);
  return rows;
}

// --------------------------------------------------------------------------
// Leaf-cache rows: the larger-than-memory serving trade. One 40-identity
// workload, a 4-cluster hierarchy (the same shape as the tier rows), and
// a shrinking pool of programmed leaf slots: accuracy (bit-identical to
// fully resident, by design), hit rate, throughput and the
// reprogram-amortized energy/query.
// --------------------------------------------------------------------------

struct LeafCacheRow {
  std::size_t slots = 0;
  std::size_t clusters = 0;
  double accuracy = 0.0;
  double queries_per_sec = 0.0;
  double hit_rate = 0.0;
  double energy_per_query_j = 0.0;            // search + amortized write
  double reprogram_energy_per_query_j = 0.0;  // write component alone
};

std::vector<LeafCacheRow> run_leaf_cache_benchmark() {
  const FaceDataset* dataset = &bench_identity_dataset();
  FeatureSpec spec;  // 16x8, 5-bit
  const auto templates = build_templates(*dataset, spec);

  LeafCacheEngineConfig base;
  base.hierarchy.features = spec;
  base.hierarchy.clusters = 4;
  base.hierarchy.dwn = DwnParams::from_barrier(20.0);
  base.hierarchy.seed = 7;

  std::vector<FeatureVector> probes;
  probes.reserve(dataset->size());
  for (const auto& sample : dataset->all()) {
    probes.push_back(extract_features(sample.image, spec));
  }

  std::vector<LeafCacheRow> rows;
  // Full pool (== clusters, the resident baseline), half, and quarter.
  for (const std::size_t slots : {std::size_t{4}, std::size_t{2}, std::size_t{1}}) {
    LeafCacheEngineConfig config = base;
    config.leaf_slots = slots;
    LeafCacheEngine engine(config);
    engine.store_templates(templates);

    LeafCacheRow row;
    row.slots = slots;
    row.clusters = config.hierarchy.clusters;
    row.accuracy = evaluate_engine(*dataset, spec, engine).accuracy();

    (void)engine.recognize_batch(probes);  // warm caches
    const std::size_t total_queries = 1024;
    const auto start = Clock::now();
    std::size_t done = 0;
    while (done < total_queries) {
      (void)engine.recognize_batch(probes);
      done += probes.size();
    }
    row.queries_per_sec = static_cast<double>(done) / seconds_since(start);

    const LeafCacheCounters counters = engine.counters();
    row.hit_rate = counters.hit_rate();
    row.energy_per_query_j = engine.energy_per_query().in(units::J / units::query);
    row.reprogram_energy_per_query_j =
        counters.queries == 0
            ? 0.0
            : counters.reprogram_energy.in(units::J) / static_cast<double>(counters.queries);
    rows.push_back(row);
  }
  return rows;
}

// --------------------------------------------------------------------------
// Endurance rows: accuracy and energy/query vs accumulated write cycles,
// LRU vs wear-leveled eviction, with and without self-repair. Finite
// device endurance plus a thrashing 2-slot pool means reprogram traffic
// wears devices out *during* the run; the rows record how each policy
// pair holds up at successive traffic checkpoints.
// --------------------------------------------------------------------------

struct EnduranceRow {
  const char* policy = "lru";
  bool repair = false;
  std::size_t queries = 0;  // cumulative recognitions at this checkpoint
  double accuracy = 0.0;
  double energy_per_query_j = 0.0;
  double hit_rate = 0.0;
  std::uint64_t device_writes = 0;
  std::uint64_t device_writes_saved = 0;
  std::uint64_t max_slot_write_cycles = 0;
  std::uint64_t worn_out_devices = 0;
  std::uint64_t columns_remapped = 0;
};

std::vector<EnduranceRow> run_endurance_benchmark() {
  const FaceDataset* dataset = &bench_identity_dataset();
  FeatureSpec spec;  // 16x8, 5-bit
  const auto templates = build_templates(*dataset, spec);

  std::vector<FeatureVector> probes;
  probes.reserve(dataset->size());
  for (const auto& sample : dataset->all()) {
    probes.push_back(extract_features(sample.image, spec));
  }

  LeafCacheEngineConfig base;
  base.hierarchy.features = spec;
  base.hierarchy.clusters = 4;
  base.hierarchy.dwn = DwnParams::from_barrier(20.0);
  base.hierarchy.seed = 7;
  base.leaf_slots = 2;  // half pool: every cluster switch may reprogram
  // Endurance tight enough that devices wear out inside the run.
  base.hierarchy.memristor.endurance_cycles = 18.0;
  base.hierarchy.memristor.endurance_sigma = 0.3;
  base.endurance.delta_writes = true;
  base.endurance.spare_columns = 6;
  base.endurance.verify_interval = 200;
  base.endurance.wear_delta = 2500;

  std::vector<EnduranceRow> rows;
  for (const LeafSlotPolicy policy : {LeafSlotPolicy::kLru, LeafSlotPolicy::kWearLeveled}) {
    for (const bool repair : {false, true}) {
      LeafCacheEngineConfig config = base;
      config.endurance.policy = policy;
      config.endurance.repair = repair;
      LeafCacheEngine engine(config);
      engine.store_templates(templates);

      for (int checkpoint = 0; checkpoint < 3; ++checkpoint) {
        for (int pass = 0; pass < 3; ++pass) {
          (void)engine.recognize_batch(probes);
        }
        EnduranceRow row;
        row.policy = policy == LeafSlotPolicy::kLru ? "lru" : "wear-leveled";
        row.repair = repair;
        row.accuracy = evaluate_engine(*dataset, spec, engine).accuracy();
        const LeafCacheCounters counters = engine.counters();
        row.queries = counters.queries;
        row.energy_per_query_j = engine.energy_per_query().in(units::J / units::query);
        row.hit_rate = counters.hit_rate();
        row.device_writes = counters.device_writes;
        row.device_writes_saved = counters.device_writes_saved;
        row.max_slot_write_cycles = counters.max_slot_write_cycles();
        row.worn_out_devices = counters.worn_out_devices;
        row.columns_remapped = counters.columns_remapped;
        rows.push_back(row);
      }
    }
  }
  return rows;
}

// --------------------------------------------------------------------------
// Overload rows: the open-loop Poisson/Zipf driver pushes a 2-shard
// tiered spin service past its knee and records what the hardening does
// about it — deadline shed rate, queue-cap reject rate, brown-out
// (degraded) rate and served p99 at each offered-load multiple, plus one
// row with a shard wedged solid (watchdog + breaker keep the service
// answering at coverage 0.5). Every row gets a fresh service so its
// stats are that load point's alone.
// --------------------------------------------------------------------------

struct OverloadRow {
  const char* label = "";
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p99_served_us = 0.0;
  double shed_rate = 0.0;
  double reject_rate = 0.0;
  double degraded_rate = 0.0;
  double mean_coverage = 0.0;
};

// Queries the unloaded trickle and every loaded row submit: a p99 then
// rests on at least 100 tail samples.
constexpr std::size_t kOverloadQueriesPerRow = 10'000;

struct OverloadBenchResult {
  double knee_qps = 0.0;
  double unloaded_p99_us = 0.0;
  double deadline_us = 0.0;
  double target_p99_us = 0.0;
  std::vector<OverloadRow> rows;
};

OverloadBenchResult run_overload_benchmark() {
  // Same 40-identity / 16x8x5b workload as the tier rows, so the tiered
  // shard engines (hierarchical tier 0 + flat spin tier 1) are the shapes
  // whose tier trade the `tiers` section already characterises.
  const FaceDataset* dataset = &bench_identity_dataset();
  FeatureSpec spec;  // 16x8, 5-bit
  const auto templates = build_templates(*dataset, spec);

  SpinAmmConfig flat_config;
  flat_config.features = spec;
  flat_config.templates = templates.size();
  flat_config.dwn = DwnParams::from_barrier(20.0);
  flat_config.seed = 7;
  SpinAmm flat(flat_config);
  flat.store_templates(templates);
  const double full_scale = flat.input_full_scale();
  const double row_target = flat.crossbar().row_conductance(0);

  std::vector<FeatureVector> probes;
  probes.reserve(dataset->size());
  for (const auto& sample : dataset->all()) {
    probes.push_back(extract_features(sample.image, spec));
  }

  const auto make_factory = [&](std::shared_ptr<FaultSwitch> control) {
    TieredEngineConfig policy;
    policy.escalation_margin = 0.02;
    auto tier0 = [spec](std::size_t, std::size_t) -> std::unique_ptr<AssociativeEngine> {
      HierarchicalAmmConfig h;
      h.features = spec;
      h.clusters = 4;
      h.dwn = DwnParams::from_barrier(20.0);
      h.seed = 7;
      return std::make_unique<HierarchicalAmm>(h);
    };
    auto tier1 = [flat_config, full_scale,
                  row_target](std::size_t, std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
      SpinAmmConfig c = flat_config;
      c.templates = columns;
      c.input_full_scale_override = full_scale;
      c.row_target_conductance = row_target;
      return std::make_unique<SpinAmm>(c);
    };
    auto tiered = make_tiered_factory(tier0, tier1, policy);
    // The fault switch (when given) wedges shard 0 only — the stuck-shard
    // row is about the service surviving one bad shard, not all of them.
    return RecognitionService::EngineFactory(
        [tiered, control](std::size_t shard, std::size_t columns) {
          std::unique_ptr<AssociativeEngine> engine = tiered(shard, columns);
          if (control != nullptr && shard == 0) {
            engine = std::make_unique<FaultInjectingEngine>(std::move(engine),
                                                            FaultInjectionConfig{}, control);
          }
          return engine;
        });
  };

  OverloadBenchResult out;

  // The shared edge shape: small micro-batches and threaded shard
  // workers keep per-batch engine time short, which is what bounds a
  // served query's tail (worst case = deadline spent queued + one batch).
  const auto edge_config = [] {
    RecognitionServiceConfig config;
    config.shards = 2;
    config.max_batch = 8;
    config.admission_window = std::chrono::microseconds(200);
    config.engine_threads = 2;
    config.max_queue = 512;
    return config;
  };

  // Knee: closed-loop capacity of the healthy service (the completion
  // rate when the client never outruns it), at the same edge shape the
  // loaded rows use. Every loaded row offers a multiple of it, and the
  // closed-loop rate wanders over tens of milliseconds, so it is timed
  // over a span of at least half a second, not a fixed query count.
  {
    RecognitionServiceConfig config = edge_config();
    config.admission_window = std::chrono::microseconds(0);
    config.max_queue = 0;
    RecognitionService service(config, make_factory(nullptr));
    service.store_templates(templates);
    service.submit_batch(probes).get();  // warm caches
    const double min_seconds = 0.5;
    const std::size_t min_queries = 2048;
    const auto start = Clock::now();
    std::size_t done = 0;
    double elapsed = 0.0;
    while (done < min_queries || elapsed < min_seconds) {
      service.submit_batch(probes).get();
      done += probes.size();
      elapsed = seconds_since(start);
    }
    out.knee_qps = static_cast<double>(done) / elapsed;
  }

  // Unloaded p99: an open-loop trickle (5 % of knee) through the same
  // edge shape and the same stats channel the loaded rows use. The
  // service is warmed with serial singles first (a warm-up *batch* would
  // put its own long queue-wait latencies into the tail) and the trickle
  // is long enough that the few remaining cold outliers sit above the
  // 99th percentile.
  {
    RecognitionService service(edge_config(), make_factory(nullptr));
    service.store_templates(templates);
    for (std::size_t i = 0; i < 32; ++i) {
      (void)service.submit(probes[i % probes.size()]).get();
    }
    LoadGenConfig load;
    load.offered_qps = std::max(50.0, 0.05 * out.knee_qps);
    load.queries = kOverloadQueriesPerRow;
    (void)run_open_loop(service, probes, load);
    out.unloaded_p99_us = service.stats().p99_latency_us;
  }

  // The hardening knobs, anchored to the unloaded latency. A served
  // query's worst case is roughly deadline (queueing it survives) plus
  // one micro-batch of engine time, so with the deadline at 1.5x the
  // unloaded p99 and short batches the served p99 holds under 5x
  // unloaded even past the knee. The controller starts trading accuracy
  // for latency at 1.25x.
  out.deadline_us = std::max(500.0, 1.5 * out.unloaded_p99_us);
  out.target_p99_us = std::max(300.0, 1.25 * out.unloaded_p99_us);

  const auto hardened_config = [&] {
    RecognitionServiceConfig config = edge_config();
    config.overload.enabled = true;
    config.overload.target_p99_us = out.target_p99_us;
    config.overload.brownout_factor = 2.0;
    config.overload.min_escalation_margin = 0.0;
    config.overload.period_queries = 128;
    return config;
  };

  const auto measure = [&](const char* label, double offered_qps,
                           RecognitionService& service) {
    LoadGenConfig load;
    load.offered_qps = offered_qps;
    load.queries = kOverloadQueriesPerRow;
    load.deadline = std::chrono::microseconds(static_cast<long>(out.deadline_us));
    const LoadGenReport report = run_open_loop(service, probes, load);
    OverloadRow row;
    row.label = label;
    row.offered_qps = offered_qps;
    row.achieved_qps = report.achieved_qps;
    row.p99_served_us = service.stats().p99_latency_us;
    row.shed_rate = report.shed_rate();
    row.reject_rate = report.reject_rate();
    row.degraded_rate = report.degraded_rate();
    row.mean_coverage = report.mean_coverage;
    out.rows.push_back(row);
  };

  // Offered-load sweep: below the knee, at it, and well past it.
  const struct {
    const char* label;
    double multiple;
  } sweep[] = {{"0.5x", 0.5}, {"1x", 1.0}, {"2x", 2.0}, {"4x", 4.0}};
  for (const auto& point : sweep) {
    RecognitionService service(hardened_config(), make_factory(nullptr));
    service.store_templates(templates);
    measure(point.label, point.multiple * out.knee_qps, service);
  }

  // One shard wedged solid for the whole run: the watchdog abandons it,
  // the breaker ejects it, and the service keeps answering best-effort
  // over the surviving shard (coverage 0.5).
  {
    auto control = std::make_shared<FaultSwitch>();
    RecognitionServiceConfig config = hardened_config();
    config.shard_timeout = std::chrono::microseconds(2000);
    config.breaker_failure_threshold = 2;
    RecognitionService service(config, make_factory(control));
    service.store_templates(templates);
    control->stick();
    measure("stuck-shard-0.5x", 0.5 * out.knee_qps, service);
    // Unwedge before the service destructor joins the stuck worker.
    control->release();
  }
  return out;
}

int run_json_benchmark(const std::string& path, const std::string& section) {
  // `--section <name>` runs and emits just that section — the fast mode
  // CI's bench smoke job uses. Empty means everything.
  const auto want = [&](const char* name) { return section.empty() || section == name; };

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"recognition_paths\"");

  ServiceBenchResult service_bench;
  if (want("service")) {
    // Service-level rows: *full recognitions* (front end + WTA).
    std::printf("timing the service edge (full recognitions, direct vs sharded)...\n");
    service_bench = run_service_benchmark();
    std::fprintf(f, ",\n  \"service\": {\n");
    std::fprintf(f, "    \"workload\": {\"backend\": \"spin\", \"rows\": 64, \"templates\": 160, "
                    "\"crossbar\": \"parasitic-transfer\", \"unit\": \"full recognitions/s\"},\n");
    std::fprintf(f, "    \"rows\": [\n");
    for (std::size_t i = 0; i < service_bench.rows.size(); ++i) {
      const ServiceRow& row = service_bench.rows[i];
      std::fprintf(f,
                   "      {\"mode\": \"%s\", \"threads\": %zu, \"shards\": %zu, \"batch\": %zu, "
                   "\"queries_per_sec\": %.1f}%s\n",
                   row.mode, row.threads, row.shards, row.batch, row.queries_per_sec,
                   i + 1 < service_bench.rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    // Per-stage latency of the fused batch pipeline (direct t=1): where a
    // query's microseconds actually go.
    std::fprintf(f, "  \"pipeline\": {\n");
    std::fprintf(f, "    \"workload\": {\"backend\": \"spin\", \"mode\": \"direct\", "
                    "\"threads\": 1, \"unit\": \"us/query\"},\n");
    std::fprintf(f, "    \"rows\": [\n");
    for (std::size_t i = 0; i < service_bench.pipeline.size(); ++i) {
      const PipelineRow& row = service_bench.pipeline[i];
      std::fprintf(f,
                   "      {\"batch\": %zu, \"dac_us\": %.3f, \"gemm_us\": %.3f, "
                   "\"wta_us\": %.3f, \"assemble_us\": %.3f, \"total_us\": %.3f}%s\n",
                   row.batch, row.dac_us, row.gemm_us, row.wta_us, row.assemble_us, row.total_us,
                   i + 1 < service_bench.pipeline.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }");
  }

  std::vector<TierRow> tier_rows;
  if (want("tiers")) {
    // Tier rows: the accuracy/energy trade the tiered router buys.
    std::printf("timing the tier comparison (flat vs hierarchical vs tiered)...\n");
    tier_rows = run_tier_benchmark();
    std::fprintf(f, ",\n  \"tiers\": {\n");
    std::fprintf(f, "    \"workload\": {\"identities\": 40, \"probes\": 160, \"features\": \"16x8x5b\", "
                    "\"clusters\": 4, \"escalation_margin\": 0.02, \"unit\": \"full recognitions/s\"},\n");
    std::fprintf(f, "    \"rows\": [\n");
    for (std::size_t i = 0; i < tier_rows.size(); ++i) {
      const TierRow& row = tier_rows[i];
      std::fprintf(f,
                   "      {\"engine\": \"%s\", \"accuracy\": %.4f, \"queries_per_sec\": %.1f, "
                   "\"energy_per_query_j\": %.4e",
                   row.engine, row.accuracy, row.queries_per_sec, row.energy_per_query_j);
      if (row.escalation_rate >= 0.0) {
        std::fprintf(f, ", \"escalation_rate\": %.4f, \"reject_rate\": %.4f", row.escalation_rate,
                     row.reject_rate);
      }
      std::fprintf(f, "}%s\n", i + 1 < tier_rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }");
  }

  std::vector<LeafCacheRow> leaf_rows;
  if (want("leaf_cache")) {
    // Leaf-cache rows: hit rate and reprogram-amortized energy vs pool size.
    std::printf("timing the leaf cache (pool size sweep, larger-than-memory serving)...\n");
    leaf_rows = run_leaf_cache_benchmark();
    std::fprintf(f, ",\n  \"leaf_cache\": {\n");
    std::fprintf(f, "    \"workload\": {\"identities\": 40, \"probes\": 160, \"features\": "
                    "\"16x8x5b\", \"clusters\": 4, \"unit\": \"full recognitions/s\"},\n");
    std::fprintf(f, "    \"rows\": [\n");
    for (std::size_t i = 0; i < leaf_rows.size(); ++i) {
      const LeafCacheRow& row = leaf_rows[i];
      std::fprintf(f,
                   "      {\"slots\": %zu, \"clusters\": %zu, \"accuracy\": %.4f, "
                   "\"queries_per_sec\": %.1f, \"hit_rate\": %.4f, \"energy_per_query_j\": %.4e, "
                   "\"reprogram_energy_per_query_j\": %.4e}%s\n",
                   row.slots, row.clusters, row.accuracy, row.queries_per_sec, row.hit_rate,
                   row.energy_per_query_j, row.reprogram_energy_per_query_j,
                   i + 1 < leaf_rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }");
  }

  std::vector<EnduranceRow> endurance_rows;
  if (want("endurance")) {
    // Endurance rows: wear-out under reprogram traffic, policy x repair.
    std::printf("timing the endurance sweep (LRU vs wear-leveled, repair on/off)...\n");
    endurance_rows = run_endurance_benchmark();
    std::fprintf(f, ",\n  \"endurance\": {\n");
    std::fprintf(f, "    \"workload\": {\"identities\": 40, \"probes\": 160, \"features\": "
                    "\"16x8x5b\", \"clusters\": 4, \"slots\": 2, \"endurance_cycles\": 18, "
                    "\"spare_columns\": 6, \"delta_writes\": true},\n");
    std::fprintf(f, "    \"rows\": [\n");
    for (std::size_t i = 0; i < endurance_rows.size(); ++i) {
      const EnduranceRow& row = endurance_rows[i];
      std::fprintf(f,
                   "      {\"policy\": \"%s\", \"repair\": %s, \"queries\": %zu, "
                   "\"accuracy\": %.4f, \"energy_per_query_j\": %.4e, \"hit_rate\": %.4f, "
                   "\"device_writes\": %llu, \"device_writes_saved\": %llu, "
                   "\"max_slot_write_cycles\": %llu, \"worn_out_devices\": %llu, "
                   "\"columns_remapped\": %llu}%s\n",
                   row.policy, row.repair ? "true" : "false", row.queries, row.accuracy,
                   row.energy_per_query_j, row.hit_rate,
                   static_cast<unsigned long long>(row.device_writes),
                   static_cast<unsigned long long>(row.device_writes_saved),
                   static_cast<unsigned long long>(row.max_slot_write_cycles),
                   static_cast<unsigned long long>(row.worn_out_devices),
                   static_cast<unsigned long long>(row.columns_remapped),
                   i + 1 < endurance_rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }");
  }

  OverloadBenchResult overload;
  if (want("overload")) {
    // Overload rows: the open-loop driver vs the hardened service edge.
    std::printf("timing the overload sweep (open-loop load vs the hardened service edge)...\n");
    overload = run_overload_benchmark();
    std::fprintf(f, ",\n  \"overload\": {\n");
    std::fprintf(f,
                 "    \"workload\": {\"identities\": 40, \"features\": \"16x8x5b\", \"shards\": 2, "
                 "\"backend\": \"tiered(hierarchical+spin)\", \"max_queue\": 512, "
                 "\"knee_qps\": %.1f, \"unloaded_p99_us\": %.1f, \"deadline_us\": %.1f, "
                 "\"target_p99_us\": %.1f},\n",
                 overload.knee_qps, overload.unloaded_p99_us, overload.deadline_us,
                 overload.target_p99_us);
    std::fprintf(f, "    \"rows\": [\n");
    for (std::size_t i = 0; i < overload.rows.size(); ++i) {
      const OverloadRow& row = overload.rows[i];
      std::fprintf(f,
                   "      {\"load\": \"%s\", \"offered_qps\": %.1f, \"achieved_qps\": %.1f, "
                   "\"p99_served_us\": %.1f, \"shed_rate\": %.4f, \"reject_rate\": %.4f, "
                   "\"degraded_rate\": %.4f, \"mean_coverage\": %.4f}%s\n",
                   row.label, row.offered_qps, row.achieved_qps, row.p99_served_us, row.shed_rate,
                   row.reject_rate, row.degraded_rate, row.mean_coverage,
                   i + 1 < overload.rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);

  std::printf("wrote %s\n", path.c_str());
  for (const ServiceRow& row : service_bench.rows) {
    std::printf("  service %-7s t=%zu b=%-3zu: %12.1f full recognitions/s\n", row.mode,
                row.threads, row.batch, row.queries_per_sec);
  }
  for (const PipelineRow& row : service_bench.pipeline) {
    std::printf("  pipeline b=%-3zu: dac %6.3f, gemm %6.3f, wta %6.3f, assemble %6.3f "
                "-> %6.3f us/query\n",
                row.batch, row.dac_us, row.gemm_us, row.wta_us, row.assemble_us, row.total_us);
  }
  for (const TierRow& row : tier_rows) {
    std::printf("  tier %-12s: %6.2f %% acc, %10.1f q/s, %.3e J/query", row.engine,
                100.0 * row.accuracy, row.queries_per_sec, row.energy_per_query_j);
    if (row.escalation_rate >= 0.0) {
      std::printf(" (escalation %.1f %%, reject %.1f %%)", 100.0 * row.escalation_rate,
                  100.0 * row.reject_rate);
    }
    std::printf("\n");
  }
  for (const LeafCacheRow& row : leaf_rows) {
    std::printf("  leaf-cache %zu/%zu slots: %6.2f %% acc, %10.1f q/s, hit %.1f %%, "
                "%.3e J/query (write %.3e)\n",
                row.slots, row.clusters, 100.0 * row.accuracy, row.queries_per_sec,
                100.0 * row.hit_rate, row.energy_per_query_j, row.reprogram_energy_per_query_j);
  }
  for (const EnduranceRow& row : endurance_rows) {
    std::printf("  endurance %-12s repair=%s q=%-5zu: %6.2f %% acc, max slot wear %llu, "
                "worn %llu, remapped %llu\n",
                row.policy, row.repair ? "on " : "off", row.queries, 100.0 * row.accuracy,
                static_cast<unsigned long long>(row.max_slot_write_cycles),
                static_cast<unsigned long long>(row.worn_out_devices),
                static_cast<unsigned long long>(row.columns_remapped));
  }
  if (want("overload")) {
    std::printf("  overload knee %.1f q/s, unloaded p99 %.1f us\n", overload.knee_qps,
                overload.unloaded_p99_us);
  }
  for (const OverloadRow& row : overload.rows) {
    std::printf("  overload %-16s offered %9.1f q/s: served %9.1f q/s, p99 %8.1f us, "
                "shed %5.1f %%, reject %5.1f %%, degraded %5.1f %%, coverage %.2f\n",
                row.label, row.offered_qps, row.achieved_qps, row.p99_served_us,
                100.0 * row.shed_rate, 100.0 * row.reject_rate, 100.0 * row.degraded_rate,
                row.mean_coverage);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string section;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path =
          (i + 1 < argc && argv[i + 1][0] != '-') ? argv[i + 1] : "BENCH_recognition.json";
    } else if (std::strcmp(argv[i], "--section") == 0 && i + 1 < argc) {
      // Run and emit only one JSON section (service | tiers | leaf_cache
      // | endurance | overload) — the fast mode CI's bench smoke job uses.
      // `service` also emits the `pipeline` breakdown.
      section = argv[++i];
    }
  }
  if (!json_path.empty()) {
    return run_json_benchmark(json_path, section);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
