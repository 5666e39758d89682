/// \file test_alloc_budget.cpp
/// Heap-allocation budgets of the hot paths.
///
/// This binary replaces the global operator new/delete with counting
/// versions, which is why it is a test directory of its own: the counts
/// see every allocation in the process, and the bytes it still holds.
/// Each test therefore warms any lazy state first, then reads a count
/// around one single-threaded call.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "amm/leaf_cache_engine.hpp"
#include "amm/spin_amm.hpp"
#include "core/error.hpp"
#include "core/random.hpp"
#include "crossbar/rcm.hpp"
#include "datapath/dtcs_dac.hpp"
#include "support/random_features.hpp"
#include "support/random_weights.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::ptrdiff_t> g_live_bytes{0};

std::size_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// Bytes allocated through operator new and not yet deleted, counted as
/// the allocator's usable size of each block.
std::ptrdiff_t live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }

std::ptrdiff_t usable_bytes(void* p) { return static_cast<std::ptrdiff_t>(malloc_usable_size(p)); }

void release(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(usable_bytes(p), std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

// The array and nothrow forms forward to these by default. The library
// declares no over-aligned type, so the aligned forms stay the standard
// library's own.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    g_live_bytes.fetch_add(usable_bytes(p), std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace spinsim {
namespace {

TEST(AllocBudget, PassingRequireAllocatesNothing) {
  volatile bool holds = true;  // keeps the check from folding away
  const std::size_t before = allocations();
  require(holds, "AllocBudget: a message longer than the small-string buffer");
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(AllocBudget, MismatchDacBuildAllocatesOnce) {
  // One allocation, the code table: the per-bit devices are evaluated
  // into it and not kept.
  const DtcsDacDesign design;  // 5 bits
  Rng rng(2013);
  const DtcsDac warm(design, rng);
  const std::size_t before = allocations();
  const DtcsDac dac(design, rng);
  EXPECT_LE(allocations() - before, 1u);
  EXPECT_GT(dac.conductance(design.max_code()), 0.0);
}

TEST(AllocBudget, LeafReattachAllocatesNoMoreThanAHit) {
  // A plain-mode 16x8 leaf cache with one slot: every switch of cluster
  // misses. A plain leaf is a pure function of its cluster, so a miss on
  // a cluster whose leaf was built and then evicted re-attaches that leaf
  // instead of building a new one, and allocates no more than a hit.
  LeafCacheEngineConfig config;
  config.hierarchy.features.height = 16;
  config.hierarchy.features.width = 8;
  config.hierarchy.clusters = 8;
  config.hierarchy.dwn = DwnParams::from_barrier(20.0);
  config.hierarchy.seed = 7;
  config.leaf_slots = 1;

  Rng rng(23);
  std::vector<FeatureVector> templates;
  for (std::size_t j = 0; j < 48; ++j) {
    templates.push_back(testing::random_feature_vector(config.hierarchy.features, rng));
  }
  LeafCacheEngine engine(config);
  engine.store_templates(templates);

  // Serve every template once, so every leaf a template routes to has
  // been built; the one slot ends holding the last one.
  std::vector<std::size_t> route;
  for (const FeatureVector& t : templates) {
    route.push_back(engine.recognize(t).hierarchical()->cluster);
  }
  // The probe: a template routed to a leaf that is not resident now.
  std::size_t probe = templates.size();
  for (std::size_t j = 0; j < templates.size() && probe == templates.size(); ++j) {
    if (engine.leaf_members(route[j]).size() >= 2 && !engine.resident(route[j])) {
      probe = j;
    }
  }
  ASSERT_LT(probe, templates.size());

  const LeafCacheCounters start = engine.counters();
  std::size_t before = allocations();
  (void)engine.recognize(templates[probe]);
  const std::size_t miss = allocations() - before;
  ASSERT_EQ(engine.counters().misses, start.misses + 1);

  before = allocations();
  (void)engine.recognize(templates[probe]);
  const std::size_t hit = allocations() - before;
  ASSERT_EQ(engine.counters().hits, start.hits + 1);

  EXPECT_LE(miss, hit) << "a re-attaching miss allocated " << miss << " times, a hit " << hit;
}

TEST(AllocBudget, SpinRecognizeBatchAllocatesFewerThanEightPerQuery) {
  // One shard of the spin-bulk benchmark workload: 64 rows x 80 columns
  // on the parasitic crossbar, one engine thread.
  SpinAmmConfig config;
  config.features.height = 8;
  config.features.width = 8;
  config.templates = 80;
  config.dwn = DwnParams::from_barrier(20.0);
  config.model = CrossbarModel::kParasitic;
  config.seed = 5;

  Rng rng(11);
  std::vector<FeatureVector> templates;
  for (std::size_t j = 0; j < config.templates; ++j) {
    templates.push_back(testing::random_feature_vector(config.features, rng));
  }
  std::vector<FeatureVector> queries;
  for (std::size_t q = 0; q < 256; ++q) {
    queries.push_back(testing::random_feature_vector(config.features, rng));
  }

  SpinAmm amm(config);
  amm.store_templates(templates);
  amm.recognize_batch(queries, 1);  // builds the lazy input-stage caches

  const std::size_t before = allocations();
  const std::vector<Recognition> results = amm.recognize_batch(queries, 1);
  const std::size_t used = allocations() - before;
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_LT(used, 8 * queries.size()) << used << " allocations for " << queries.size()
                                      << " queries";
}

TEST(AllocBudget, PreparedParasiticArrayHoldsOnlyItsOperator) {
  // A spin-bulk shard's 64 x 80 parasitic crossbar. prepare() factors its
  // 10,240-junction wire network (megabytes of factor), reads the 80 x 64
  // transfer operator out of it and frees the rest: the array may keep
  // no more than twice the operator's 40 KB.
  RcmConfig config;
  config.rows = 64;
  config.cols = 80;
  config.model = CrossbarModel::kParasitic;
  RcmArray array(config, Rng(5));
  array.program(testing::random_columns(config.rows, config.cols, 6));
  (void)array.row_conductance(0);  // the row-sum cache

  const std::ptrdiff_t before = live_bytes();
  array.prepare();
  const std::ptrdiff_t held = live_bytes() - before;
  const auto operator_bytes =
      static_cast<std::ptrdiff_t>(config.rows * config.cols * sizeof(double));
  EXPECT_LE(held, 2 * operator_bytes) << held << " bytes held after prepare()";
}

}  // namespace
}  // namespace spinsim
