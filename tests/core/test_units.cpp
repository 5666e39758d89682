/// \file test_units.cpp
/// The dimensional-analysis layer: compile-time algebra, zero-overhead
/// guarantees, unit round-trips, and a bit-exactness regression pinning
/// energy_per_query() across all six engines to the values the energy
/// plumbing produced before it was migrated from raw doubles to
/// Quantity<Dim>. The migration multiplies/divides only by exact 1.0
/// conversions and preserves evaluation order, so every double here must
/// match to the last bit — any drift means the refactor stopped being a
/// pure type change.

#include "core/units.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "amm/digital_amm.hpp"
#include "amm/hierarchical_amm.hpp"
#include "amm/leaf_cache_engine.hpp"
#include "amm/mscmos_amm.hpp"
#include "amm/spin_amm.hpp"
#include "amm/tiered_engine.hpp"
#include "core/random.hpp"
#include "support/random_features.hpp"

namespace spinsim {
namespace {

// ------------------------------------------------------------------
// Compile-time dimension algebra. These complement the identities
// already static_asserted in units.hpp itself.
// ------------------------------------------------------------------

static_assert(std::is_same_v<decltype(Current{} * Resistance{}), Voltage>, "I * R = V");
static_assert(std::is_same_v<decltype(Voltage{} / Resistance{}), Current>, "V / R = I");
static_assert(std::is_same_v<decltype(Voltage{} * Voltage{} * Conductance{}), Power>,
              "V^2 * G = P");
static_assert(std::is_same_v<decltype(Capacitance{} * Voltage{}), Charge>, "C * V = Q");
static_assert(std::is_same_v<decltype(Charge{} / Time{}), Current>, "Q / t = I");
static_assert(std::is_same_v<decltype(EnergyPerQuery{} * Queries{}), Energy>,
              "(E/q) * q = E");
static_assert(std::is_same_v<decltype(Power{} / Frequency{}), Energy>, "P / f = E");
static_assert(std::is_same_v<decltype(1.0 / Time{}), Frequency>, "1 / t = f");

// A dimensionless quotient collapses to plain double, so ratios stay
// ergonomic (printf, EXPECT_NEAR) without an .in() call.
static_assert(std::is_same_v<decltype(Energy{} / Energy{}), double>,
              "same-dimension quotient is a bare double");
static_assert(std::is_same_v<decltype(Power{} / Power{}), double>,
              "same-dimension quotient is a bare double");

// EnergyPerQuery is NOT Energy: the query bookkeeping base keeps the two
// from silently mixing at a service boundary.
static_assert(!std::is_same_v<EnergyPerQuery, Energy>, "E/q and E are distinct types");

// Zero overhead: a Quantity is exactly a double in memory and in ABI.
static_assert(sizeof(Power) == sizeof(double));
static_assert(sizeof(EnergyPerQuery) == sizeof(double));
static_assert(alignof(Energy) == alignof(double));
static_assert(std::is_trivially_copyable_v<Power>);
static_assert(std::is_trivially_copyable_v<EnergyPerQuery>);
static_assert(std::is_standard_layout_v<Energy>);

// The whole algebra is constexpr: arithmetic, scaling, extraction.
static_assert((2.0 * units::J + 3.0 * units::J).in(units::J) == 5.0);
static_assert((units::volt * units::ampere).in(units::W) == 1.0);
static_assert((4.0 * units::W * (0.5 * units::second)).in(units::J) == 2.0);
static_assert((3.0 * units::J / (2.0 * units::query)).in(units::J / units::query) == 1.5);
static_assert(2.0 * units::W > units::W);
static_assert(Energy{} < units::fJ);

// ------------------------------------------------------------------
// Runtime semantics
// ------------------------------------------------------------------

TEST(Units, RoundTripAtSmallScales) {
  // The paper's numbers live at pico/femto/atto scale; extraction must
  // invert construction exactly at the precision gtest can check.
  EXPECT_DOUBLE_EQ((0.966 * units::pJ).in(units::pJ), 0.966);
  EXPECT_DOUBLE_EQ((2.5 * units::fJ).in(units::fJ), 2.5);
  EXPECT_DOUBLE_EQ((100.0 * units::aJ).in(units::aJ), 100.0);
  // Cross-scale: 1 pJ is 1000 fJ is 1e6 aJ.
  EXPECT_DOUBLE_EQ(units::pJ.in(units::fJ), 1e3);
  EXPECT_DOUBLE_EQ(units::pJ.in(units::aJ), 1e6);
  // The canonical unit is an exact 1.0, so .in(units::J) == .si() bit-for-bit.
  const Energy e = 0.123456789e-12 * units::J;
  EXPECT_EQ(e.in(units::J), e.si());
}

TEST(Units, ArithmeticAndComparisons) {
  Energy acc{};
  acc += 2.0 * units::pJ;
  acc += 3.0 * units::pJ;
  acc -= 1.0 * units::pJ;
  EXPECT_DOUBLE_EQ(acc.in(units::pJ), 4.0);
  EXPECT_GT(acc, Energy{});
  EXPECT_LT(acc, 1.0 * units::nJ);
  EXPECT_DOUBLE_EQ((acc * 2.0).in(units::pJ), 8.0);
  EXPECT_DOUBLE_EQ((acc / 2.0).in(units::pJ), 2.0);
  EXPECT_DOUBLE_EQ((6.0 * units::pJ) / (3.0 * units::pJ), 2.0);
}

TEST(Units, DerivedQuantitiesCompose) {
  const Power p = 65e-6 * units::W;             // paper Table 1 spin PE
  const Frequency f = 100.0 * units::MHz;
  const Energy per_cycle = p / f;
  EXPECT_DOUBLE_EQ(per_cycle.in(units::fJ), 650.0);
  const EnergyPerQuery epq = per_cycle * 5.0 / units::query;  // 5 SAR cycles
  EXPECT_DOUBLE_EQ(epq.in(units::pJ / units::query), 3.25);
  EXPECT_DOUBLE_EQ((epq * (2.0 * units::query)).in(units::pJ), 6.5);
}

TEST(Units, StreamsWithSiValue) {
  std::ostringstream os;
  os << 1.5 * units::W;
  EXPECT_EQ(os.str(), "1.5");
}

// ------------------------------------------------------------------
// Bit-exactness regression across all six engines.
//
// The doubles below were captured from the pre-migration tree (raw
// double energy plumbing) with this exact configuration, printed via
// printf("%a"). The typed migration must reproduce them bit-for-bit.
// ------------------------------------------------------------------

FeatureSpec small_spec() {
  FeatureSpec s;
  s.height = 8;
  s.width = 6;
  s.bits = 5;
  return s;
}

struct EngineBaseline {
  const char* name;
  double epq_pre;     ///< energy_per_query().si() right after store_templates
  double epq_post;    ///< same, after an 8-query batch on 2 threads
  double power_total; ///< power().total().si()
};

// %a captures from the pre-migration build (seed 0xC0FFEE, 12 templates,
// 8x6 5-bit features, traffic = 8 queries from Rng(seed+1), threads=2).
constexpr EngineBaseline kBaselines[] = {
    {"spin", 0x1.0fe7a2c673bb5p-40, 0x1.0fe7a2c673bb5p-40, 0x1.4422c4a60cc48p-16},
    {"digital", 0x1.1f91a41539492p-33, 0x1.1f91a41539492p-33, 0x1.1e9e25c561738p-10},
    {"mscmos", 0x1.79a591a2a3e49p-35, 0x1.79a591a2a3e49p-35, 0x1.195e66e25b485p-9},
    {"hierarchical", 0x1.0fe7a2c673bb6p-40, 0x1.0fe7a2c673bb6p-40, 0x1.4422c4a60cc49p-16},
    {"tiered", 0x1.0fe7a2c673bb6p-39, 0x1.dbd55cdb4a87ep-40, 0x1.4422c4a60cc48p-15},
    {"leaf-cache", 0x1.587ef61465e9cp-25, 0x1.327a0db45c9a3p-30, 0x1.6d5949c84b07fp-6},
};

TEST(UnitsRegression, EnergyPerQueryBitIdenticalAcrossAllSixEngines) {
  const std::uint64_t seed = 0xC0FFEE;
  const std::size_t templates = 12;
  Rng rng(seed);
  std::vector<FeatureVector> stored;
  for (std::size_t j = 0; j < templates; ++j) {
    stored.push_back(testing::random_feature_vector(small_spec(), rng));
  }

  HierarchicalAmmConfig hc;
  hc.features = small_spec();
  hc.clusters = 3;
  hc.dwn = DwnParams::from_barrier(20.0);
  hc.seed = seed;

  std::vector<std::pair<const char*, std::unique_ptr<AssociativeEngine>>> engines;
  {
    SpinAmmConfig c;
    c.features = small_spec();
    c.templates = templates;
    c.dwn = DwnParams::from_barrier(20.0);
    c.thermal_noise = true;
    c.seed = seed;
    engines.emplace_back("spin", std::make_unique<SpinAmm>(c));
  }
  {
    DigitalAmmConfig c;
    c.features = small_spec();
    c.templates = templates;
    engines.emplace_back("digital", std::make_unique<DigitalAmm>(c));
  }
  {
    MsCmosAmmConfig c;
    c.features = small_spec();
    c.templates = templates;
    c.seed = seed;
    engines.emplace_back("mscmos", std::make_unique<MsCmosAmm>(c));
  }
  engines.emplace_back("hierarchical", std::make_unique<HierarchicalAmm>(hc));
  {
    SpinAmmConfig flat;
    flat.features = small_spec();
    flat.templates = templates;
    flat.dwn = DwnParams::from_barrier(20.0);
    flat.seed = seed ^ 0xF1A7;
    TieredEngineConfig policy;
    policy.escalation_margin = 0.05;
    engines.emplace_back("tiered",
                         std::make_unique<TieredEngine>(std::make_unique<HierarchicalAmm>(hc),
                                                        std::make_unique<SpinAmm>(flat), policy));
  }
  {
    LeafCacheEngineConfig c;
    c.hierarchy = hc;
    c.leaf_slots = 2;
    engines.emplace_back("leaf-cache", std::make_unique<LeafCacheEngine>(c));
  }

  ASSERT_EQ(engines.size(), std::size(kBaselines));

  for (std::size_t i = 0; i < engines.size(); ++i) {
    auto& [name, engine] = engines[i];
    ASSERT_STREQ(name, kBaselines[i].name);
    engine->store_templates(stored);
    EXPECT_EQ(engine->energy_per_query().si(), kBaselines[i].epq_pre)
        << name << " pre-traffic energy drifted from the raw-double baseline";
  }

  Rng qrng(seed + 1);
  std::vector<FeatureVector> queries;
  for (int q = 0; q < 8; ++q) {
    queries.push_back(testing::random_feature_vector(small_spec(), qrng));
  }

  for (std::size_t i = 0; i < engines.size(); ++i) {
    auto& [name, engine] = engines[i];
    engine->recognize_batch(queries, 2);
    EXPECT_EQ(engine->energy_per_query().si(), kBaselines[i].epq_post)
        << name << " post-traffic energy drifted from the raw-double baseline";
    EXPECT_EQ(engine->power().total().si(), kBaselines[i].power_total)
        << name << " power total drifted from the raw-double baseline";
  }
}

}  // namespace
}  // namespace spinsim
