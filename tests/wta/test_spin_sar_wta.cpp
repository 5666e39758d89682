#include "wta/spin_sar_wta.hpp"

#include <gtest/gtest.h>

#include "core/parallel.hpp"
#include "core/random.hpp"
#include "core/units.hpp"
#include "wta/ideal_wta.hpp"

namespace spinsim {
namespace {

SpinWtaConfig clean_config(std::size_t columns = 8, unsigned bits = 5) {
  SpinWtaConfig c;
  c.columns = columns;
  c.bits = bits;
  c.dwn = DwnParams::from_barrier(20.0);
  c.sample_mismatch = false;  // exact components unless a test wants noise
  c.thermal_noise = false;
  return c;
}

TEST(SpinWtaConfig, FullScale) {
  const SpinWtaConfig c = clean_config();
  EXPECT_NEAR(c.full_scale_current(), 32 * units::uA, 1e-12);
}

TEST(SpinSarWta, FindsObviousWinner) {
  SpinSarWta wta(clean_config(4));
  const auto out = wta.run({5e-6, 20e-6, 9e-6, 1e-6});
  EXPECT_EQ(out.winner, 1u);
  EXPECT_TRUE(out.unique);
}

TEST(SpinSarWta, DomMatchesIdealQuantisation) {
  const SpinWtaConfig c = clean_config(4);
  SpinSarWta wta(c);
  const std::vector<double> currents{5e-6, 20e-6, 9e-6, 1e-6};
  const auto out = wta.run(currents);
  const auto ref = ideal_wta(currents, c.bits, c.full_scale_current());
  for (std::size_t j = 0; j < currents.size(); ++j) {
    // The spin comparator only resolves differences above its threshold
    // (one LSB) and needs ~0.15 LSB extra to finish switching within the
    // cycle, so codes sit up to 2 LSB below the ideal quantisation.
    const int diff = static_cast<int>(ref.codes[j]) - static_cast<int>(out.dom_codes[j]);
    EXPECT_GE(diff, 0) << "column " << j;
    EXPECT_LE(diff, 2) << "column " << j;
  }
}

TEST(SpinSarWta, RunsExactlyMBitCycles) {
  SpinSarWta wta(clean_config(4, 3));
  const auto out = wta.run({5e-6, 2e-6, 3e-6, 1e-6});
  EXPECT_EQ(out.cycles, 3u);
  EXPECT_EQ(out.latch_decisions, 4u * 3u);
}

/// Property: with clean components, the WTA finds the argmax whenever the
/// margin exceeds one LSB.
class SpinWtaRandomCurrents : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpinWtaRandomCurrents, WinnerIsArgmaxWhenMarginAboveLsb) {
  const SpinWtaConfig c = clean_config(16);
  SpinSarWta wta(c);
  Rng rng(GetParam());
  const double lsb = c.full_scale_current() / 32.0;

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> currents(16);
    for (auto& i : currents) {
      i = rng.uniform(0.0, 26e-6);
    }
    // Force a clear winner: boost a random column 3.5 LSB above the rest
    // (the spin quantiser's dead zone spans ~2 LSB).
    const auto boosted = static_cast<std::size_t>(rng.uniform_int(0, 15));
    double best_other = 0.0;
    for (std::size_t j = 0; j < currents.size(); ++j) {
      if (j != boosted) {
        best_other = std::max(best_other, currents[j]);
      }
    }
    currents[boosted] = best_other + 3.5 * lsb;

    const auto out = wta.run(currents);
    EXPECT_EQ(out.winner, boosted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpinWtaRandomCurrents, ::testing::Values(1, 2, 3, 4, 5));

TEST(SpinSarWta, SubLsbMarginMayTie) {
  const SpinWtaConfig c = clean_config(4);
  SpinSarWta wta(c);
  // Two inputs inside the same quantiser bucket (the spin comparator's
  // decision levels sit at c * I_th + ~1.15 I_th).
  const auto out = wta.run({20.35e-6, 20.45e-6, 1e-6, 2e-6});
  EXPECT_EQ(out.dom_codes[0], out.dom_codes[1]);
  EXPECT_FALSE(out.unique);
}

TEST(SpinSarWta, TrackingSurvivorsAllHoldMaxCode) {
  const SpinWtaConfig c = clean_config(8);
  SpinSarWta wta(c);
  std::vector<double> currents{3e-6, 15.2e-6, 15.4e-6, 7e-6, 1e-6, 9e-6, 15.3e-6, 0.5e-6};
  const auto out = wta.run(currents);
  std::uint32_t best = 0;
  for (auto code : out.dom_codes) {
    best = std::max(best, code);
  }
  for (std::size_t j = 0; j < currents.size(); ++j) {
    EXPECT_EQ(out.tracking[j], out.dom_codes[j] == best) << "column " << j;
  }
}

TEST(SpinSarWta, AllZeroInputs) {
  SpinSarWta wta(clean_config(4));
  const auto out = wta.run({0.0, 0.0, 0.0, 0.0});
  EXPECT_FALSE(out.unique);  // nobody above threshold
  for (auto code : out.dom_codes) {
    EXPECT_EQ(code, 0u);
  }
}

TEST(SpinSarWta, ThermalNoiseKeepsClearWinners) {
  SpinWtaConfig c = clean_config(8);
  c.thermal_noise = true;  // Eb = 20 kT: flips are astronomically rare
  SpinSarWta wta(c);
  for (int trial = 0; trial < 10; ++trial) {
    const auto out = wta.run({2e-6, 4e-6, 28e-6, 1e-6, 3e-6, 5e-6, 6e-6, 7e-6});
    EXPECT_EQ(out.winner, 2u);
  }
}

TEST(SpinSarWta, MismatchShiftsCodesSlightly) {
  SpinWtaConfig noisy = clean_config(8);
  noisy.sample_mismatch = true;
  SpinSarWta wta_noisy(noisy);
  SpinSarWta wta_clean(clean_config(8));
  const std::vector<double> currents{2e-6, 4e-6, 18e-6, 1e-6, 3e-6, 5e-6, 6e-6, 7e-6};
  const auto a = wta_noisy.run(currents);
  const auto b = wta_clean.run(currents);
  EXPECT_EQ(a.winner, b.winner);  // 12-LSB margin survives mismatch
  for (std::size_t j = 0; j < currents.size(); ++j) {
    const int diff = static_cast<int>(a.dom_codes[j]) - static_cast<int>(b.dom_codes[j]);
    EXPECT_LE(std::abs(diff), 2);
  }
}

TEST(SpinSarWta, ActivityCountersPlausible) {
  SpinSarWta wta(clean_config(8));
  const auto out = wta.run({2e-6, 4e-6, 28e-6, 1e-6, 3e-6, 5e-6, 6e-6, 7e-6});
  EXPECT_EQ(out.latch_decisions, 8u * 5u);
  EXPECT_GE(out.dl_discharges, 1u);
  EXPECT_LE(out.dl_discharges, 4u);
  EXPECT_GE(out.tr_writes, 1u);
}

TEST(SpinSarWta, InputCountMismatchThrows) {
  SpinSarWta wta(clean_config(4));
  EXPECT_THROW(wta.run({1e-6, 2e-6}), InvalidArgument);
}

TEST(SpinSarWta, LowerThresholdDeviceScalesFullScale) {
  SpinWtaConfig c = clean_config(4);
  c.dwn = DwnParams::from_barrier(10.0);  // I_th = 0.5 uA
  EXPECT_NEAR(c.full_scale_current(), 16e-6, 1e-12);
  SpinSarWta wta(c);
  const auto out = wta.run({1e-6, 14e-6, 3e-6, 2e-6});
  EXPECT_EQ(out.winner, 1u);
}

// ---------------------------------------------------------------------------
// Counter-based per-query noise stream (the "true batched WTA" mechanism)
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> random_batch(std::size_t queries, std::size_t columns,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> batch(queries, std::vector<double>(columns));
  for (auto& currents : batch) {
    for (auto& i : currents) {
      i = rng.uniform(0.0, 30e-6);
    }
  }
  return batch;
}

void expect_outcomes_equal(const SpinWtaOutcome& a, const SpinWtaOutcome& b, std::size_t i) {
  EXPECT_EQ(a.winner, b.winner) << "query " << i;
  EXPECT_EQ(a.unique, b.unique) << "query " << i;
  EXPECT_EQ(a.winner_dom, b.winner_dom) << "query " << i;
  EXPECT_EQ(a.dom_codes, b.dom_codes) << "query " << i;
  EXPECT_EQ(a.tracking, b.tracking) << "query " << i;
}

TEST(SpinSarWta, QuerySpanMatchesSequentialWithThermalNoise) {
  // The whole point of the counter-based stream: a batch run the way
  // SpinAmm::recognize_batch runs it — reserve the batch's query slots,
  // then run_query_span on parallel workers — must be bit-identical to a
  // sequential loop of run() on a twin instance, even with thermal flips
  // being sampled (lowered barrier so flips happen).
  SpinWtaConfig c = clean_config(8);
  c.thermal_noise = true;
  c.sample_mismatch = true;
  c.dwn = DwnParams::from_barrier(2.0);  // flips actually occur
  SpinSarWta sequential(c);
  SpinSarWta batched(c);

  auto batch = random_batch(24, c.columns, 77);
  for (auto& currents : batch) {
    for (auto& i : currents) {
      i *= c.full_scale_current() / 30e-6;  // marginal drives: flips occur
    }
  }
  std::vector<SpinWtaOutcome> expected;
  expected.reserve(batch.size());
  for (const auto& currents : batch) {
    expected.push_back(sequential.run(currents));
  }
  const std::uint64_t base = batched.reserve_query_slots(batch.size());
  std::vector<SpinWtaOutcome> got(batch.size());
  parallel_for_resolved(batch.size(), 4, [&](std::size_t i) {
    got[i] = batched.run_query_span(batch[i].data(), base + i);
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_outcomes_equal(got[i], expected[i], i);
  }
  EXPECT_EQ(batched.queries_issued(), sequential.queries_issued());
}

TEST(SpinSarWta, RunQueryIsPureFunctionOfSlot) {
  SpinWtaConfig c = clean_config(8);
  c.thermal_noise = true;
  c.dwn = DwnParams::from_barrier(2.0);  // I_th = 0.1 uA, full scale 3.2 uA
  SpinSarWta wta(c);
  // Marginal currents (inside the full scale) so thermal flips actually
  // move codes; far-over-threshold drives switch deterministically.
  std::vector<double> currents = random_batch(1, c.columns, 3).front();
  for (auto& i : currents) {
    i *= c.full_scale_current() / 30e-6;
  }

  const auto first = wta.run_query(currents, 5);
  // Interleave unrelated work; slot 5 must not care.
  (void)wta.run_query(currents, 0);
  (void)wta.run_query(currents, 11);
  const auto again = wta.run_query(currents, 5);
  expect_outcomes_equal(first, again, 5);

  // Distinct slots draw from independent streams: over many slots with a
  // marginal input, at least one outcome must differ from slot 5's.
  bool any_different = false;
  for (std::uint64_t q = 100; q < 140 && !any_different; ++q) {
    const auto other = wta.run_query(currents, q);
    any_different = other.dom_codes != first.dom_codes;
  }
  EXPECT_TRUE(any_different);
}

TEST(SpinSarWta, RunAdvancesQueryCounter) {
  SpinSarWta wta(clean_config(4));
  EXPECT_EQ(wta.queries_issued(), 0u);
  (void)wta.run({1e-6, 2e-6, 3e-6, 4e-6});
  EXPECT_EQ(wta.queries_issued(), 1u);
  EXPECT_EQ(wta.reserve_query_slots(6), 1u);
  EXPECT_EQ(wta.queries_issued(), 7u);
}

TEST(SpinSarWta, RunQuerySpanMatchesRunQueryNoiseless) {
  // run_query_span is the zero-copy entry of the GEMM'd batch path, and
  // with thermal noise off it takes the precomputed-latch fast path —
  // which must stay bit-identical to the vector overload's outcome.
  SpinWtaConfig c = clean_config(8);
  c.sample_mismatch = true;  // realistic spread, deterministic per seed
  SpinSarWta wta(c);
  const auto batch = random_batch(16, c.columns, 42);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto by_vector = wta.run_query(batch[i], i);
    const auto by_span = wta.run_query_span(batch[i].data(), i);
    expect_outcomes_equal(by_span, by_vector, i);
  }
}

TEST(SpinSarWta, RunQuerySpanMatchesRunQueryWithThermalNoise) {
  // With flips actually occurring, the span entry must consume the same
  // counter-based substream as the vector overload for the same slot.
  SpinWtaConfig c = clean_config(8);
  c.thermal_noise = true;
  c.sample_mismatch = true;
  c.dwn = DwnParams::from_barrier(2.0);  // flips actually occur
  SpinSarWta wta(c);
  auto batch = random_batch(16, c.columns, 43);
  for (auto& currents : batch) {
    for (auto& i : currents) {
      i *= c.full_scale_current() / 30e-6;  // marginal drives
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto by_vector = wta.run_query(batch[i], i);
    const auto by_span = wta.run_query_span(batch[i].data(), i);
    expect_outcomes_equal(by_span, by_vector, i);
  }
}

}  // namespace
}  // namespace spinsim
