#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "amm/evaluation.hpp"
#include "amm/spin_amm.hpp"
#include "crossbar/rcm.hpp"
#include "support/column_currents.hpp"
#include "support/shared_dataset.hpp"

namespace spinsim {
namespace {

RcmConfig clean_config() {
  RcmConfig c;
  c.rows = 8;
  c.cols = 4;
  c.memristor.write_sigma = 0.0;
  return c;
}

std::vector<std::vector<double>> mid_weights(std::size_t rows, std::size_t cols) {
  return std::vector<std::vector<double>>(cols, std::vector<double>(rows, 0.5));
}

TEST(RcmFaults, OpenFaultCollapsesConductance) {
  RcmArray rcm(clean_config(), Rng(1));
  rcm.program(mid_weights(8, 4));
  const double before = rcm.conductance(2, 1);
  rcm.inject_fault(2, 1, RcmArray::StuckFault::kOpen);
  EXPECT_LT(rcm.conductance(2, 1), before / 50.0);
}

TEST(RcmFaults, ShortFaultExceedsProgrammableWindow) {
  RcmArray rcm(clean_config(), Rng(2));
  rcm.program(mid_weights(8, 4));
  rcm.inject_fault(3, 0, RcmArray::StuckFault::kShort);
  EXPECT_GT(rcm.conductance(3, 0), clean_config().memristor.g_max() * 1.5);
}

TEST(RcmFaults, FaultOnlyTouchesOneCell) {
  RcmArray rcm(clean_config(), Rng(3));
  rcm.program(mid_weights(8, 4));
  const double neighbour = rcm.conductance(2, 2);
  rcm.inject_fault(2, 1, RcmArray::StuckFault::kOpen);
  EXPECT_DOUBLE_EQ(rcm.conductance(2, 2), neighbour);
}

TEST(RcmFaults, ShortFaultStealsRowCurrent) {
  RcmArray rcm(clean_config(), Rng(4));
  rcm.program(mid_weights(8, 4));
  std::vector<double> inputs(8, 4e-6);
  const auto before = testing::column_currents(rcm, inputs);
  rcm.inject_fault(0, 3, RcmArray::StuckFault::kShort);
  const auto after = testing::column_currents(rcm, inputs);
  // The shorted column grabs more of row 0's current; the other columns
  // lose their share of that row.
  EXPECT_GT(after[3], before[3]);
  EXPECT_LT(after[0], before[0]);
}

TEST(RcmFaults, OutOfRangeRejected) {
  RcmArray rcm(clean_config(), Rng(5));
  EXPECT_THROW(rcm.inject_fault(99, 0, RcmArray::StuckFault::kOpen), InvalidArgument);
}

TEST(RcmFaults, RecognitionSurvivesAFewOpenFaults) {
  // Yield property: the distributed dot product tolerates sparse dead
  // cells — a handful of opens in a 48x10 array costs a few points, not
  // a collapse.
  const FaceDataset& ds = testing::small_dataset();
  FeatureSpec spec;
  spec.height = 8;
  spec.width = 6;
  SpinAmmConfig c;
  c.features = spec;
  c.templates = 10;
  c.dwn = DwnParams::from_barrier(20.0);
  c.seed = 6;
  SpinAmm amm(c);
  const auto templates = build_templates(ds, spec);
  amm.store_templates(templates);

  const auto accuracy = [&](SpinAmm& machine) {
    const AccuracyResult r = evaluate_classifier(ds, spec, [&](const FeatureVector& f) {
      return machine.recognize(f).winner;
    });
    return r.accuracy();
  };
  const double healthy = accuracy(amm);

  // Damage 5 random cells (~1 % of the array).
  Rng rng(7);
  RcmArray& rcm = amm.mutable_crossbar();
  for (int k = 0; k < 5; ++k) {
    const auto row = static_cast<std::size_t>(rng.uniform_int(0, 47));
    const auto col = static_cast<std::size_t>(rng.uniform_int(0, 9));
    rcm.inject_fault(row, col, RcmArray::StuckFault::kOpen);
  }
  const double damaged = accuracy(amm);
  EXPECT_GT(damaged, healthy - 0.15);
}

// S3 regressions: both stuck-fault polarities driven through a full
// SpinAmm recognition, pinning the failure signature the self-repair
// layer (LeafCacheEngine::verify_and_repair) exists to catch.

SpinAmm fault_machine(std::vector<FeatureVector>* templates_out) {
  FeatureSpec spec;
  spec.height = 8;
  spec.width = 6;
  SpinAmmConfig c;
  c.features = spec;
  c.templates = 10;
  c.dwn = DwnParams::from_barrier(20.0);
  c.seed = 6;
  SpinAmm amm(c);
  *templates_out = build_templates(testing::small_dataset(), spec);
  amm.store_templates(*templates_out);
  return amm;
}

TEST(RcmFaults, OpenFaultsStarveTheWinningColumn) {
  std::vector<FeatureVector> templates;
  SpinAmm amm = fault_machine(&templates);

  // Query with a stored template: it wins with a healthy margin.
  const FeatureVector probe = templates[3];
  const Recognition healthy = amm.recognize(probe);
  ASSERT_EQ(healthy.winner, 3u);
  ASSERT_GT(healthy.margin, 0.05);

  // Kill the winning column's strongest junctions: its dot product can
  // only fall, so the analog margin shrinks (or the winner is lost
  // outright). The quantised DOM saturates for any strong match, so the
  // margin is the observable that moves first.
  RcmArray& rcm = amm.mutable_crossbar();
  std::vector<std::size_t> rows(48);
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    return rcm.conductance(a, 3) > rcm.conductance(b, 3);
  });
  for (std::size_t k = 0; k < 12; ++k) {
    rcm.inject_fault(rows[k], 3, RcmArray::StuckFault::kOpen);
  }
  const Recognition damaged = amm.recognize(probe);
  if (damaged.winner == 3u) {
    EXPECT_LT(damaged.margin, healthy.margin);
  } else {
    EXPECT_NE(damaged.winner, 3u);  // the template is no longer recognised
  }
}

TEST(RcmFaults, ShortFaultsLetARivalHijackTheWinner) {
  std::vector<FeatureVector> templates;
  SpinAmm amm = fault_machine(&templates);

  const FeatureVector probe = templates[3];
  ASSERT_EQ(amm.recognize(probe).winner, 3u);

  // Over-formed devices on a rival column inflate its collected current
  // on every query; enough of them and the rival outscores the true
  // match. This is the polarity repair must catch fastest: one short
  // corrupts *other* templates' answers, not just its own.
  RcmArray& rcm = amm.mutable_crossbar();
  for (std::size_t row = 0; row < 48; row += 4) {
    rcm.inject_fault(row, 7, RcmArray::StuckFault::kShort);
  }
  const Recognition hijacked = amm.recognize(probe);
  EXPECT_EQ(hijacked.winner, 7u);
}

}  // namespace
}  // namespace spinsim
