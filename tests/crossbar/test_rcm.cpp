#include "crossbar/rcm.hpp"

#include <gtest/gtest.h>

#include "core/random.hpp"
#include "core/units.hpp"
#include "support/column_currents.hpp"

namespace spinsim {
namespace {

using testing::column_currents;

/// Small clean config: no write noise so programmed values hit the grid.
RcmConfig clean_config(std::size_t rows = 8, std::size_t cols = 4) {
  RcmConfig c;
  c.rows = rows;
  c.cols = cols;
  c.memristor.write_sigma = 0.0;
  return c;
}

/// Weights for `cols` columns of `rows` entries from a seeded RNG.
std::vector<std::vector<double>> random_weights(std::size_t rows, std::size_t cols,
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

/// Column currents of an array of `config` under `model`, programmed with
/// `weights` from `seed`. The model does not touch the write-noise stream,
/// so arrays built from one seed under either model hold the same
/// conductances.
std::vector<double> model_currents(RcmConfig config, CrossbarModel model, std::uint64_t seed,
                                   const std::vector<std::vector<double>>& weights,
                                   const std::vector<double>& inputs) {
  config.model = model;
  RcmArray rcm(config, Rng(seed));
  rcm.program(weights);
  return column_currents(rcm, inputs);
}

TEST(RcmArray, ProgramsToLevelGrid) {
  RcmArray rcm(clean_config(4, 2), Rng(1));
  rcm.program({{0.0, 1.0, 0.5, 0.25}, {1.0, 0.0, 0.75, 0.5}});
  const MemristorSpec& spec = clean_config().memristor;
  EXPECT_DOUBLE_EQ(rcm.conductance(0, 0), spec.g_min());
  EXPECT_DOUBLE_EQ(rcm.conductance(1, 0), spec.g_max());
  EXPECT_DOUBLE_EQ(rcm.conductance(0, 1), spec.g_max());
}

TEST(RcmArray, DummyEqualisesRowConductance) {
  RcmArray rcm(clean_config(8, 4), Rng(2));
  rcm.program(random_weights(8, 4, 3));
  const double g0 = rcm.row_conductance(0);
  for (std::size_t r = 1; r < 8; ++r) {
    EXPECT_NEAR(rcm.row_conductance(r), g0, g0 * 1e-12);
  }
}

TEST(RcmArray, IdealCurrentsMatchClosedForm) {
  RcmArray rcm(clean_config(4, 3), Rng(4));
  const auto weights = random_weights(4, 3, 5);
  rcm.program(weights);

  std::vector<double> inputs{1e-6, 2e-6, 3e-6, 4e-6};
  const auto currents = column_currents(rcm, inputs);

  for (std::size_t j = 0; j < 3; ++j) {
    double expected = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      expected += inputs[i] * rcm.conductance(i, j) / rcm.row_conductance(i);
    }
    EXPECT_NEAR(currents[j], expected, 1e-18);
  }
}

TEST(RcmArray, CurrentConservationInIdealMode) {
  // Column currents + dummy current = total injected current.
  RcmArray rcm(clean_config(8, 4), Rng(6));
  rcm.program(random_weights(8, 4, 7));
  std::vector<double> inputs(8, 5e-6);
  const auto currents = column_currents(rcm, inputs);
  double collected = 0.0;
  for (double i : currents) {
    collected += i;
  }
  EXPECT_LT(collected, 40e-6);  // dummy absorbs the remainder
  EXPECT_GT(collected, 0.0);
}

TEST(RcmArray, HigherCorrelationGivesHigherCurrent) {
  // Column 0 = input pattern, column 1 = anti-pattern.
  RcmConfig c = clean_config(8, 2);
  RcmArray rcm(c, Rng(8));
  std::vector<double> pattern{1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0};
  std::vector<double> anti(8);
  for (std::size_t i = 0; i < 8; ++i) {
    anti[i] = 1.0 - pattern[i];
  }
  rcm.program({pattern, anti});
  std::vector<double> inputs(8);
  for (std::size_t i = 0; i < 8; ++i) {
    inputs[i] = pattern[i] * 10e-6;
  }
  const auto currents = column_currents(rcm, inputs);
  EXPECT_GT(currents[0], 2.0 * currents[1]);
}

TEST(RcmArray, ParasiticApproachesIdealForNegligibleWireResistance) {
  RcmConfig c = clean_config(8, 4);
  c.wire_res_per_um = 1e-6;  // essentially perfect bars
  const auto weights = random_weights(8, 4, 10);
  std::vector<double> inputs(8);
  Rng rng(11);
  for (auto& i : inputs) {
    i = rng.uniform(0.0, 10e-6);
  }
  const auto ideal = model_currents(c, CrossbarModel::kIdeal, 9, weights, inputs);
  const auto parasitic = model_currents(c, CrossbarModel::kParasitic, 9, weights, inputs);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(parasitic[j], ideal[j], ideal[j] * 1e-3 + 1e-12);
  }
}

TEST(RcmArray, WireResistanceDegradesBestColumn) {
  // With strong wire resistance the winning column's collected current
  // drops relative to the ideal evaluation.
  RcmConfig c = clean_config(16, 4);
  c.wire_res_per_um = 200.0;  // deliberately brutal
  const auto weights = random_weights(16, 4, 13);
  std::vector<double> inputs(16, 8e-6);
  const auto ideal = model_currents(c, CrossbarModel::kIdeal, 12, weights, inputs);
  const auto parasitic = model_currents(c, CrossbarModel::kParasitic, 12, weights, inputs);
  const std::size_t best = static_cast<std::size_t>(
      std::max_element(ideal.begin(), ideal.end()) - ideal.begin());
  EXPECT_LT(parasitic[best], ideal[best]);
}

TEST(RcmArray, ParasiticConservesCurrentOrder) {
  // Moderate parasitics must not reorder a strongly separated pair.
  RcmConfig c = clean_config(16, 3);
  c.model = CrossbarModel::kParasitic;
  RcmArray rcm(c, Rng(14));
  std::vector<std::vector<double>> w(3, std::vector<double>(16, 0.1));
  w[1] = std::vector<double>(16, 0.9);  // dominant column
  rcm.program(w);
  std::vector<double> inputs(16, 8e-6);
  const auto parasitic = column_currents(rcm, inputs);
  EXPECT_GT(parasitic[1], parasitic[0]);
  EXPECT_GT(parasitic[1], parasitic[2]);
}

TEST(RcmArray, WriteNoiseChangesRealisedConductance) {
  RcmConfig noisy = clean_config(8, 2);
  noisy.memristor.write_sigma = 0.03;
  RcmArray a(noisy, Rng(17));
  RcmArray b(noisy, Rng(18));
  const auto w = random_weights(8, 2, 19);
  a.program(w);
  b.program(w);
  bool any_difference = false;
  for (std::size_t i = 0; i < 8; ++i) {
    if (a.conductance(i, 0) != b.conductance(i, 0)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RcmArray, PaperSizeParasiticSolves) {
  // Full 128x40 array: the real experiment's workload.
  RcmConfig c;
  c.rows = 128;
  c.cols = 40;
  c.model = CrossbarModel::kParasitic;
  RcmArray rcm(c, Rng(20));
  rcm.program(random_weights(128, 40, 21));
  std::vector<double> inputs(128, 5e-6);
  const auto currents = column_currents(rcm, inputs);
  EXPECT_EQ(currents.size(), 40u);
  for (double i : currents) {
    EXPECT_GT(i, 0.0);
    EXPECT_LT(i, 128 * 5e-6);
  }
}

TEST(RcmArray, ProgramValidatesShape) {
  RcmArray rcm(clean_config(4, 2), Rng(22));
  EXPECT_THROW(rcm.program({{1.0, 0.0}}), InvalidArgument);  // wrong col count
  EXPECT_THROW(rcm.program_column(0, {1.0}), InvalidArgument);  // wrong rows
  EXPECT_THROW(rcm.program_column(5, std::vector<double>(4, 0.5)), InvalidArgument);
}

TEST(RcmConfig, SegmentResistanceFromPaperNumbers) {
  RcmConfig c;
  // Table 2: 1 Ohm/um, at the 0.1 um high-density pitch.
  EXPECT_DOUBLE_EQ(c.segment_resistance(), 0.1);
}

}  // namespace
}  // namespace spinsim
