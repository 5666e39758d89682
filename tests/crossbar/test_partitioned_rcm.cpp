#include "crossbar/partitioned_rcm.hpp"

#include <gtest/gtest.h>

#include "core/random.hpp"
#include "support/column_currents.hpp"
#include "support/random_weights.hpp"

namespace spinsim {
namespace {

using testing::column_currents;
using testing::random_columns;

PartitionedRcmConfig clean_config(std::size_t rows = 32, std::size_t cols = 4,
                                  std::size_t blocks = 4) {
  PartitionedRcmConfig c;
  c.rows = rows;
  c.cols = cols;
  c.blocks = blocks;
  c.memristor.write_sigma = 0.0;
  return c;
}

TEST(PartitionedRcm, RejectsNonDividingBlocks) {
  PartitionedRcmConfig c = clean_config(30, 4, 4);  // 30 % 4 != 0
  EXPECT_THROW(PartitionedRcm p(c, Rng(1)), InvalidArgument);
}

TEST(PartitionedRcm, BlockCountAndGeometry) {
  PartitionedRcm p(clean_config(32, 4, 4), Rng(2));
  EXPECT_EQ(p.blocks(), 4u);
  EXPECT_EQ(p.block(0).rows(), 8u);
  EXPECT_EQ(p.block(0).cols(), 4u);
  EXPECT_THROW(p.block(4), InvalidArgument);
}

TEST(PartitionedRcm, EvaluateBeforeProgramThrows) {
  PartitionedRcm p(clean_config(), Rng(3));
  EXPECT_THROW(p.column_currents(std::vector<double>(32, 1e-6)), InvalidArgument);
}

TEST(PartitionedRcm, IdealCurrentsMatchPerBlockClosedForm) {
  const auto config = clean_config(16, 3, 2);
  PartitionedRcm p(config, Rng(4));
  const auto w = random_columns(16, 3, 5);
  p.program(w);

  std::vector<double> inputs(16);
  Rng rng(6);
  for (auto& v : inputs) {
    v = rng.uniform(1e-6, 8e-6);
  }
  const auto totals = p.column_currents(inputs);

  for (std::size_t j = 0; j < 3; ++j) {
    double expected = 0.0;
    for (std::size_t b = 0; b < 2; ++b) {
      for (std::size_t r = 0; r < 8; ++r) {
        const std::size_t global = b * 8 + r;
        expected += inputs[global] * p.block(b).conductance(r, j) /
                    p.block(b).row_conductance(r);
      }
    }
    EXPECT_NEAR(totals[j], expected, 1e-18);
  }
}

TEST(PartitionedRcm, RowConductanceMapsThroughBlocks) {
  const auto config = clean_config(16, 3, 2);
  PartitionedRcm p(config, Rng(7));
  p.program(random_columns(16, 3, 8));
  EXPECT_DOUBLE_EQ(p.row_conductance(0), p.block(0).row_conductance(0));
  EXPECT_DOUBLE_EQ(p.row_conductance(8), p.block(1).row_conductance(0));
  EXPECT_THROW(p.row_conductance(16), InvalidArgument);
}

TEST(PartitionedRcm, MatchesMonolithicIdealEvaluation) {
  // With per-block dummy equalisation the ideal dot products differ
  // slightly from a monolithic array's, but correlate extremely well.
  const std::size_t rows = 64;
  const std::size_t cols = 6;
  const auto w = random_columns(rows, cols, 9);

  RcmConfig mono_config;
  mono_config.rows = rows;
  mono_config.cols = cols;
  mono_config.memristor.write_sigma = 0.0;
  RcmArray mono(mono_config, Rng(10));
  mono.program(w);

  PartitionedRcm part(clean_config(rows, cols, 4), Rng(11));
  part.program(w);

  std::vector<double> inputs(rows, 5e-6);
  const auto mono_currents = column_currents(mono, inputs);
  const auto part_currents = part.column_currents(inputs);
  // Ranking must agree on a well-separated input.
  const auto rank = [](const std::vector<double>& v) {
    return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
  };
  EXPECT_EQ(rank(mono_currents), rank(part_currents));
  for (std::size_t j = 0; j < cols; ++j) {
    EXPECT_NEAR(part_currents[j], mono_currents[j], 0.15 * mono_currents[j]);
  }
}

TEST(PartitionedRcm, ShorterBarsReduceParasiticError) {
  // The Section-5 claim this class exists to quantify: partitioning a
  // tall array into blocks cuts the cumulative column IR drop, pulling
  // the parasitic evaluation toward the ideal one.
  const std::size_t rows = 128;
  const std::size_t cols = 6;
  const auto w = random_columns(rows, cols, 12);

  std::vector<double> inputs(rows, 5e-6);
  // One array per model from the same seed: the model does not touch the
  // write-noise stream, so both hold the same conductances.
  const auto mono_currents = [&](CrossbarModel model) {
    RcmConfig mono_config;
    mono_config.rows = rows;
    mono_config.cols = cols;
    mono_config.memristor.write_sigma = 0.0;
    mono_config.cell_pitch_um = 0.5;  // exaggerate wire length
    mono_config.model = model;
    RcmArray mono(mono_config, Rng(13));
    mono.program(w);
    return column_currents(mono, inputs);
  };
  const auto part_currents = [&](CrossbarModel model) {
    PartitionedRcmConfig part_config = clean_config(rows, cols, 8);
    part_config.cell_pitch_um = 0.5;
    part_config.model = model;
    PartitionedRcm part(part_config, Rng(13));
    part.program(w);
    return part.column_currents(inputs);
  };
  const auto mono_ideal = mono_currents(CrossbarModel::kIdeal);
  const auto mono_para = mono_currents(CrossbarModel::kParasitic);
  const auto part_ideal = part_currents(CrossbarModel::kIdeal);
  const auto part_para = part_currents(CrossbarModel::kParasitic);

  double mono_err = 0.0;
  double part_err = 0.0;
  for (std::size_t j = 0; j < cols; ++j) {
    mono_err += std::abs(mono_para[j] - mono_ideal[j]) / mono_ideal[j];
    part_err += std::abs(part_para[j] - part_ideal[j]) / part_ideal[j];
  }
  EXPECT_LT(part_err, mono_err);
}

TEST(PartitionedRcm, SingleBlockDegeneratesToMonolithic) {
  const std::size_t rows = 16;
  const std::size_t cols = 3;
  const auto w = random_columns(rows, cols, 14);
  std::vector<double> inputs(rows, 3e-6);

  for (const CrossbarModel model : {CrossbarModel::kIdeal, CrossbarModel::kParasitic}) {
    SCOPED_TRACE(model == CrossbarModel::kIdeal ? "ideal" : "parasitic");
    PartitionedRcmConfig part_config = clean_config(rows, cols, 1);
    part_config.model = model;
    PartitionedRcm part(part_config, Rng(15));
    part.program(w);
    RcmConfig mono_config;
    mono_config.rows = rows;
    mono_config.cols = cols;
    mono_config.memristor.write_sigma = 0.0;
    mono_config.model = model;
    RcmArray mono(mono_config, Rng(15));
    // Note: the partition forks its block RNG once; conductances match the
    // ideal grid exactly because write noise is off.
    mono.program(w);

    const auto a = part.column_currents(inputs);
    const auto b = column_currents(mono, inputs);
    for (std::size_t j = 0; j < cols; ++j) {
      EXPECT_NEAR(a[j], b[j], 1e-15);
    }
  }
}

TEST(PartitionedRcm, ProgramValidatesShapes) {
  PartitionedRcm p(clean_config(16, 3, 2), Rng(16));
  EXPECT_THROW(p.program(random_columns(16, 2, 17)), InvalidArgument);  // wrong cols
  EXPECT_THROW(p.program(random_columns(8, 3, 18)), InvalidArgument);   // wrong rows
}

}  // namespace
}  // namespace spinsim
