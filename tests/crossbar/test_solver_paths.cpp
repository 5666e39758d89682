#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "core/random.hpp"
#include "crossbar/rcm.hpp"
#include "support/random_weights.hpp"

namespace spinsim {
namespace {

using testing::random_columns;

std::vector<double> random_inputs(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> in(rows);
  for (auto& v : in) {
    v = rng.uniform(0.0, 10e-6);
  }
  return in;
}

/// Max per-column deviation relative to the largest reference current.
double relative_error(const std::vector<double>& test, const std::vector<double>& ref) {
  double scale = 0.0;
  for (const double v : ref) {
    scale = std::max(scale, std::abs(v));
  }
  double worst = 0.0;
  for (std::size_t j = 0; j < ref.size(); ++j) {
    worst = std::max(worst, std::abs(test[j] - ref[j]));
  }
  return scale > 0.0 ? worst / scale : worst;
}

/// Reference currents via tight-tolerance CG on an identically-programmed
/// array (identical seed => identical realised conductances).
void expect_paths_agree(const RcmConfig& config, std::uint64_t seed, double v_bias,
                        bool inject_faults, double cg_tolerance = 1e-8) {
  RcmArray reference(config, Rng(seed));
  RcmArray direct(config, Rng(seed));
  const auto columns = random_columns(config.rows, config.cols, seed + 1);
  reference.program(columns);
  direct.program(columns);
  if (inject_faults) {
    reference.inject_fault(1, 2, RcmArray::StuckFault::kOpen);
    direct.inject_fault(1, 2, RcmArray::StuckFault::kOpen);
    reference.inject_fault(config.rows - 1, config.cols - 1, RcmArray::StuckFault::kShort);
    direct.inject_fault(config.rows - 1, config.cols - 1, RcmArray::StuckFault::kShort);
  }

  const std::vector<double> inputs = random_inputs(config.rows, seed + 2);
  reference.set_parasitic_solver(CrossbarSolver::kCg);
  const std::vector<double> i_cg = reference.column_currents_parasitic(inputs, v_bias);

  direct.set_parasitic_solver(CrossbarSolver::kFactored);
  const std::vector<double> i_factored = direct.column_currents_parasitic(inputs, v_bias);
  EXPECT_LT(relative_error(i_factored, i_cg), cg_tolerance);

  direct.set_parasitic_solver(CrossbarSolver::kTransfer);
  const std::vector<double> i_transfer = direct.column_currents_parasitic(inputs, v_bias);
  EXPECT_LT(relative_error(i_transfer, i_cg), cg_tolerance);

  // Factored and transfer are both exact (up to roundoff): they must
  // agree with each other much tighter than either agrees with CG.
  EXPECT_LT(relative_error(i_transfer, i_factored), 1e-10);
}

TEST(CrossbarSolverPaths, Fig03ConfigurationAgrees) {
  // fig03 runs the default 128x40 paper array.
  RcmConfig config;
  expect_paths_agree(config, 11, 0.0, /*inject_faults=*/false);
}

TEST(CrossbarSolverPaths, Fig09ResistanceSweepAgrees) {
  // fig09a scales the memristor range; the extremes change the wire-to-
  // device conductance ratio (and the system conditioning) the most.
  for (const double s : {0.25, 1.0, 8.0}) {
    RcmConfig config;
    config.rows = 64;
    config.cols = 20;
    config.memristor.r_min = 1e3 * s;
    config.memristor.r_max = 32e3 * s;
    expect_paths_agree(config, 13 + static_cast<std::uint64_t>(s * 4), 0.0,
                       /*inject_faults=*/false);
  }
}

TEST(CrossbarSolverPaths, NonZeroBiasAgrees) {
  // With a nonzero bias the Dirichlet terms dominate the RHS, so the CG
  // reference's relative-residual stop (1e-10 of ||b||) leaves absolute
  // errors that are large against the uA-scale signal currents — the
  // looser bound measures CG's error, not the direct solver's (the two
  // exact paths still agree to 1e-10 against each other above).
  RcmConfig config;
  config.rows = 32;
  config.cols = 12;
  expect_paths_agree(config, 17, 30e-3, /*inject_faults=*/false, /*cg_tolerance=*/1e-5);
}

TEST(CrossbarSolverPaths, NoDummyColumnAgrees) {
  RcmConfig config;
  config.rows = 48;
  config.cols = 16;
  config.dummy_column = false;
  expect_paths_agree(config, 19, 0.0, /*inject_faults=*/false);
}

TEST(CrossbarSolverPaths, FaultedCrossbarAgrees) {
  RcmConfig config;
  config.rows = 64;
  config.cols = 20;
  expect_paths_agree(config, 23, 0.0, /*inject_faults=*/true);
}

TEST(CrossbarSolverPaths, TransferCacheInvalidatedByFault) {
  RcmConfig config;
  config.rows = 16;
  config.cols = 8;
  RcmArray rcm(config, Rng(29));
  rcm.program(random_columns(config.rows, config.cols, 30));
  const std::vector<double> inputs = random_inputs(config.rows, 31);
  const std::vector<double> before = rcm.column_currents_parasitic(inputs);
  ASSERT_TRUE(rcm.transfer_ready());

  rcm.inject_fault(3, 4, RcmArray::StuckFault::kOpen);
  EXPECT_FALSE(rcm.transfer_ready());
  const std::vector<double> after = rcm.column_currents_parasitic(inputs);
  // The open device must actually change the picture (column 4 loses
  // current), proving the operator was rebuilt rather than reused.
  EXPECT_NE(before[4], after[4]);
}

TEST(CrossbarSolverPaths, TransferCacheInvalidatedByBiasChange) {
  RcmConfig config;
  config.rows = 16;
  config.cols = 8;
  RcmArray rcm(config, Rng(37));
  rcm.program(random_columns(config.rows, config.cols, 38));
  const std::vector<double> inputs = random_inputs(config.rows, 39);
  (void)rcm.column_currents_parasitic(inputs, 0.0);
  ASSERT_TRUE(rcm.transfer_ready(0.0));
  EXPECT_FALSE(rcm.transfer_ready(10e-3));

  rcm.set_parasitic_solver(CrossbarSolver::kCg);
  RcmArray twin(config, Rng(37));
  twin.program(random_columns(config.rows, config.cols, 38));
  const std::vector<double> i_cg = rcm.column_currents_parasitic(inputs, 10e-3);
  const std::vector<double> i_tr = twin.column_currents_parasitic(inputs, 10e-3);
  // Loose bound for the same reason as NonZeroBiasAgrees: the CG
  // reference carries the bias-scaled residual error.
  EXPECT_LT(relative_error(i_tr, i_cg), 1e-5);
}

TEST(CrossbarSolverPaths, TransferBeforePrepareThrows) {
  RcmConfig config;
  config.rows = 8;
  config.cols = 4;
  RcmArray rcm(config, Rng(41));
  rcm.program(random_columns(config.rows, config.cols, 42));
  const std::vector<double> inputs = random_inputs(config.rows, 43);
  EXPECT_THROW(rcm.column_currents_transfer(inputs), InvalidArgument);
  rcm.prepare_parasitic();
  EXPECT_NO_THROW(rcm.column_currents_transfer(inputs));
}

// %a captures of transfer-operator entries T[j][r] (8x40 array, Rng(53),
// random_columns seed 54), taken while the operator was still built with
// one full solve per output column. Each is g_seg * (A^-1 e_col_last_j)
// at row r's input node, summed in the back pass's column-then-entry
// order; swapping the reciprocity direction (solving from the inputs),
// scaling by 1/R instead of g_seg, or reordering the back-pass sum rounds
// some of them differently. The columns span every block of output
// columns for any solve block of 8 to 32 right-hand sides.
constexpr std::size_t kPinnedColumns[] = {0, 1, 9, 17, 23, 24, 32, 39};
constexpr double kTransferFirstRow[] = {
    0x1.e4703de1db50dp-7, 0x1.ce64d1d4ed5c7p-8, 0x1.0eccf100c2b2cp-5, 0x1.de7149366a191p-7,
    0x1.84296f1793aeep-8, 0x1.e64f882edcf4cp-7, 0x1.7e41b54d78948p-6, 0x1.262c824530f1p-5,
};
constexpr double kTransferLastRow[] = {
    0x1.c90be9fe26f1fp-6, 0x1.82702bd16f6fcp-8, 0x1.330196225f5d4p-5, 0x1.d3972513e06ffp-6,
    0x1.16e6642bea253p-5, 0x1.fdc28c04fe783p-6, 0x1.6213e922a6a9cp-6, 0x1.1b01f6d46b9d3p-5,
};

TEST(CrossbarSolverPaths, TransferOperatorBitIdentical) {
  static_assert(std::size(kTransferFirstRow) == std::size(kPinnedColumns) &&
                std::size(kTransferLastRow) == std::size(kPinnedColumns));
  RcmConfig config;
  config.rows = 8;
  config.cols = 40;
  RcmArray rcm(config, Rng(53));
  rcm.program(random_columns(config.rows, config.cols, 54));
  rcm.prepare_parasitic();
  // With zero offset, a unit input on row r reads out column r of T.
  const auto transfer_row = [&](std::size_t r) {
    std::vector<double> unit(config.rows, 0.0);
    unit[r] = 1.0;
    return rcm.column_currents_transfer(unit);
  };
  const std::vector<double> first = transfer_row(0);
  const std::vector<double> last = transfer_row(config.rows - 1);
  for (std::size_t k = 0; k < std::size(kPinnedColumns); ++k) {
    const std::size_t j = kPinnedColumns[k];
    EXPECT_EQ(first[j], kTransferFirstRow[k]) << "row 0, column " << j;
    EXPECT_EQ(last[j], kTransferLastRow[k]) << "row " << config.rows - 1 << ", column " << j;
  }
}

TEST(CrossbarSolverPaths, EqualizeRowsStillUniform) {
  // The single-pass equalize_rows must keep every row's total conductance
  // identical (the dummy pad's whole purpose).
  RcmConfig config;
  config.rows = 24;
  config.cols = 10;
  RcmArray rcm(config, Rng(47));
  rcm.program(random_columns(config.rows, config.cols, 48));
  const double g0 = rcm.row_conductance(0);
  for (std::size_t r = 1; r < config.rows; ++r) {
    EXPECT_NEAR(rcm.row_conductance(r), g0, 1e-12 * g0);
  }
}

}  // namespace
}  // namespace spinsim
