#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "core/random.hpp"
#include "crossbar/rcm.hpp"
#include "support/column_currents.hpp"
#include "support/crossbar_reference.hpp"
#include "support/random_weights.hpp"

namespace spinsim {
namespace {

using testing::column_currents;
using testing::CrossbarReference;
using testing::random_columns;

/// `config` on the parasitic model.
RcmConfig parasitic(RcmConfig config) {
  config.model = CrossbarModel::kParasitic;
  return config;
}

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

/// The transfer operator against the independent reference network of
/// the same array, solved by tight-tolerance CG and by a full direct solve.
void expect_paths_agree(const RcmConfig& config, std::uint64_t seed, bool inject_faults) {
  RcmArray array(parasitic(config), Rng(seed));
  array.program(random_columns(config.rows, config.cols, seed + 1));
  if (inject_faults) {
    array.inject_fault(1, 2, RcmArray::StuckFault::kOpen);
    array.inject_fault(config.rows - 1, config.cols - 1, RcmArray::StuckFault::kShort);
  }

  const std::vector<double> inputs = random_inputs(config.rows, seed + 2);
  CrossbarReference reference(array);
  const std::vector<double> i_cg = reference.currents_cg(inputs);

  const std::vector<double> i_direct = reference.currents_direct(inputs);
  EXPECT_LT(relative_error(i_direct, i_cg), 1e-8);

  const std::vector<double> i_transfer = column_currents(array, inputs);
  EXPECT_LT(relative_error(i_transfer, i_cg), 1e-8);

  // The direct solve and the transfer operator are both exact (up to
  // roundoff): they must agree with each other much tighter than either
  // agrees with CG.
  EXPECT_LT(relative_error(i_transfer, i_direct), 1e-10);
}

TEST(CrossbarSolverPaths, Fig03ConfigurationAgrees) {
  // fig03 runs the default 128x40 paper array.
  RcmConfig config;
  expect_paths_agree(config, 11, /*inject_faults=*/false);
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
    expect_paths_agree(config, 13 + static_cast<std::uint64_t>(s * 4), /*inject_faults=*/false);
  }
}

TEST(CrossbarSolverPaths, NoDummyColumnAgrees) {
  RcmConfig config;
  config.rows = 48;
  config.cols = 16;
  config.dummy_column = false;
  expect_paths_agree(config, 19, /*inject_faults=*/false);
}

TEST(CrossbarSolverPaths, FaultedCrossbarAgrees) {
  RcmConfig config;
  config.rows = 64;
  config.cols = 20;
  expect_paths_agree(config, 23, /*inject_faults=*/true);
}

TEST(CrossbarSolverPaths, TransferCacheInvalidatedByFault) {
  RcmConfig config;
  config.rows = 16;
  config.cols = 8;
  RcmArray rcm(parasitic(config), Rng(29));
  rcm.program(random_columns(config.rows, config.cols, 30));
  const std::vector<double> inputs = random_inputs(config.rows, 31);
  const std::vector<double> before = column_currents(rcm, inputs);
  std::vector<double> out(config.cols);
  ASSERT_NO_THROW(rcm.column_currents(inputs.data(), 1, out.data()));

  rcm.inject_fault(3, 4, RcmArray::StuckFault::kOpen);
  EXPECT_THROW(rcm.column_currents(inputs.data(), 1, out.data()), InvalidArgument);
  const std::vector<double> after = column_currents(rcm, inputs);
  // The open device must actually change the picture (column 4 loses
  // current), proving the operator was rebuilt rather than reused.
  EXPECT_NE(before[4], after[4]);
}

TEST(CrossbarSolverPaths, TransferBeforePrepareThrows) {
  RcmConfig config;
  config.rows = 8;
  config.cols = 4;
  RcmArray rcm(parasitic(config), Rng(41));
  rcm.program(random_columns(config.rows, config.cols, 42));
  const std::vector<double> inputs = random_inputs(config.rows, 43);
  std::vector<double> out(config.cols);
  EXPECT_THROW(rcm.column_currents(inputs.data(), 1, out.data()), InvalidArgument);
  rcm.prepare();
  EXPECT_NO_THROW(rcm.column_currents(inputs.data(), 1, out.data()));
  // A reprogram or a re-equalisation drops the operator again.
  rcm.program_column(2, std::vector<double>(config.rows, 0.5));
  EXPECT_THROW(rcm.column_currents(inputs.data(), 1, out.data()), InvalidArgument);
  rcm.prepare();
  EXPECT_NO_THROW(rcm.column_currents(inputs.data(), 1, out.data()));
  rcm.equalize_rows();
  EXPECT_THROW(rcm.column_currents(inputs.data(), 1, out.data()), InvalidArgument);
}

TEST(CrossbarSolverPaths, EliminationOrderPutsTheBoundaryLast) {
  const std::size_t shapes[][2] = {{1, 1}, {1, 9}, {9, 1}, {8, 40}, {128, 40}, {64, 160}};
  for (const auto& shape : shapes) {
    const std::size_t rows = shape[0];
    const std::size_t cols = shape[1];
    SCOPED_TRACE(::testing::Message() << rows << "x" << cols);
    // Every junction once: the network pins only the column terminations
    // and the dummy bar, which come after the junctions.
    const std::vector<RNode> order = crossbar_elimination_order(rows, cols);
    ASSERT_EQ(order.size(), 2 * rows * cols);
    std::vector<char> seen(order.size(), 0);
    for (const RNode node : order) {
      ASSERT_LT(node, order.size());
      EXPECT_FALSE(seen[node]) << "node " << node << " appears twice";
      seen[node] = 1;
    }
    // The row inputs (i, 0), then the column outputs (rows - 1, j).
    const std::size_t tail = order.size() - rows - cols;
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(order[tail + i], i * cols) << "row input " << i;
    }
    for (std::size_t j = 0; j < cols; ++j) {
      EXPECT_EQ(order[tail + rows + j], (2 * rows - 1) * cols + j) << "column output " << j;
    }

    // The array factors its network in this order, which throws unless it
    // lists each free node once, and the operator's pruned block solves
    // agree with a full solve per input.
    for (const bool dummy : {true, false}) {
      RcmConfig config;
      config.rows = rows;
      config.cols = cols;
      config.dummy_column = dummy;
      RcmArray array(parasitic(config), Rng(57));
      array.program(random_columns(rows, cols, 58));
      ASSERT_NO_THROW(array.prepare()) << "dummy column " << dummy;
      CrossbarReference reference(array);
      for (const std::size_t r : {std::size_t{0}, rows - 1}) {
        std::vector<double> unit(rows, 0.0);
        unit[r] = 1.0;
        EXPECT_LT(relative_error(column_currents(array, unit), reference.currents_direct(unit)),
                  1e-12)
            << "dummy column " << dummy << ", row " << r;
      }
    }
  }
}

// %a captures of transfer-operator entries T[j][r] (8x40 array, Rng(53),
// random_columns seed 54), taken with one full SparseLdlt::solve per
// output column over the factor in crossbar_elimination_order(), of the
// reduced system CooBuilder::compress assembles by summing each entry's
// stamps in insertion order. Each is g_seg * (A^-1 e_col_last_j) at row
// r's input node, summed in the back pass's column-then-entry order;
// swapping the reciprocity direction (solving from the inputs), scaling
// by 1/R instead of g_seg, reordering the back-pass sum or summing the
// stamps in another order rounds some of them differently. The columns
// span every block of output columns for any solve block of 8 to 32
// right-hand sides.
constexpr std::size_t kPinnedColumns[] = {0, 1, 9, 17, 23, 24, 32, 39};
constexpr double kTransferFirstRow[] = {
    0x1.e4703de1d6d1bp-7, 0x1.ce64d1d4e90f5p-8, 0x1.0eccf100c0257p-5, 0x1.de714936658d6p-7,
    0x1.84296f178ffaep-8, 0x1.e64f882ed85p-7, 0x1.7e41b54d74e95p-6, 0x1.262c82452e1d2p-5,
};
constexpr double kTransferLastRow[] = {
    0x1.c90be9fe299dcp-6, 0x1.82702bd171b2fp-8, 0x1.330196226130ap-5, 0x1.d3972513e3418p-6,
    0x1.16e6642bebd6ep-5, 0x1.fdc28c050192p-6, 0x1.6213e922a8d55p-6, 0x1.1b01f6d46d592p-5,
};
// The same entries captured the same way over three earlier systems: the
// same factor with the stamps summed in comparison-sort order, a nested
// dissection of the graph alone, and the banded (reverse Cuthill-McKee)
// order before it. Another summation or elimination order rounds
// differently (here by at most 2.3e-12 relative), but the operator must
// not move beyond rounding.
constexpr double kTransferFirstRowSortSummed[] = {
    0x1.e4703de1d5f52p-7, 0x1.ce64d1d4e83ep-8, 0x1.0eccf100bfa99p-5, 0x1.de71493664acep-7,
    0x1.84296f178f433p-8, 0x1.e64f882ed7688p-7, 0x1.7e41b54d74348p-6, 0x1.262c82452d924p-5,
};
constexpr double kTransferLastRowSortSummed[] = {
    0x1.c90be9fe299e7p-6, 0x1.82702bd171b3ep-8, 0x1.330196226131fp-5, 0x1.d3972513e3436p-6,
    0x1.16e6642bebd8p-5, 0x1.fdc28c0501943p-6, 0x1.6213e922a8d6dp-6, 0x1.1b01f6d46d5a8p-5,
};
constexpr double kTransferFirstRowDissected[] = {
    0x1.e4703de1da579p-7, 0x1.ce64d1d4ec6f8p-8, 0x1.0eccf100c226ap-5, 0x1.de7149366921ap-7,
    0x1.84296f1792e7ep-8, 0x1.e64f882edbf8ap-7, 0x1.7e41b54d77cf9p-6, 0x1.262c82453059fp-5,
};
constexpr double kTransferLastRowDissected[] = {
    0x1.c90be9fe28597p-6, 0x1.82702bd170a0ap-8, 0x1.3301962260545p-5, 0x1.d3972513e1ee4p-6,
    0x1.16e6642beb0b5p-5, 0x1.fdc28c05001dp-6, 0x1.6213e922a7d06p-6, 0x1.1b01f6d46c885p-5,
};
constexpr double kTransferFirstRowBanded[] = {
    0x1.e4703de1db50dp-7, 0x1.ce64d1d4ed5c7p-8, 0x1.0eccf100c2b2cp-5, 0x1.de7149366a191p-7,
    0x1.84296f1793aeep-8, 0x1.e64f882edcf4cp-7, 0x1.7e41b54d78948p-6, 0x1.262c824530f1p-5,
};
constexpr double kTransferLastRowBanded[] = {
    0x1.c90be9fe26f1fp-6, 0x1.82702bd16f6fcp-8, 0x1.330196225f5d4p-5, 0x1.d3972513e06ffp-6,
    0x1.16e6642bea253p-5, 0x1.fdc28c04fe783p-6, 0x1.6213e922a6a9cp-6, 0x1.1b01f6d46b9d3p-5,
};

TEST(CrossbarSolverPaths, TransferOperatorBitIdentical) {
  static_assert(std::size(kTransferFirstRow) == std::size(kPinnedColumns) &&
                std::size(kTransferLastRow) == std::size(kPinnedColumns) &&
                std::size(kTransferFirstRowSortSummed) == std::size(kPinnedColumns) &&
                std::size(kTransferLastRowSortSummed) == std::size(kPinnedColumns) &&
                std::size(kTransferFirstRowDissected) == std::size(kPinnedColumns) &&
                std::size(kTransferLastRowDissected) == std::size(kPinnedColumns) &&
                std::size(kTransferFirstRowBanded) == std::size(kPinnedColumns) &&
                std::size(kTransferLastRowBanded) == std::size(kPinnedColumns));
  RcmConfig config;
  config.rows = 8;
  config.cols = 40;
  RcmArray rcm(parasitic(config), Rng(53));
  rcm.program(random_columns(config.rows, config.cols, 54));
  rcm.prepare();
  // A unit input on row r reads out column r of T.
  const auto transfer_row = [&](std::size_t r) {
    std::vector<double> unit(config.rows, 0.0);
    unit[r] = 1.0;
    return column_currents(rcm, unit);
  };
  const std::vector<double> first = transfer_row(0);
  const std::vector<double> last = transfer_row(config.rows - 1);
  for (std::size_t k = 0; k < std::size(kPinnedColumns); ++k) {
    const std::size_t j = kPinnedColumns[k];
    EXPECT_EQ(first[j], kTransferFirstRow[k]) << "row 0, column " << j;
    EXPECT_EQ(last[j], kTransferLastRow[k]) << "row " << config.rows - 1 << ", column " << j;
    EXPECT_NEAR(first[j], kTransferFirstRowSortSummed[k], 1e-11 * kTransferFirstRowSortSummed[k])
        << "row 0, column " << j;
    EXPECT_NEAR(last[j], kTransferLastRowSortSummed[k], 1e-11 * kTransferLastRowSortSummed[k])
        << "row " << config.rows - 1 << ", column " << j;
    EXPECT_NEAR(first[j], kTransferFirstRowDissected[k], 1e-11 * kTransferFirstRowDissected[k])
        << "row 0, column " << j;
    EXPECT_NEAR(last[j], kTransferLastRowDissected[k], 1e-11 * kTransferLastRowDissected[k])
        << "row " << config.rows - 1 << ", column " << j;
    EXPECT_NEAR(first[j], kTransferFirstRowBanded[k], 1e-11 * kTransferFirstRowBanded[k])
        << "row 0, column " << j;
    EXPECT_NEAR(last[j], kTransferLastRowBanded[k], 1e-11 * kTransferLastRowBanded[k])
        << "row " << config.rows - 1 << ", column " << j;
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
