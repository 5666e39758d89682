#include "crossbar/rcm.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/error.hpp"
#include "core/matrix.hpp"

namespace spinsim {

namespace {

/// Builds crossbar_elimination_order(): each part's halves, then its freed
/// bar piece, then its separator. Boundary nodes are left for the caller.
struct GridDissection {
  std::size_t rows;
  std::size_t cols;
  std::vector<RNode> order;

  void row_node(std::size_t i, std::size_t j) {
    if (j > 0) {  // (i, 0) is a row input
      order.push_back(i * cols + j);
    }
  }
  void col_node(std::size_t i, std::size_t j) {
    if (i + 1 < rows) {  // (rows - 1, j) is a column output
      order.push_back((rows + i) * cols + j);
    }
  }

  // Both layers of crosspoints [i0, i1) x [j0, j1).
  void block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1) {
    if (i0 == i1 || j0 == j1) {
      return;
    }
    if (j1 - j0 >= i1 - i0) {
      const std::size_t jm = j0 + (j1 - j0) / 2;
      block(i0, i1, j0, jm);
      block(i0, i1, jm + 1, j1);
      bar_piece(i0, i1, [&](std::size_t i) { col_node(i, jm); });
      for (std::size_t i = i0; i < i1; ++i) {
        row_node(i, jm);
      }
    } else {
      const std::size_t im = i0 + (i1 - i0) / 2;
      block(i0, im, j0, j1);
      block(im + 1, i1, j0, j1);
      bar_piece(j0, j1, [&](std::size_t j) { row_node(im, j); });
      for (std::size_t j = j0; j < j1; ++j) {
        col_node(im, j);
      }
    }
  }

  // A freed bar piece is a path: its middle node goes after both halves.
  template <class Emit>
  void bar_piece(std::size_t b, std::size_t e, const Emit& emit) {
    if (b == e) {
      return;
    }
    const std::size_t m = b + (e - b) / 2;
    bar_piece(b, m, emit);
    bar_piece(m + 1, e, emit);
    emit(m);
  }
};

}  // namespace

std::vector<RNode> crossbar_elimination_order(std::size_t rows, std::size_t cols) {
  GridDissection grid{rows, cols, {}};
  grid.order.reserve(2 * rows * cols);
  grid.block(0, rows, 0, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    grid.order.push_back(i * cols);
  }
  for (std::size_t j = 0; j < cols; ++j) {
    grid.order.push_back((2 * rows - 1) * cols + j);
  }
  return std::move(grid.order);
}

RcmArray::RcmArray(const RcmConfig& config, Rng rng) : config_(config), rng_(rng) {
  require(config.rows > 0 && config.cols > 0, "RcmArray: dimensions must be positive");
  const auto spec = std::make_shared<const MemristorSpec>(config.memristor);
  cells_.reserve(config.rows * config.cols);
  for (std::size_t i = 0; i < config.rows * config.cols; ++i) {
    cells_.emplace_back(spec, rng_);
  }
  dummy_g_.assign(config.rows, 0.0);
}

void RcmArray::attach_substrate(std::shared_ptr<CrossbarSubstrate> substrate,
                                std::vector<std::size_t> column_map, bool delta_writes) {
  require(substrate != nullptr, "RcmArray::attach_substrate: null substrate");
  require(!programmed_, "RcmArray::attach_substrate: attach before programming");
  require(substrate->rows() == config_.rows,
          "RcmArray::attach_substrate: substrate row count mismatch");
  require(column_map.size() == config_.cols,
          "RcmArray::attach_substrate: need one physical column per array column");
  std::vector<bool> used(substrate->columns(), false);
  for (const std::size_t phys : column_map) {
    require(phys < substrate->columns(),
            "RcmArray::attach_substrate: physical column out of range");
    require(!used[phys], "RcmArray::attach_substrate: physical column mapped twice");
    used[phys] = true;
  }
  substrate_ = std::move(substrate);
  column_map_ = std::move(column_map);
  delta_writes_ = delta_writes;

  // Restore each model cell from its physical device: wear, endurance
  // limit, d2d skew, recorded faults, and (for programmed healthy
  // devices) the realised conductance of the last write.
  for (std::size_t row = 0; row < config_.rows; ++row) {
    for (std::size_t col = 0; col < config_.cols; ++col) {
      const CrossbarSubstrate::Device& dev = substrate_->device(row, column_map_[col]);
      Memristor& cell = cells_[row * config_.cols + col];
      cell.set_range_scale(substrate_->range_scale(row, column_map_[col]));
      if (dev.programmed && dev.wear.health == MemristorHealth::kHealthy) {
        cell.restore(dev.level, dev.conductance);
      }
      cell.set_wear(dev.wear);
    }
  }
  row_sums_dirty_ = true;
  invalidate_operator();
}

void RcmArray::program_cell_unchecked(std::size_t row, std::size_t col, std::size_t level) {
  Memristor& cell = cells_[row * config_.cols + col];
  if (substrate_ == nullptr) {
    cell.program(level, rng_);
    ++device_writes_;
    return;
  }
  CrossbarSubstrate::Device& dev = substrate_->device(row, column_map_[col]);
  const std::uint64_t cycle =
      config_.memristor.wear_enabled() ? dev.wear.write_cycles : 0;
  Rng stream = substrate_->write_stream(row, column_map_[col], level, cycle);
  cell.program(level, stream);
  ++device_writes_;
  // Write the aged state back. A device recorded failed behind a healthy
  // model cell means field damage replaced the cell model (inject_fault):
  // the pulses are spent but the physical damage persists.
  if (dev.wear.health != MemristorHealth::kHealthy &&
      cell.health() == MemristorHealth::kHealthy) {
    ++dev.wear.write_cycles;
    return;
  }
  dev.wear = cell.wear();
  dev.level = static_cast<std::uint32_t>(level);
  dev.conductance = cell.conductance();
  dev.programmed = true;
}

void RcmArray::program_column(std::size_t col, const std::vector<double>& weights) {
  require(col < config_.cols, "RcmArray::program_column: column out of range");
  require(weights.size() == config_.rows,
          "RcmArray::program_column: weight count must equal rows");
  bool touched = false;
  for (std::size_t row = 0; row < config_.rows; ++row) {
    const std::size_t level = config_.memristor.weight_to_level(weights[row]);
    if (substrate_ != nullptr && delta_writes_) {
      const CrossbarSubstrate::Device& dev = substrate_->device(row, column_map_[col]);
      if (dev.programmed && dev.level == level &&
          dev.wear.health == MemristorHealth::kHealthy) {
        cells_[row * config_.cols + col].restore(level, dev.conductance);
        ++device_write_skips_;
        continue;
      }
    }
    program_cell_unchecked(row, col, level);
    touched = true;
  }
  if (touched) {
    ++columns_touched_;
  }
  row_sums_dirty_ = true;
  invalidate_operator();
}

void RcmArray::program_cell(std::size_t row, std::size_t col, double weight) {
  require(row < config_.rows && col < config_.cols, "RcmArray::program_cell: out of range");
  program_cell_unchecked(row, col, config_.memristor.weight_to_level(weight));
  ++columns_touched_;
  row_sums_dirty_ = true;
  invalidate_operator();
}

void RcmArray::program(const std::vector<std::vector<double>>& columns) {
  require(columns.size() == config_.cols, "RcmArray::program: column count mismatch");
  for (std::size_t col = 0; col < config_.cols; ++col) {
    program_column(col, columns[col]);
  }
  programmed_ = true;
  equalize_rows();
}

void RcmArray::ensure_row_sums() const {
  if (!row_sums_dirty_) {
    return;
  }
  row_sums_.assign(config_.rows, 0.0);
  for (std::size_t row = 0; row < config_.rows; ++row) {
    double sum = 0.0;
    const Memristor* row_cells = &cells_[row * config_.cols];
    for (std::size_t col = 0; col < config_.cols; ++col) {
      sum += row_cells[col].conductance();
    }
    row_sums_[row] = sum;
  }
  row_sums_dirty_ = false;
}

void RcmArray::equalize_rows() {
  invalidate_operator();
  if (!config_.dummy_column) {
    dummy_g_.assign(config_.rows, 0.0);
    return;
  }
  // Pad every row to the largest row sum (plus one LSB of conductance so
  // no dummy is exactly zero, which would make the pad unprogrammable).
  // One pass over the cached row sums: find the target, then pad.
  ensure_row_sums();
  double target = 0.0;
  for (std::size_t row = 0; row < config_.rows; ++row) {
    target = std::max(target, row_sums_[row]);
  }
  target += config_.memristor.g_min();
  if (config_.row_target_conductance > 0.0) {
    require(config_.row_target_conductance >= target,
            "RcmArray::equalize_rows: row_target_conductance below the realised row sums");
    target = config_.row_target_conductance;
  }
  for (std::size_t row = 0; row < config_.rows; ++row) {
    dummy_g_[row] = target - row_sums_[row];
    SPINSIM_ASSERT(dummy_g_[row] > 0.0, "RcmArray::equalize_rows: negative dummy conductance");
  }
}

void RcmArray::inject_fault(std::size_t row, std::size_t col, StuckFault fault) {
  require(row < config_.rows && col < config_.cols, "RcmArray::inject_fault: out of range");
  // Faults happen in the field, after programming and row equalisation,
  // so the dummy pads are deliberately *not* recomputed: the damaged
  // row's G_TS shifts, which is part of the fault's signature.
  MemristorSpec fault_spec = config_.memristor;
  if (fault == StuckFault::kOpen) {
    // Filament lost: ~100x the highest programmable resistance.
    fault_spec.r_min = config_.memristor.r_max * 99.0;
    fault_spec.r_max = config_.memristor.r_max * 100.0;
  } else {
    // Over-formed filament: stuck well below the lowest resistance.
    fault_spec.r_min = config_.memristor.r_min * 0.25;
    fault_spec.r_max = config_.memristor.r_min * 0.5;
  }
  Memristor& cell = cells_[row * config_.cols + col];
  cell = Memristor(fault_spec);
  cell.program_ideal(fault == StuckFault::kOpen ? 0 : fault_spec.levels - 1);
  if (substrate_ != nullptr) {
    // Field damage outlives this array model: record it on the physical
    // device so the fault survives eviction and reprogramming.
    substrate_->mark_failed(row, column_map_[col],
                            fault == StuckFault::kOpen ? MemristorHealth::kStuckOpen
                                                       : MemristorHealth::kStuckShort);
  }
  row_sums_dirty_ = true;
  invalidate_operator();
}

double RcmArray::conductance(std::size_t row, std::size_t col) const {
  require(row < config_.rows && col < config_.cols, "RcmArray::conductance: out of range");
  return cells_[row * config_.cols + col].conductance();
}

double RcmArray::row_conductance(std::size_t row) const {
  require(row < config_.rows, "RcmArray::row_conductance: out of range");
  ensure_row_sums();
  return dummy_g_[row] + row_sums_[row];
}

void RcmArray::prepare() {
  if (op_built_) {
    return;
  }
  ensure_row_sums();
  const std::size_t rows = config_.rows;
  const std::size_t cols = config_.cols;
  for (std::size_t row = 0; row < rows; ++row) {
    SPINSIM_ASSERT(dummy_g_[row] + row_sums_[row] > 0.0, "RcmArray: row with zero conductance");
  }
  if (config_.model == CrossbarModel::kParasitic) {
    op_ = transfer_operator();
  } else {
    op_.assign(cols * rows, 0.0);
    for (std::size_t row = 0; row < rows; ++row) {
      const Memristor* row_cells = &cells_[row * cols];
      for (std::size_t col = 0; col < cols; ++col) {
        op_[col * rows + row] = row_cells[col].conductance();
      }
    }
  }
  op_built_ = true;
}

void RcmArray::column_currents(const double* inputs, std::size_t batch, double* out) const {
  require(op_built_, "RcmArray::column_currents: call prepare() first");
  const std::size_t rows = config_.rows;
  if (config_.model == CrossbarModel::kParasitic) {
    gemm_operator_batch(op_.data(), inputs, rows, config_.cols, batch, out);
    return;
  }
  // Current division: each input over its row's total conductance, then
  // the raw crosspoint conductances. The quotient is formed as the closed
  // form writes it (a product with a stored reciprocal rounds differently).
  std::vector<double> scaled(batch * rows);
  for (std::size_t q = 0; q < batch; ++q) {
    const double* in = inputs + q * rows;
    double* s = scaled.data() + q * rows;
    for (std::size_t row = 0; row < rows; ++row) {
      s[row] = in[row] / (dummy_g_[row] + row_sums_[row]);
    }
  }
  gemm_operator_batch(op_.data(), scaled.data(), rows, config_.cols, batch, out);
}

std::vector<double> RcmArray::transfer_operator() const {
  ResistiveNetwork net;
  const std::size_t rows = config_.rows;
  const std::size_t cols = config_.cols;
  const double g_seg = 1.0 / config_.segment_resistance();

  // Node layout: row-bar junctions then column-bar junctions, then the
  // per-column terminations and the shared dummy bar. The junctions are
  // eliminated in crossbar_elimination_order(): a nested dissection of the
  // grid, which keeps the factor sparse, with the row inputs and column
  // outputs last, so the operator's block solves stay inside the factor's
  // trailing rows + cols columns.
  const RNode row_base = net.add_nodes(rows * cols);
  const RNode col_base = net.add_nodes(rows * cols);
  const auto row_node = [&](std::size_t i, std::size_t j) { return row_base + i * cols + j; };
  const auto col_node = [&](std::size_t i, std::size_t j) { return col_base + i * cols + j; };

  // Row bars: input at the left edge (j = 0), segments along the bar.
  std::vector<RNode> row_inputs;
  row_inputs.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    row_inputs.push_back(row_node(i, 0));
    for (std::size_t j = 0; j + 1 < cols; ++j) {
      net.add_conductance(row_node(i, j), row_node(i, j + 1), g_seg);
    }
  }

  // Column bars: segments down the bar, then one segment into the grounded
  // termination (the DWN clamp).
  std::vector<RNode> col_outputs;
  col_outputs.reserve(cols);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i + 1 < rows; ++i) {
      net.add_conductance(col_node(i, j), col_node(i + 1, j), g_seg);
    }
    const RNode term = net.add_node();
    net.ground(term);
    net.add_conductance(col_node(rows - 1, j), term, g_seg);
    col_outputs.push_back(col_node(rows - 1, j));
  }

  // Crosspoint memristors.
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      net.add_conductance(row_node(i, j), col_node(i, j), cells_[i * cols + j].conductance());
    }
  }

  // Dummy devices: from the far end of each row bar to a shared wide bar,
  // grounded like the terminations (its own wire resistance is negligible).
  if (config_.dummy_column) {
    const RNode dummy_bar = net.add_node();
    net.ground(dummy_bar);
    for (std::size_t i = 0; i < rows; ++i) {
      if (dummy_g_[i] > 0.0) {
        net.add_conductance(row_node(i, cols - 1), dummy_bar, dummy_g_[i]);
      }
    }
  }
  net.set_elimination_order(crossbar_elimination_order(rows, cols));

  // A column's current is the current through its last segment, so by
  // reciprocity T[j][r] = g_seg * dv(col_output_j)/dI(row_input_r): one
  // unit solve per *output* column, and the influence block already comes
  // in the operator's layout (op_[j * rows + r]).
  std::vector<double> transfer = net.influence(col_outputs, row_inputs);
  for (double& t : transfer) {
    t = g_seg * t;
  }
  return transfer;
}

void RcmArray::invalidate_operator() {
  op_built_ = false;
  op_.clear();
}

}  // namespace spinsim
