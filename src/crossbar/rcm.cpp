#include "crossbar/rcm.hpp"

#include <algorithm>
#include <memory>

#include "core/error.hpp"
#include "core/matrix.hpp"

namespace spinsim {

RcmArray::RcmArray(const RcmConfig& config, Rng rng) : config_(config), rng_(rng) {
  require(config.rows > 0 && config.cols > 0, "RcmArray: dimensions must be positive");
  cells_.reserve(config.rows * config.cols);
  for (std::size_t i = 0; i < config.rows * config.cols; ++i) {
    cells_.emplace_back(config.memristor, rng_);
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
  invalidate_parasitic_cache();
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
  invalidate_parasitic_cache();
}

void RcmArray::program_cell(std::size_t row, std::size_t col, double weight) {
  require(row < config_.rows && col < config_.cols, "RcmArray::program_cell: out of range");
  program_cell_unchecked(row, col, config_.memristor.weight_to_level(weight));
  ++columns_touched_;
  row_sums_dirty_ = true;
  invalidate_parasitic_cache();
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
  invalidate_parasitic_cache();
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
  invalidate_parasitic_cache();
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

std::vector<double> RcmArray::column_currents_ideal(
    const std::vector<double>& input_currents) const {
  require(input_currents.size() == config_.rows,
          "RcmArray::column_currents_ideal: need one input current per row");
  std::vector<double> out(config_.cols, 0.0);
  for (std::size_t row = 0; row < config_.rows; ++row) {
    const double g_total = row_conductance(row);
    SPINSIM_ASSERT(g_total > 0.0, "RcmArray: row with zero conductance");
    const double scale = input_currents[row] / g_total;
    const Memristor* row_cells = &cells_[row * config_.cols];
    for (std::size_t col = 0; col < config_.cols; ++col) {
      out[col] += scale * row_cells[col].conductance();
    }
  }
  return out;
}

void RcmArray::prepare_ideal() {
  ensure_row_sums();
  for (std::size_t row = 0; row < config_.rows; ++row) {
    SPINSIM_ASSERT(dummy_g_[row] + row_sums_[row] > 0.0, "RcmArray: row with zero conductance");
  }
  if (ideal_built_) {
    return;
  }
  ideal_op_.assign(config_.cols * config_.rows, 0.0);
  for (std::size_t row = 0; row < config_.rows; ++row) {
    const Memristor* row_cells = &cells_[row * config_.cols];
    for (std::size_t col = 0; col < config_.cols; ++col) {
      ideal_op_[col * config_.rows + row] = row_cells[col].conductance();
    }
  }
  ideal_built_ = true;
}

void RcmArray::column_currents_ideal_batch(const double* inputs, std::size_t batch,
                                           double* out) const {
  require(ideal_built_, "RcmArray::column_currents_ideal_batch: call prepare_ideal() first");
  const std::size_t rows = config_.rows;
  // Same current division as column_currents_ideal(): scale each input by
  // its row's total conductance, then the operator entries are the raw
  // crosspoint conductances. The scaled copy keeps the division identical
  // (one divide per (query, row), same operands, same order).
  std::vector<double> scaled(batch * rows);
  for (std::size_t q = 0; q < batch; ++q) {
    const double* in = inputs + q * rows;
    double* s = scaled.data() + q * rows;
    for (std::size_t row = 0; row < rows; ++row) {
      s[row] = in[row] / (dummy_g_[row] + row_sums_[row]);
    }
  }
  gemm_operator_batch(ideal_op_.data(), nullptr, scaled.data(), rows, config_.cols, batch, out);
}

void RcmArray::build_parasitic_network(double v_bias) {
  net_ = std::make_unique<ResistiveNetwork>();
  transfer_built_ = false;
  const std::size_t rows = config_.rows;
  const std::size_t cols = config_.cols;
  const double g_seg = 1.0 / config_.segment_resistance();

  // Node layout: row-bar junctions then column-bar junctions, then the
  // per-column terminations and the shared dummy bar.
  const RNode row_base = net_->add_nodes(rows * cols);
  const RNode col_base = net_->add_nodes(rows * cols);
  const auto row_node = [&](std::size_t i, std::size_t j) { return row_base + i * cols + j; };
  const auto col_node = [&](std::size_t i, std::size_t j) { return col_base + i * cols + j; };

  col_term_nodes_.clear();
  col_last_nodes_.clear();
  row_input_nodes_.clear();

  // Row bars: input at the left edge (j = 0), segments along the bar.
  for (std::size_t i = 0; i < rows; ++i) {
    row_input_nodes_.push_back(row_node(i, 0));
    for (std::size_t j = 0; j + 1 < cols; ++j) {
      net_->add_conductance(row_node(i, j), row_node(i, j + 1), g_seg);
    }
  }

  // Column bars: segments down the bar, termination pinned at v_bias.
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i + 1 < rows; ++i) {
      net_->add_conductance(col_node(i, j), col_node(i + 1, j), g_seg);
    }
    const RNode term = net_->add_node();
    net_->fix_voltage(term, v_bias);
    net_->add_conductance(col_node(rows - 1, j), term, g_seg);
    col_term_nodes_.push_back(term);
    col_last_nodes_.push_back(col_node(rows - 1, j));
  }

  // Crosspoint memristors.
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      net_->add_conductance(row_node(i, j), col_node(i, j),
                            cells_[i * cols + j].conductance());
    }
  }

  // Dummy devices: from the far end of each row bar to a shared wide bar
  // held at the same bias (its own wire resistance is negligible).
  if (config_.dummy_column) {
    const RNode dummy_bar = net_->add_node();
    net_->fix_voltage(dummy_bar, v_bias);
    for (std::size_t i = 0; i < rows; ++i) {
      if (dummy_g_[i] > 0.0) {
        net_->add_conductance(row_node(i, cols - 1), dummy_bar, dummy_g_[i]);
      }
    }
  }
  net_v_bias_ = v_bias;
}

void RcmArray::ensure_network(double v_bias) {
  if (!net_ || net_v_bias_ != v_bias) {
    build_parasitic_network(v_bias);
  }
}

void RcmArray::ensure_transfer(double v_bias) {
  ensure_network(v_bias);
  if (transfer_built_) {
    return;
  }
  const double g_seg = 1.0 / config_.segment_resistance();

  // Baseline: column currents with no injections (exactly zero for a
  // uniform bias, but computed so a future non-uniform clamp stays
  // correct).
  net_->clear_injections();
  net_->solve_factored();
  transfer_offset_ = extract_column_currents(v_bias);

  // By reciprocity T[j][r] = g_seg * dv(col_last_j)/dI(row_input_r): one
  // unit solve per *output* column, and the influence block already comes
  // in the operator's layout (transfer_[j * rows + r]).
  transfer_ = net_->influence(col_last_nodes_, row_input_nodes_);
  for (double& t : transfer_) {
    t = g_seg * t;
  }
  transfer_built_ = true;
}

std::vector<double> RcmArray::extract_column_currents(double v_bias) const {
  // The termination pin hangs off a single wire segment, so the column
  // current is just that segment's current.
  const double g_seg = 1.0 / config_.segment_resistance();
  std::vector<double> out(config_.cols, 0.0);
  for (std::size_t j = 0; j < config_.cols; ++j) {
    out[j] = (net_->voltage(col_last_nodes_[j]) - v_bias) * g_seg;
  }
  return out;
}

void RcmArray::prepare_parasitic(double v_bias) { ensure_transfer(v_bias); }

bool RcmArray::transfer_ready(double v_bias) const {
  return net_ != nullptr && transfer_built_ && net_v_bias_ == v_bias;
}

std::vector<double> RcmArray::column_currents_transfer(const std::vector<double>& input_currents,
                                                       double v_bias) const {
  require(input_currents.size() == config_.rows,
          "RcmArray::column_currents_transfer: need one input current per row");
  require(transfer_ready(v_bias),
          "RcmArray::column_currents_transfer: call prepare_parasitic() first");
  const std::size_t rows = config_.rows;
  std::vector<double> out(config_.cols, 0.0);
  for (std::size_t j = 0; j < config_.cols; ++j) {
    const double* t_row = &transfer_[j * rows];
    double acc = transfer_offset_[j];
    for (std::size_t r = 0; r < rows; ++r) {
      acc += t_row[r] * input_currents[r];
    }
    out[j] = acc;
  }
  return out;
}

void RcmArray::column_currents_transfer_batch(const double* inputs, std::size_t batch,
                                              double* out, double v_bias) const {
  require(transfer_ready(v_bias),
          "RcmArray::column_currents_transfer_batch: call prepare_parasitic() first");
  gemm_operator_batch(transfer_.data(), transfer_offset_.data(), inputs, config_.rows,
                      config_.cols, batch, out);
}

std::vector<double> RcmArray::column_currents_parasitic(
    const std::vector<double>& input_currents, double v_bias) {
  require(input_currents.size() == config_.rows,
          "RcmArray::column_currents_parasitic: need one input current per row");

  if (solver_ == CrossbarSolver::kTransfer) {
    ensure_transfer(v_bias);
    return column_currents_transfer(input_currents, v_bias);
  }

  ensure_network(v_bias);
  for (std::size_t i = 0; i < config_.rows; ++i) {
    net_->set_injection(row_input_nodes_[i], input_currents[i]);
  }
  if (solver_ == CrossbarSolver::kFactored) {
    net_->solve_factored();
  } else {
    net_->solve_cg();
  }
  return extract_column_currents(v_bias);
}

void RcmArray::invalidate_parasitic_cache() {
  net_.reset();
  transfer_built_ = false;
  transfer_.clear();
  transfer_offset_.clear();
  ideal_built_ = false;
  ideal_op_.clear();
}

}  // namespace spinsim
