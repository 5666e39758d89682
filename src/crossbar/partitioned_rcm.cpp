#include "crossbar/partitioned_rcm.hpp"

#include "core/error.hpp"

namespace spinsim {

PartitionedRcm::PartitionedRcm(const PartitionedRcmConfig& config, Rng rng) : config_(config) {
  require(config.blocks >= 1, "PartitionedRcm: need at least one block");
  require(config.rows % config.blocks == 0,
          "PartitionedRcm: block count must divide the row count");
  RcmConfig block_config;
  block_config.rows = config.rows_per_block();
  block_config.cols = config.cols;
  block_config.memristor = config.memristor;
  block_config.wire_res_per_um = config.wire_res_per_um;
  block_config.cell_pitch_um = config.cell_pitch_um;
  block_config.model = config.model;
  for (std::size_t b = 0; b < config.blocks; ++b) {
    blocks_.push_back(std::make_unique<RcmArray>(block_config, rng.fork()));
  }
}

void PartitionedRcm::program(const std::vector<std::vector<double>>& columns) {
  require(columns.size() == config_.cols, "PartitionedRcm::program: column count mismatch");
  const std::size_t rpb = config_.rows_per_block();
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    std::vector<std::vector<double>> slice(config_.cols, std::vector<double>(rpb));
    for (std::size_t j = 0; j < config_.cols; ++j) {
      require(columns[j].size() == config_.rows,
              "PartitionedRcm::program: template dimension mismatch");
      for (std::size_t r = 0; r < rpb; ++r) {
        slice[j][r] = columns[j][b * rpb + r];
      }
    }
    blocks_[b]->program(slice);
    blocks_[b]->prepare();
  }
  programmed_ = true;
}

double PartitionedRcm::row_conductance(std::size_t row) const {
  require(row < config_.rows, "PartitionedRcm::row_conductance: out of range");
  const std::size_t rpb = config_.rows_per_block();
  return blocks_[row / rpb]->row_conductance(row % rpb);
}

std::vector<double> PartitionedRcm::column_currents(
    const std::vector<double>& input_currents) const {
  require(programmed_, "PartitionedRcm: program() before evaluation");
  require(input_currents.size() == config_.rows,
          "PartitionedRcm::column_currents: need one current per row");
  const std::size_t rpb = config_.rows_per_block();
  std::vector<double> totals(config_.cols, 0.0);
  std::vector<double> partial(config_.cols);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    blocks_[b]->column_currents(input_currents.data() + b * rpb, 1, partial.data());
    for (std::size_t j = 0; j < config_.cols; ++j) {
      totals[j] += partial[j];
    }
  }
  return totals;
}

const RcmArray& PartitionedRcm::block(std::size_t index) const {
  require(index < blocks_.size(), "PartitionedRcm::block: out of range");
  return *blocks_[index];
}

}  // namespace spinsim
