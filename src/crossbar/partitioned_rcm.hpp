/// \file partitioned_rcm.hpp
/// Modular crossbar: a large pattern dimension split across RCM blocks.
///
/// Paper Section 5: "Individual patterns of larger dimensions can also be
/// partitioned and stored in modular RCM-blocks." Each block holds a
/// contiguous slice of every template's rows; the per-column currents of
/// all blocks are summed on a shared rail (current-mode addition is free
/// in this architecture). Shorter bars mean smaller cumulative IR drops,
/// which is the engineering payoff this class lets you quantify against
/// the monolithic array.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "crossbar/rcm.hpp"

namespace spinsim {

/// Configuration of a partitioned crossbar.
struct PartitionedRcmConfig {
  std::size_t rows = 128;    ///< total pattern dimension
  std::size_t cols = 40;     ///< stored templates
  std::size_t blocks = 4;    ///< number of RCM blocks (must divide rows)
  MemristorSpec memristor;
  double wire_res_per_um = 1.0;
  double cell_pitch_um = 0.1;
  CrossbarModel model = CrossbarModel::kIdeal;  ///< every block's operator

  std::size_t rows_per_block() const { return rows / blocks; }
};

/// A bank of RCM blocks acting as one logical crossbar.
class PartitionedRcm {
 public:
  /// Builds the (unprogrammed) blocks; throws InvalidArgument unless
  /// `blocks` divides `rows`.
  PartitionedRcm(const PartitionedRcmConfig& config, Rng rng);

  const PartitionedRcmConfig& config() const { return config_; }
  std::size_t blocks() const { return blocks_.size(); }

  /// Programs all templates; `columns[j]` holds template j's `rows`
  /// weights, sliced row-wise across the blocks. Then prepares every
  /// block's operator.
  void program(const std::vector<std::vector<double>>& columns);

  /// Total conductance on logical input bar `row` (within its block).
  double row_conductance(std::size_t row) const;

  /// Column currents: each block's operator applied to its slice of the
  /// inputs, summed in block order. Under the parasitic model the blocks'
  /// shorter bars are where the IR-drop advantage appears.
  std::vector<double> column_currents(const std::vector<double>& input_currents) const;

  /// Access to an individual block (inspection, tests).
  const RcmArray& block(std::size_t index) const;

 private:
  PartitionedRcmConfig config_;
  std::vector<std::unique_ptr<RcmArray>> blocks_;
  bool programmed_ = false;
};

}  // namespace spinsim
