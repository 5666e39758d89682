/// \file rcm.hpp
/// Resistive crossbar memory (RCM) array model.
///
/// `rows` horizontal input bars cross `cols` in-plane output bars with an
/// Ag-Si memristor at every junction (paper Fig. 1). One analog template
/// is programmed per column; driving the rows with input currents makes
/// each column collect a current proportional to the input-template dot
/// product.
///
/// Every column delivers its current into a spin neuron held at one common
/// DC clamp (Section 4A, Fig. 9), so every termination sits at the same
/// potential, taken as ground, and the array is linear in its input
/// currents: one cols x rows operator per array is the whole model.
///  * ideal: current division I(i,j) = I_in(i) g_ij / G_TS(i) summed per
///    column, the closed form the paper's Section 4A derives, exact when
///    wire parasitics vanish. The operator is g; each input is divided by
///    its row's G_TS first.
///  * parasitic: the 2 * rows * cols wire-junction network with
///    per-segment Cu bar resistance (Table 2: 1 Ohm/um), which produces
///    the IR-drop margin degradation of Fig. 9. The operator is its
///    transfer matrix T, read from one factorization of the network.
/// prepare() builds the configured model's operator; a query is then one
/// register-tiled GEMM against it.
///
/// A per-row *dummy memristor* pads every row's total conductance G_TS to
/// a common value so the DTCS-DAC sees a data-independent load (Section
/// 4A).

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "circuit/resistive_network.hpp"
#include "core/random.hpp"
#include "crossbar/wear.hpp"
#include "device/memristor.hpp"

namespace spinsim {

/// Which operator models the array.
enum class CrossbarModel {
  kIdeal,      ///< closed-form current division (fast; no wire parasitics)
  kParasitic,  ///< transfer matrix of the wire network with Cu bar resistance
};

/// Geometry and technology of one RCM array.
struct RcmConfig {
  std::size_t rows = 128;        ///< input bars (feature dimension)
  std::size_t cols = 40;         ///< output bars (stored templates)
  MemristorSpec memristor;       ///< crosspoint device spec
  bool dummy_column = true;      ///< equalise G_TS with a dummy device per row

  /// Explicit per-row G_TS pad target [S]; <= 0 pads to the array's own
  /// largest row sum (the default). Setting the same target on several
  /// arrays makes their rows electrically identical regardless of how
  /// many columns each holds — what the service layer uses to keep
  /// sharded column currents equal to a flat array's. Must exceed every
  /// realised row sum.
  double row_target_conductance = 0.0;

  // Cu bar parasitics (paper Table 2: 1 Ohm/um, 0.4 fF/um). The pitch is
  // the high-density nano-crossbar assumption (~2F at F = 50 nm); at
  // coarser pitches the cumulative column IR drop overtakes the
  // per-memristor signal drop and the Fig. 9a optimum shifts to higher
  // resistances.
  double wire_res_per_um = 1.0;  ///< [Ohm/um]
  double cell_pitch_um = 0.1;    ///< junction pitch [um]

  CrossbarModel model = CrossbarModel::kIdeal;  ///< operator prepare() builds

  /// Wire resistance of one cell-to-cell segment [Ohm].
  double segment_resistance() const { return wire_res_per_um * cell_pitch_um; }
};

/// Elimination order of the parasitic network of a rows x cols array.
/// The network numbers row-bar junction (i, j) as node i * cols + j and
/// column-bar junction (i, j) as node rows * cols + i * cols + j; the
/// order lists each of these 2 * rows * cols free nodes once.
///
/// It is George's nested dissection of the grid (A. George, "Nested
/// dissection of a regular finite element mesh", SIAM J. Numer. Anal.,
/// 1973). Each rectangle of crosspoints is cut across its longer side at
/// the middle. A vertical cut at column jm takes the rectangle's row-bar
/// junctions in that column as separator: they are the only links
/// between its left and right halves, and they go after both. Inside the
/// rectangle, that column's column-bar piece then touches nothing but the
/// separator, so it is a part of its own. A horizontal cut does the same with rows and columns
/// swapped. Halves and freed bar pieces are split the same way down to
/// single junctions. Every separator is as long as a rectangle's short
/// side, and a 64x160 factor holds ~0.36M entries.
///
/// The row-input nodes (i, 0) and then the column-output nodes
/// (rows - 1, j) come last. The transfer operator is the block of the
/// inverse between exactly these nodes, so SparseLdlt::inverse_entries
/// reads only the factor's trailing rows + cols columns to build it.
std::vector<RNode> crossbar_elimination_order(std::size_t rows, std::size_t cols);

/// How the parasitic network is evaluated. The transfer operator (one
/// blocked solve, then a matvec per query) is the only algorithm, so
/// nothing reads this; SpinAmmConfig::parasitic_solver keeps it settable.
enum class CrossbarSolver {
  kTransfer,  ///< transfer operator from one blocked solve, then a matvec
};

/// One programmed crossbar.
class RcmArray {
 public:
  /// Builds an unprogrammed array; `rng` seeds the write-noise stream.
  RcmArray(const RcmConfig& config, Rng rng);

  const RcmConfig& config() const { return config_; }
  std::size_t rows() const { return config_.rows; }
  std::size_t cols() const { return config_.cols; }

  /// Attaches persistent physical-device state: array column `j` models
  /// the substrate's physical column `column_map[j]`. Cell wear, sampled
  /// endurance limits, d2d skew, and recorded faults are restored from
  /// the substrate immediately; every subsequent program writes the aged
  /// state back, drawing write noise from the substrate's keyed
  /// per-device streams instead of this array's sequential rng. With
  /// `delta_writes`, programming skips (and restores) devices whose
  /// recorded target level already matches. Attach before programming.
  void attach_substrate(std::shared_ptr<CrossbarSubstrate> substrate,
                        std::vector<std::size_t> column_map, bool delta_writes);

  bool substrate_attached() const { return substrate_ != nullptr; }

  /// Physical substrate column behind array column `col` (identity
  /// mapping is the common case; repair remaps break it).
  const std::vector<std::size_t>& column_map() const { return column_map_; }

  /// Programs column `col` with `weights` (one value in [0, 1] per row).
  /// Weights are quantised to the memristor level grid; realised
  /// conductances include write noise per the spec.
  void program_column(std::size_t col, const std::vector<double>& weights);

  /// Reprograms the single junction (row, col) to `weight` — the
  /// self-repair rewrite path. Always writes (no delta skip). The caller
  /// re-equalises rows once per repair pass.
  void program_cell(std::size_t row, std::size_t col, double weight);

  /// Programs all columns; `columns[j]` holds column j's weights.
  void program(const std::vector<std::vector<double>>& columns);

  /// Re-pads the per-row dummy conductances so every row's total
  /// conductance equals the largest row sum. Called automatically by
  /// program(); exposed for incremental programming.
  void equalize_rows();

  /// Fault types for yield studies: a stuck-open device loses its
  /// filament (conductance collapses to ~0), a stuck-short device is
  /// pinned at an over-formed low resistance.
  enum class StuckFault { kOpen, kShort };

  /// Injects a permanent device fault at (row, col) and re-equalises the
  /// rows; recognition continues with the damaged array.
  void inject_fault(std::size_t row, std::size_t col, StuckFault fault);

  /// Realised conductance of junction (row, col) [S].
  double conductance(std::size_t row, std::size_t col) const;

  /// Total conductance hanging off input bar `row`, including the dummy
  /// device [S] — the G_TS the DTCS-DAC model needs.
  double row_conductance(std::size_t row) const;

  /// Builds the configured model's cols x rows operator in the layout
  /// gemm_operator_batch reads, and leaves the row-sum cache warm. The
  /// parasitic model builds and factors its wire network here, reads T
  /// from the factor (ResistiveNetwork::influence) and frees both. A no-op
  /// while the operator is current; any reprogram, fault or
  /// equalize_rows() drops it.
  void prepare();

  /// Column currents [A] for `batch` per-row input current vectors laid
  /// back to back in `inputs` (batch x rows); `out` receives batch x cols.
  /// One GEMM against the prepared operator; the ideal model divides each
  /// input by its row's G_TS first. A query's result does not depend on
  /// the batch around it. Throws InvalidArgument unless prepare() has run
  /// since the last change to the array; const and thread-safe (callers
  /// may partition a batch across threads via pointer offsets).
  void column_currents(const double* inputs, std::size_t batch, double* out) const;

  // Device-write accounting since construction: physical writes
  // performed, writes avoided by delta reprogramming, and columns that
  // saw at least one write (the unit the serial write path's latency
  // scales with).
  std::uint64_t device_writes() const { return device_writes_; }
  std::uint64_t device_write_skips() const { return device_write_skips_; }
  std::uint64_t columns_touched() const { return columns_touched_; }

 private:
  void program_cell_unchecked(std::size_t row, std::size_t col, std::size_t level);
  std::vector<double> transfer_operator() const;
  void invalidate_operator();
  void ensure_row_sums() const;

  RcmConfig config_;
  Rng rng_;
  std::vector<Memristor> cells_;       // row-major rows x cols
  std::vector<double> dummy_g_;        // per-row pad conductance
  bool programmed_ = false;

  // Persistent physical-device state (leaf-cache endurance mode).
  std::shared_ptr<CrossbarSubstrate> substrate_;
  std::vector<std::size_t> column_map_;
  bool delta_writes_ = false;
  std::uint64_t device_writes_ = 0;
  std::uint64_t device_write_skips_ = 0;
  std::uint64_t columns_touched_ = 0;

  // Per-row sum of crosspoint conductances (dummy pad excluded), kept so
  // row_conductance() and equalize_rows() stop rescanning the cell array.
  mutable std::vector<double> row_sums_;
  mutable bool row_sums_dirty_ = true;

  // The model's operator, op_[j * rows + r]: g_rj for the ideal model,
  // T[j][r] for the parasitic one. Built by prepare().
  bool op_built_ = false;
  std::vector<double> op_;
};

}  // namespace spinsim
