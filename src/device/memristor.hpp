/// \file memristor.hpp
/// Behavioral Ag-Si memristor model.
///
/// The paper treats the memristor as a multi-level programmable
/// conductance: targets are quantised to `levels` values across the
/// [g_min, g_max] range and each write lands within a multiplicative
/// `write_sigma` of the target (3 % ~= 5-bit accuracy, after [8]).
///
/// Real Ag-Si RRAM endurance is finite: filaments degrade as write
/// cycles accumulate, the programmable window drifts shut, and devices
/// eventually fail stuck (filament lost -> stuck-open, over-formed ->
/// stuck-short). The optional wear model captures that lifecycle so the
/// write-heavy serving layers (the leaf cache reprograms crossbars on
/// every miss) can spread wear and self-repair instead of silently
/// losing accuracy. `endurance_cycles == 0` (the default) disables the
/// model entirely and keeps the device ideal and bit-stable.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/random.hpp"

namespace spinsim {

/// Lifecycle state of one device.
enum class MemristorHealth : std::uint8_t {
  kHealthy = 0,
  kStuckOpen = 1,   ///< filament lost: conductance collapsed far below g_min
  kStuckShort = 2,  ///< over-formed filament: pinned far above g_max
};

/// Programming/rating parameters shared by all devices in an array.
struct MemristorSpec {
  double r_min = 1e3;        ///< lowest programmable resistance [Ohm] (paper: 1 kOhm)
  double r_max = 32e3;       ///< highest programmable resistance [Ohm] (paper: 32 kOhm)
  std::size_t levels = 32;   ///< programmable levels (5-bit)
  double write_sigma = 0.03; ///< multiplicative write error (3 %)
  double d2d_sigma = 0.0;    ///< device-to-device range variation (multiplicative)

  // --- Endurance / wear model (endurance_cycles == 0 disables it) ---
  double endurance_cycles = 0.0;   ///< median write endurance; 0 = ideal device
  double endurance_sigma = 0.3;    ///< lognormal spread of per-device endurance
  double wear_drift = 0.5;         ///< target pull toward mid-conductance at full wear
  double wear_sigma_growth = 2.0;  ///< extra write-noise factor at full wear
  double wear_fail_open = 0.5;     ///< P(wear-out fails stuck-open vs stuck-short)

  double g_min() const { return 1.0 / r_max; }
  double g_max() const { return 1.0 / r_min; }

  bool wear_enabled() const { return endurance_cycles > 0.0; }

  /// Conductance signature of a stuck-open device (~100x the highest
  /// programmable resistance — the same window RcmArray::inject_fault
  /// realises, so repair logic detects field faults and wear-out alike).
  double stuck_open_conductance() const { return 0.01 * g_min(); }

  /// Conductance signature of a stuck-short device (over-formed filament
  /// well below the lowest programmable resistance).
  double stuck_short_conductance() const { return 4.0 * g_max(); }

  /// Ideal conductance of `level` (0 .. levels-1), linear in conductance:
  /// level 0 -> g_min, top level -> g_max.
  double level_conductance(std::size_t level) const;

  /// Nearest programmable level for a normalised weight in [0, 1].
  std::size_t weight_to_level(double weight) const;
};

/// Persistent wear record of one device, detachable from the Memristor
/// object so a physical device outlives the (re-created) array models
/// that program it — what CrossbarSubstrate snapshots per cache slot.
struct MemristorWear {
  std::uint64_t write_cycles = 0;
  double endurance_limit = 0.0;  ///< sampled per device; 0 = wear disabled
  MemristorHealth health = MemristorHealth::kHealthy;
};

/// One crosspoint device.
class Memristor {
 public:
  /// Unprogrammed device starts at g_min (high resistance). The
  /// endurance limit (when the spec enables wear) is the spec's median.
  explicit Memristor(const MemristorSpec& spec);

  /// Device with sampled device-to-device variation and (when wear is
  /// enabled) a lognormal-sampled per-device endurance limit.
  Memristor(const MemristorSpec& spec, Rng& rng);

  /// The same, sharing `spec` with other devices: an array's cells hold
  /// one spec between them instead of a copy each.
  Memristor(std::shared_ptr<const MemristorSpec> spec, Rng& rng);

  const MemristorSpec& spec() const { return *spec_; }

  /// Programs the device to `level`; the realised conductance includes
  /// write noise drawn from `rng`. Throws InvalidArgument for a level
  /// outside the spec. With wear enabled, every call ages the device:
  /// the realised target drifts toward mid-conductance and the write
  /// noise grows as cycles approach the endurance limit, past which the
  /// device fails stuck (open or short, drawn from `rng`) and ignores
  /// all further programming.
  void program(std::size_t level, Rng& rng);

  /// Programs without write noise (ideal write, used in ablations).
  /// Still counts a write cycle but applies no wear effects.
  void program_ideal(std::size_t level);

  /// Programs to the level nearest `weight` in [0, 1].
  void program_weight(double weight, Rng& rng);

  /// Restores a previously realised state without a physical write (the
  /// delta-reprogramming skip path): no cycle is charged, no noise drawn.
  void restore(std::size_t level, double conductance);

  /// Realised conductance [S].
  double conductance() const { return g_; }

  /// Realised resistance [Ohm].
  double resistance() const { return 1.0 / g_; }

  /// Last programmed level.
  std::size_t level() const { return level_; }

  // --- Wear state ---
  std::uint64_t write_cycles() const { return wear_.write_cycles; }
  MemristorHealth health() const { return wear_.health; }
  bool worn_out() const { return wear_.health != MemristorHealth::kHealthy; }

  /// Consumed lifetime in [0, 1]; 0 when the wear model is disabled.
  double wear_fraction() const;

  /// Persistent wear snapshot (see MemristorWear).
  MemristorWear wear() const { return wear_; }

  /// Restores a wear snapshot; a failed record pins the stuck
  /// conductance signature immediately.
  void set_wear(const MemristorWear& wear);

  /// Device-to-device range skew (persisted by CrossbarSubstrate so a
  /// physical device keeps its skew across array re-creations).
  double range_scale() const { return range_scale_; }
  void set_range_scale(double scale) { range_scale_ = scale; }

 private:
  explicit Memristor(std::shared_ptr<const MemristorSpec> spec);
  void fail(Rng& rng);

  std::shared_ptr<const MemristorSpec> spec_;
  double range_scale_ = 1.0;  // device-to-device multiplicative skew
  double g_;
  std::size_t level_ = 0;
  MemristorWear wear_;
};

}  // namespace spinsim
