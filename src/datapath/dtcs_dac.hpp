/// \file dtcs_dac.hpp
/// Deep-triode current-source (DTCS) digital-to-analog converter.
///
/// A bank of binary-weighted PMOS devices biased in deep triode
/// (|VDS| = dV ~ 30 mV) behaves as a digitally programmable conductance
/// G_T(code) = code * g_unit. Driving the crossbar row (total conductance
/// G_TS) from a dV supply yields
///
///     I(code) = dV * G_T G_TS / (G_T + G_TS)
///
/// which is linear in `code` only while G_T << G_TS — the compressive
/// non-linearity of paper Fig. 8b. Per-bit transistors carry sampled VT
/// mismatch, the paper's "variations in input source".

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/random.hpp"
#include "device/tech45.hpp"

namespace spinsim {

/// Electrical design of one DTCS DAC instance.
struct DtcsDacDesign {
  static constexpr unsigned kMaxBits = 10;

  unsigned bits = 5;  ///< 1..kMaxBits
  double full_scale_current = 10e-6;  ///< target I at top code into an ideal load [A]
  double delta_v = 30e-3;             ///< drain-source drop [V]
  double gate_drive = 0.53;           ///< |VGS| of an enabled device [V]
  double sigma_vt_override = -1.0;    ///< <= 0: use the Pelgrom default
  /// Channel length. Matching-driven (Kinget): at 0.5 um the MSB device's
  /// Pelgrom sigma keeps the DAC's total error near 0.15 LSB, so the
  /// "single analog step" the paper credits the DTCS with stays a
  /// fraction of the DWN threshold.
  double unit_length = 0.5e-6;

  std::uint32_t max_code() const { return (1u << bits) - 1; }

  /// Unit (LSB) conductance needed to hit full scale into an ideal load.
  double unit_conductance() const;
};

/// One DAC instance with per-bit sampled mismatch. The per-bit devices
/// are sampled at construction, evaluated once into the code table and
/// not kept: the table is all a DAC reads afterwards.
class DtcsDac {
 public:
  /// Mismatch-free DAC.
  explicit DtcsDac(const DtcsDacDesign& design, const Tech45& tech = Tech45::nominal());

  /// DAC with sampled per-bit VT mismatch.
  DtcsDac(const DtcsDacDesign& design, Rng& rng, const Tech45& tech = Tech45::nominal());

  const DtcsDacDesign& design() const { return design_; }

  /// Realised source conductance G_T for a digital code [S]. Table
  /// lookup: all 2^bits code conductances are precomputed at
  /// construction — this sits on the per-cycle WTA path and the per-row
  /// input path of every recognition.
  double conductance(std::uint32_t code) const;

  /// Output current into a load of total conductance `g_load` [A]:
  /// the series-division expression above. Pass g_load <= 0 for an ideal
  /// (infinite-conductance) load.
  double output_current(std::uint32_t code, double g_load) const;

  /// Ideal straight-line current for the code (for non-linearity plots).
  double ideal_current(std::uint32_t code) const;

  /// Integral non-linearity over all codes for the given load, as a
  /// fraction of full scale (max |I - I_ideal_fit| / I_fs). The ideal fit
  /// is the end-point line through code 0 and the top code.
  double integral_nonlinearity(double g_load) const;

 private:
  using BitConductances = std::array<double, DtcsDacDesign::kMaxBits>;
  void build_code_table(const BitConductances& bit_conductance);

  DtcsDacDesign design_;
  std::vector<double> code_conductance_;  // realised G_T per code
};

}  // namespace spinsim
