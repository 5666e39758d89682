#include "datapath/dtcs_dac.hpp"

#include <cmath>

#include "core/error.hpp"
#include "device/mosfet.hpp"

namespace spinsim {

double DtcsDacDesign::unit_conductance() const {
  require(bits >= 1 && bits <= kMaxBits, "DtcsDacDesign: bits must be 1..10");
  require(delta_v > 0.0 && full_scale_current > 0.0, "DtcsDacDesign: bad electrical targets");
  return full_scale_current / (delta_v * static_cast<double>(max_code()));
}

namespace {

/// Sizes the bit-k device so its triode conductance is 2^k unit
/// conductances at the design gate drive. Small conductances that would
/// need a sub-minimum width are realised with a longer channel instead
/// (the W/L ratio, not W alone, sets the conductance).
MosGeometry bit_geometry(const DtcsDacDesign& design, unsigned bit, const Tech45& tech) {
  const double g_target = design.unit_conductance() * std::ldexp(1.0, static_cast<int>(bit));
  const double vov = design.gate_drive - tech.vt_p;
  require(vov > 0.05, "DtcsDac: gate drive leaves no overdrive");
  const double ratio = g_target / (tech.kp_p * vov);  // required W/L
  MosGeometry g;
  g.type = MosType::kPmos;
  if (ratio * design.unit_length >= tech.w_min) {
    g.l = design.unit_length;
    g.w = ratio * design.unit_length;
  } else {
    g.w = tech.w_min;
    g.l = tech.w_min / ratio;
  }
  return g;
}

}  // namespace

DtcsDac::DtcsDac(const DtcsDacDesign& design, const Tech45& tech) : design_(design) {
  BitConductances bit_conductance{};
  for (unsigned k = 0; k < design.bits; ++k) {
    bit_conductance[k] =
        Mosfet(bit_geometry(design, k, tech), tech).triode_conductance(design.gate_drive);
  }
  build_code_table(bit_conductance);
}

DtcsDac::DtcsDac(const DtcsDacDesign& design, Rng& rng, const Tech45& tech) : design_(design) {
  BitConductances bit_conductance{};
  for (unsigned k = 0; k < design.bits; ++k) {
    bit_conductance[k] =
        Mosfet(bit_geometry(design, k, tech), rng, tech, design.sigma_vt_override)
            .triode_conductance(design.gate_drive);
  }
  build_code_table(bit_conductance);
}

void DtcsDac::build_code_table(const BitConductances& bit_conductance) {
  // Every code's G_T is the sum of its set bits in ascending-bit order.
  // Code (2^k | low), low < 2^k, is the sum for `low` plus bit k, so the
  // table fills in one addition per code.
  code_conductance_.assign(design_.max_code() + 1u, 0.0);
  for (unsigned k = 0; k < design_.bits; ++k) {
    const std::uint32_t high = 1u << k;
    for (std::uint32_t low = 0; low < high; ++low) {
      code_conductance_[high | low] = code_conductance_[low] + bit_conductance[k];
    }
  }
}

double DtcsDac::conductance(std::uint32_t code) const {
  require(code <= design_.max_code(), "DtcsDac::conductance: code out of range");
  return code_conductance_[code];
}

double DtcsDac::output_current(std::uint32_t code, double g_load) const {
  const double g_t = conductance(code);
  if (g_t == 0.0) {
    return 0.0;
  }
  if (g_load <= 0.0) {
    return design_.delta_v * g_t;  // ideal load
  }
  return design_.delta_v * g_t * g_load / (g_t + g_load);
}

double DtcsDac::ideal_current(std::uint32_t code) const {
  require(code <= design_.max_code(), "DtcsDac::ideal_current: code out of range");
  return design_.full_scale_current * static_cast<double>(code) /
         static_cast<double>(design_.max_code());
}

double DtcsDac::integral_nonlinearity(double g_load) const {
  const std::uint32_t top = design_.max_code();
  const double i_zero = output_current(0, g_load);
  const double i_top = output_current(top, g_load);
  const double span = i_top - i_zero;
  if (span <= 0.0) {
    return 0.0;
  }
  double worst = 0.0;
  for (std::uint32_t code = 0; code <= top; ++code) {
    const double fit = i_zero + span * static_cast<double>(code) / static_cast<double>(top);
    worst = std::max(worst, std::abs(output_current(code, g_load) - fit));
  }
  return worst / span;
}

}  // namespace spinsim
