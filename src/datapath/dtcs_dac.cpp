#include "datapath/dtcs_dac.hpp"

#include <array>
#include <cmath>

#include "core/error.hpp"

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
  bit_devices_.reserve(design.bits);
  for (unsigned k = 0; k < design.bits; ++k) {
    bit_devices_.emplace_back(bit_geometry(design, k, tech), tech);
  }
  build_code_table();
}

DtcsDac::DtcsDac(const DtcsDacDesign& design, Rng& rng, const Tech45& tech) : design_(design) {
  bit_devices_.reserve(design.bits);
  for (unsigned k = 0; k < design.bits; ++k) {
    bit_devices_.emplace_back(bit_geometry(design, k, tech), rng, tech,
                              design.sigma_vt_override);
  }
  build_code_table();
}

void DtcsDac::build_code_table() {
  // Realised per-bit conductances are frozen once the devices exist, so
  // each device is evaluated once and every code's G_T is the sum of its
  // set bits, accumulated in ascending-bit order.
  std::array<double, DtcsDacDesign::kMaxBits> bit_conductance{};
  for (unsigned k = 0; k < design_.bits; ++k) {
    bit_conductance[k] = bit_devices_[k].triode_conductance(design_.gate_drive);
  }
  code_conductance_.assign(design_.max_code() + 1u, 0.0);
  for (std::uint32_t code = 1; code <= design_.max_code(); ++code) {
    double g = 0.0;
    for (unsigned k = 0; k < design_.bits; ++k) {
      if ((code >> k) & 1u) {
        g += bit_conductance[k];
      }
    }
    code_conductance_[code] = g;
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
