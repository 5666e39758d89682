#include "device/memristor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/error.hpp"

namespace spinsim {

double MemristorSpec::level_conductance(std::size_t level) const {
  require(level < levels, "MemristorSpec::level_conductance: level out of range");
  require(r_min > 0.0 && r_max > r_min, "MemristorSpec: invalid resistance range");
  require(levels >= 2, "MemristorSpec: need at least 2 levels");
  const double t = static_cast<double>(level) / static_cast<double>(levels - 1);
  return g_min() + t * (g_max() - g_min());
}

std::size_t MemristorSpec::weight_to_level(double weight) const {
  const double clamped = std::clamp(weight, 0.0, 1.0);
  const auto level = static_cast<std::size_t>(
      std::lround(clamped * static_cast<double>(levels - 1)));
  return std::min(level, levels - 1);
}

Memristor::Memristor(const MemristorSpec& spec)
    : Memristor(std::make_shared<const MemristorSpec>(spec)) {}

Memristor::Memristor(const MemristorSpec& spec, Rng& rng)
    : Memristor(std::make_shared<const MemristorSpec>(spec), rng) {}

Memristor::Memristor(std::shared_ptr<const MemristorSpec> spec) : spec_(std::move(spec)) {
  require(spec_ != nullptr, "Memristor: null spec");
  require(spec_->r_min > 0.0 && spec_->r_max > spec_->r_min,
          "Memristor: invalid resistance range");
  g_ = spec_->g_min();
  if (spec_->wear_enabled()) {
    wear_.endurance_limit = spec_->endurance_cycles;
  }
}

Memristor::Memristor(std::shared_ptr<const MemristorSpec> spec, Rng& rng)
    : Memristor(std::move(spec)) {
  if (spec_->d2d_sigma > 0.0) {
    range_scale_ = rng.lognormal_rel(1.0, spec_->d2d_sigma);
  }
  if (spec_->wear_enabled() && spec_->endurance_sigma > 0.0) {
    wear_.endurance_limit = rng.lognormal_rel(spec_->endurance_cycles, spec_->endurance_sigma);
  }
}

double Memristor::wear_fraction() const {
  if (wear_.endurance_limit <= 0.0) {
    return 0.0;
  }
  return std::min(1.0, static_cast<double>(wear_.write_cycles) / wear_.endurance_limit);
}

void Memristor::fail(Rng& rng) {
  const bool open = rng.bernoulli(spec_->wear_fail_open);
  wear_.health = open ? MemristorHealth::kStuckOpen : MemristorHealth::kStuckShort;
  g_ = open ? spec_->stuck_open_conductance() : spec_->stuck_short_conductance();
}

void Memristor::program(std::size_t level, Rng& rng) {
  // A stuck device still receives the write pulses (the controller
  // cannot tell without a verify-read), but its conductance no longer
  // responds.
  spec_->level_conductance(level);  // validate even when stuck
  level_ = level;
  ++wear_.write_cycles;
  if (worn_out()) {
    return;
  }
  if (spec_->wear_enabled() &&
      static_cast<double>(wear_.write_cycles) > wear_.endurance_limit) {
    fail(rng);
    return;
  }

  double target = spec_->level_conductance(level) * range_scale_;
  double sigma = spec_->write_sigma;
  if (spec_->wear_enabled()) {
    // Filament degradation: the realised target drifts toward the middle
    // of the conductance window (the programmable range closes up) and
    // writes land less precisely as cycles accumulate.
    const double w = wear_fraction();
    const double g_mid = 0.5 * (spec_->g_min() + spec_->g_max()) * range_scale_;
    target += spec_->wear_drift * w * (g_mid - target);
    sigma *= 1.0 + spec_->wear_sigma_growth * w;
  }
  double realised = target;
  if (sigma > 0.0) {
    realised = rng.lognormal_rel(target, sigma);
  }
  // A real write loop verifies against the programmable window.
  g_ = std::clamp(realised, 0.25 * spec_->g_min(), 4.0 * spec_->g_max());
}

void Memristor::program_ideal(std::size_t level) {
  spec_->level_conductance(level);  // validate even when stuck
  level_ = level;
  ++wear_.write_cycles;
  if (worn_out()) {
    return;
  }
  g_ = spec_->level_conductance(level) * range_scale_;
}

void Memristor::program_weight(double weight, Rng& rng) {
  program(spec_->weight_to_level(weight), rng);
}

void Memristor::restore(std::size_t level, double conductance) {
  require(conductance > 0.0, "Memristor::restore: conductance must be positive");
  spec_->level_conductance(level);  // validate
  if (worn_out()) {
    return;  // the stuck signature wins over any recorded state
  }
  level_ = level;
  g_ = conductance;
}

void Memristor::set_wear(const MemristorWear& wear) {
  wear_ = wear;
  if (wear_.health == MemristorHealth::kStuckOpen) {
    g_ = spec_->stuck_open_conductance();
  } else if (wear_.health == MemristorHealth::kStuckShort) {
    g_ = spec_->stuck_short_conductance();
  }
}

}  // namespace spinsim
