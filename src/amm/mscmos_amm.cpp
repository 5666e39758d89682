#include "amm/mscmos_amm.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "device/variation.hpp"

namespace spinsim {

MsCmosAmm::MsCmosAmm(const MsCmosAmmConfig& config) : config_(config), rng_(config.seed) {
  require(config.templates >= 2, "MsCmosAmm: need at least two templates");

  RcmConfig rcm_config;
  rcm_config.rows = config.features.dimension();
  rcm_config.cols = config.templates;
  rcm_config.memristor = config.memristor;
  rcm_ = std::make_unique<RcmArray>(rcm_config, rng_.fork());

  // Size the detection unit for the requested resolution/process corner.
  MsCmosDesign design;
  design.topology = config.topology;
  design.inputs = config.templates;
  design.resolution_bits = config.resolution_bits;
  design.sigma_vt_min_size = config.sigma_vt_min_size;
  evaluation_ = mscmos_wta_power(design);

  // Input regulated mirrors: one sampled copy error per column, at the
  // per-stage sigma the sizing realised.
  input_mirror_gain_.reserve(config.templates);
  for (std::size_t j = 0; j < config.templates; ++j) {
    input_mirror_gain_.push_back(1.0 + rng_.normal(0.0, evaluation_.stage_rel_sigma));
  }

  AnalogWtaConfig wta_config;
  wta_config.inputs = config.templates;
  wta_config.stage_rel_sigma = evaluation_.stage_rel_sigma;
  wta_config.seed = rng_.next_u64();
  wta_ = std::make_unique<AnalogBtWta>(wta_config);

  // The analog front end uses the same current scale as the spin design
  // would at 1 uA threshold, for a like-for-like margin definition.
  input_full_scale_ = std::ldexp(1e-6, static_cast<int>(config.resolution_bits));
}

void MsCmosAmm::store_templates(const std::vector<FeatureVector>& templates) {
  require(templates.size() == config_.templates,
          "MsCmosAmm::store_templates: template count mismatch");
  std::vector<std::vector<double>> columns;
  columns.reserve(templates.size());
  for (const auto& t : templates) {
    columns.push_back(t.analog);
  }
  rcm_->program(columns);
  rcm_->prepare();
  templates_stored_ = true;
}

Recognition MsCmosAmm::recognize_one(const FeatureVector& input) const {
  require(templates_stored_, "MsCmosAmm: store_templates() before recognition");
  require(input.dimension() == config_.features.dimension(),
          "MsCmosAmm::recognize: input dimension mismatch");

  // Ideal current-mode front end (the regulated mirrors clamp the RCM
  // outputs); per-input peak current chosen as in the spin design.
  const double i_in_max = input_full_scale_ * static_cast<double>(config_.templates) /
                          static_cast<double>(config_.features.dimension());
  std::vector<double> input_currents(input.dimension(), 0.0);
  for (std::size_t row = 0; row < input.dimension(); ++row) {
    input_currents[row] = i_in_max * input.analog[row];
  }
  std::vector<double> columns(config_.templates);
  rcm_->column_currents(input_currents.data(), 1, columns.data());

  Recognition out;
  if (columns.size() >= 2) {
    std::vector<double> sorted = columns;
    std::nth_element(sorted.begin(), sorted.begin() + 1, sorted.end(), std::greater<>());
    out.margin = (sorted[0] - sorted[1]) / input_full_scale_;
  }

  // Input mirror copy errors, then the mismatched tree.
  for (std::size_t j = 0; j < columns.size(); ++j) {
    columns[j] *= input_mirror_gain_[j];
  }
  const AnalogWtaResult selected = wta_->select(columns);
  out.winner = selected.winner;
  out.score = selected.winning_current / input_full_scale_;
  if (out.score <= 0.0) {
    out.margin = 0.0;  // non-positive winners carry no confidence
  }
  out.detail = MsCmosRecognitionDetail{selected.winning_current};
  return out;
}

Recognition MsCmosAmm::recognize(const FeatureVector& input) { return recognize_one(input); }

std::vector<Recognition> MsCmosAmm::recognize_batch(const std::vector<FeatureVector>& inputs,
                                                    std::size_t threads) {
  require(templates_stored_, "MsCmosAmm: store_templates() before recognition");
  for (const auto& input : inputs) {
    require(input.dimension() == config_.features.dimension(),
            "MsCmosAmm::recognize_batch: input dimension mismatch");
  }
  std::vector<Recognition> results(inputs.size());
  if (inputs.empty()) {
    return results;
  }
  parallel_for_strided(inputs.size(), threads,
                       [&](std::size_t i) { results[i] = recognize_one(inputs[i]); });
  return results;
}

}  // namespace spinsim
