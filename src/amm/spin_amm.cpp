#include "amm/spin_amm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "core/clock.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"

namespace spinsim {

double SpinAmmConfig::full_scale_current() const {
  return std::ldexp(dwn.i_threshold, static_cast<int>(wta_bits));
}

double SpinAmmConfig::input_full_scale_current() const {
  // See SpinAmmDesign::max_input_current: the best column collects about
  // 1/templates of every input current, so per-input peak =
  // full_scale * templates / dimension.
  return full_scale_current() * static_cast<double>(templates) /
         static_cast<double>(features.dimension());
}

SpinAmm::SpinAmm(const SpinAmmConfig& config) : config_(config), rng_(config.seed) {
  require(config.templates >= 2, "SpinAmm: need at least two templates");
  require(config.features.dimension() >= 1, "SpinAmm: empty feature space");

  RcmConfig rcm_config;
  rcm_config.rows = config.features.dimension();
  rcm_config.cols = config.templates;
  rcm_config.memristor = config.memristor;
  rcm_config.dummy_column = config.dummy_column;
  rcm_config.row_target_conductance = config.row_target_conductance;
  rcm_ = std::make_unique<RcmArray>(rcm_config, rng_.fork());

  // The analytic-scale input-DAC bank's stream is forked here, so every
  // later fork sits at the same position whichever path store_templates
  // takes; the bank itself is built only if calibration reads it.
  input_full_scale_ = config.input_full_scale_current();
  analytic_dac_rng_ = rng_.fork();

  SpinWtaConfig wta_config;
  wta_config.columns = config.templates;
  wta_config.bits = config.wta_bits;
  wta_config.dwn = config.dwn;
  wta_config.latch = config.latch;
  wta_config.delta_v = config.delta_v;
  wta_config.cycle_time = 1.0 / config.clock;
  wta_config.thermal_noise = config.thermal_noise;
  wta_config.sample_mismatch = config.sample_mismatch;
  wta_config.seed = rng_.next_u64();
  wta_ = std::make_unique<SpinSarWta>(wta_config);
}

void SpinAmm::store_templates(const std::vector<FeatureVector>& templates) {
  require(templates.size() == config_.templates,
          "SpinAmm::store_templates: template count mismatch");
  std::vector<std::vector<double>> columns;
  columns.reserve(templates.size());
  for (const auto& t : templates) {
    require(t.dimension() == config_.features.dimension(),
            "SpinAmm::store_templates: template dimension mismatch");
    columns.push_back(t.analog);
  }
  rcm_->program(columns);
  templates_stored_ = true;
  if (config_.input_full_scale_override > 0.0) {
    // Shared sizing across shards of one logical template set: skip the
    // per-array calibration so every shard quantises on the same scale.
    build_input_dacs(config_.input_full_scale_override, rng_.fork());
  } else {
    calibrate_input_gain(templates);
  }
}

void SpinAmm::build_input_dacs(double full_scale, Rng dac_rng) {
  DtcsDacDesign dac_design;
  dac_design.bits = config_.features.bits;
  dac_design.full_scale_current = full_scale;
  dac_design.delta_v = config_.delta_v;
  input_full_scale_ = full_scale;
  input_dacs_.clear();
  input_dacs_.reserve(config_.features.dimension());
  for (std::size_t row = 0; row < config_.features.dimension(); ++row) {
    if (config_.sample_mismatch) {
      input_dacs_.emplace_back(dac_design, dac_rng);
    } else {
      input_dacs_.emplace_back(dac_design);
    }
  }
}

void SpinAmm::calibrate_input_gain(const std::vector<FeatureVector>& templates) {
  // Feed each stored pattern through the real front end and find the
  // strongest self-match; then rebuild the input DACs so that current
  // sits at 95 % of the WTA full scale (headroom against clipping). The
  // first calibration reads the analytic-scale bank, built only now.
  if (input_dacs_.empty()) {
    build_input_dacs(config_.input_full_scale_current(), analytic_dac_rng_);
  }
  double best = 0.0;
  for (std::size_t j = 0; j < templates.size(); ++j) {
    const std::vector<double> currents = column_currents(templates[j]);
    best = std::max(best, currents[j]);
  }
  if (best <= 0.0) {
    return;  // degenerate (all-zero templates); keep the analytic sizing
  }
  const double scale = 0.95 * config_.full_scale_current() / best;
  build_input_dacs(config_.input_full_scale_current() * scale, rng_.fork());
}

std::vector<double> SpinAmm::input_row_currents(const FeatureVector& input) const {
  std::vector<double> input_currents(input.dimension(), 0.0);
  input_row_currents_into(input, input_currents.data());
  return input_currents;
}

void SpinAmm::input_row_currents_into(const FeatureVector& input, double* out) const {
  // Per-row DTCS DACs: the realised current depends on the row's total
  // conductance (series division, Fig. 8b).
  const std::size_t dim = input.dimension();
  for (std::size_t row = 0; row < dim; ++row) {
    out[row] = input_dacs_[row].output_current(input.digital[row], rcm_->row_conductance(row));
  }
}

std::vector<double> SpinAmm::column_currents(const FeatureVector& input) {
  require(templates_stored_, "SpinAmm: store_templates() before recognition");
  require(input.dimension() == config_.features.dimension(),
          "SpinAmm::column_currents: input dimension mismatch");

  const std::vector<double> input_currents = input_row_currents(input);
  if (config_.model == CrossbarModel::kIdeal) {
    return rcm_->column_currents_ideal(input_currents);
  }
  return rcm_->column_currents_parasitic(input_currents, /*v_bias=*/0.0);
}

Recognition SpinAmm::assemble(std::vector<double>&& currents, SpinWtaOutcome&& wta) const {
  Recognition out;
  out.winner = wta.winner;
  out.unique = wta.unique;
  out.dom = wta.winner_dom;
  out.score = static_cast<double>(out.dom);
  // A tied winner is never an acceptable match (the conformance contract
  // downstream escalation and merge rely on: accepted implies unique).
  out.accepted = out.unique && out.dom >= config_.accept_threshold;

  // Analog detection margin: best minus runner-up over full scale. A
  // zero-DOM winner carries no confidence whatever the raw analog gap
  // says — non-positive winners must report zero margin. One max/runner-up
  // scan: the same two values nth_element used to produce, without the
  // per-query copy and partial sort.
  if (currents.size() >= 2 && out.dom > 0) {
    double best = -std::numeric_limits<double>::infinity();
    double second = best;
    for (const double v : currents) {
      if (v > best) {
        second = best;
        best = v;
      } else if (v > second) {
        second = v;
      }
    }
    out.margin = (best - second) / config_.full_scale_current();
  }
  out.detail = SpinRecognitionDetail{std::move(currents), std::move(wta)};
  return out;
}

Recognition SpinAmm::recognize(const FeatureVector& input) {
  std::vector<double> currents = column_currents(input);
  SpinWtaOutcome wta = wta_->run(currents);
  return assemble(std::move(currents), std::move(wta));
}

std::vector<Recognition> SpinAmm::recognize_batch(const std::vector<FeatureVector>& inputs,
                                                  std::size_t threads) {
  require(templates_stored_, "SpinAmm: store_templates() before recognition");
  std::vector<Recognition> results(inputs.size());
  if (inputs.empty()) {
    return results;
  }
  const std::size_t dim = config_.features.dimension();
  for (const auto& input : inputs) {
    require(input.dimension() == dim, "SpinAmm::recognize_batch: input dimension mismatch");
  }

  const std::size_t batch = inputs.size();
  const std::size_t cols = config_.templates;
  const std::shared_ptr<Clock> clock = SteadyClock::instance();
  const auto elapsed_us = [](Clock::TimePoint a, Clock::TimePoint b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };

  // Build the crossbar's operator up front: once built, the ideal and the
  // parasitic transfer operator are both const, so the workers share them.
  const bool parasitic = config_.model == CrossbarModel::kParasitic;
  if (parasitic) {
    rcm_->prepare_parasitic(/*v_bias=*/0.0);
  } else {
    rcm_->prepare_ideal();
  }
  // Warm the lazy row-conductance cache before the workers fan out.
  (void)rcm_->row_conductance(0);

  // Workers are sized against the query count; the dispatch below then
  // hands each worker whole chunks of kMinItemsPerThread queries, so one
  // chunk is one DAC -> GEMM -> WTA -> assemble pipeline pass over a
  // cache-resident slice of the flat buffers.
  threads = resolve_threads(threads, batch);
  const std::size_t chunk_size = kMinItemsPerThread;
  const std::size_t num_chunks = (batch + chunk_size - 1) / chunk_size;

  // Flat column-current buffer C (batch x cols): query q's currents live
  // at C[q * cols .. (q + 1) * cols).
  std::vector<double> currents_flat(batch * cols);

  // Per-chunk stage timings, summed into batch_timing_ after the join
  // (disjoint slots, so no synchronisation needed).
  std::vector<double> dac_us(num_chunks, 0.0);
  std::vector<double> gemm_us(num_chunks, 0.0);
  std::vector<double> wta_us(num_chunks, 0.0);
  std::vector<double> assemble_us(num_chunks, 0.0);

  // Reserve the batch's WTA noise slots up front: chunk workers then
  // consume exactly the slots a sequential recognize() loop would.
  const std::uint64_t base = wta_->reserve_query_slots(batch);

  parallel_for_resolved(num_chunks, threads, [&](std::size_t c) {
    const std::size_t q0 = c * chunk_size;
    const std::size_t qn = std::min(chunk_size, batch - q0);
    double* chunk_currents = currents_flat.data() + q0 * cols;

    // Stage 1 — DAC front end into thread-local scratch (no per-query
    // heap allocation).
    thread_local std::vector<double> input_scratch;
    input_scratch.resize(chunk_size * dim);
    const auto t0 = clock->now();
    for (std::size_t qi = 0; qi < qn; ++qi) {
      input_row_currents_into(inputs[q0 + qi], input_scratch.data() + qi * dim);
    }
    const auto t1 = clock->now();

    // Stage 2 — one blocked GEMM against the cached crossbar operator.
    if (parasitic) {
      rcm_->column_currents_transfer_batch(input_scratch.data(), qn, chunk_currents,
                                           /*v_bias=*/0.0);
    } else {
      rcm_->column_currents_ideal_batch(input_scratch.data(), qn, chunk_currents);
    }
    const auto t2 = clock->now();
    dac_us[c] = elapsed_us(t0, t1);
    gemm_us[c] = elapsed_us(t1, t2);

    // Stage 3 — WTA winner search per query slot.
    thread_local std::vector<SpinWtaOutcome> outcomes;
    outcomes.resize(qn);
    for (std::size_t qi = 0; qi < qn; ++qi) {
      outcomes[qi] = wta_->run_query_span(chunk_currents + qi * cols, base + q0 + qi);
    }
    const auto t3 = clock->now();

    // Stage 4 — assemble Recognitions (the detail keeps a per-query copy
    // of the currents, as the sequential path does).
    for (std::size_t qi = 0; qi < qn; ++qi) {
      const double* q_currents = chunk_currents + qi * cols;
      results[q0 + qi] = assemble(std::vector<double>(q_currents, q_currents + cols),
                                  std::move(outcomes[qi]));
    }
    const auto t4 = clock->now();
    wta_us[c] = elapsed_us(t2, t3);
    assemble_us[c] = elapsed_us(t3, t4);
  });

  SpinBatchTiming timing;
  timing.queries = static_cast<std::uint64_t>(batch);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    timing.dac_us += dac_us[c];
    timing.gemm_us += gemm_us[c];
    timing.wta_us += wta_us[c];
    timing.assemble_us += assemble_us[c];
  }
  batch_timing_ = timing;
  return results;
}

void SpinAmm::attach_substrate(std::shared_ptr<CrossbarSubstrate> substrate,
                               std::vector<std::size_t> column_map, bool delta_writes) {
  require(!templates_stored_, "SpinAmm::attach_substrate: attach before store_templates()");
  rcm_->attach_substrate(std::move(substrate), std::move(column_map), delta_writes);
}

const RcmArray& SpinAmm::crossbar() const {
  require(rcm_ != nullptr, "SpinAmm: no crossbar");
  return *rcm_;
}

RcmArray& SpinAmm::mutable_crossbar() {
  require(rcm_ != nullptr, "SpinAmm: no crossbar");
  return *rcm_;
}

SpinAmmDesign SpinAmm::power_design() const {
  SpinAmmDesign d;
  d.dimension = config_.features.dimension();
  d.templates = config_.templates;
  d.resolution_bits = config_.wta_bits;
  d.dwn_threshold = config_.dwn.i_threshold;
  d.delta_v = config_.delta_v;
  d.clock = config_.clock;
  return d;
}

PowerReport SpinAmm::power() const { return spin_amm_power(power_design()); }

EnergyPerQuery SpinAmm::energy_per_query() const {
  // One recognition is an M-cycle WTA search: total power held for
  // M / f_clock seconds, charged to a single query.
  const Energy search =
      power().total() * static_cast<double>(config_.wta_bits) / (config_.clock * units::Hz);
  return search / units::query;
}

}  // namespace spinsim
