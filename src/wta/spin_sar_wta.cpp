#include "wta/spin_sar_wta.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace spinsim {

namespace {

/// Expands (seed, query index) into an independent thermal substream.
/// splitmix-style finalizer so adjacent indices land far apart; the Rng
/// constructor scrambles further through its own splitmix expansion.
Rng query_stream(std::uint64_t seed, std::uint64_t query_index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (query_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return Rng(z ^ (z >> 31));
}

}  // namespace

double SpinWtaConfig::full_scale_current() const {
  return std::ldexp(dwn.i_threshold, static_cast<int>(bits));
}

SpinSarWta::SpinSarWta(const SpinWtaConfig& config)
    : config_(config), rng_(config.seed), r_reference_(config.dwn.mtj.reference_resistance()) {
  require(config.columns >= 1, "SpinSarWta: need at least one column");
  require(config.bits >= 1 && config.bits <= 10, "SpinSarWta: bits must be 1..10");
  require(config.cycle_time > 0.0, "SpinSarWta: cycle time must be positive");

  DtcsDacDesign dac_design;
  dac_design.bits = config.bits;
  // Top code = (2^M - 1) * I_th so every DAC level lands on an integer
  // multiple of the DWN threshold: the comparator then quantises the
  // column current with LSB = I_th, as the paper's sizing rule requires
  // ("max dot product > 32 uA for 5-bit resolution at I_th = 1 uA").
  dac_design.full_scale_current =
      config.dwn.i_threshold * (std::ldexp(1.0, static_cast<int>(config.bits)) - 1.0);
  dac_design.delta_v = config.delta_v;

  dacs_.reserve(config.columns);
  latches_.reserve(config.columns);
  for (std::size_t j = 0; j < config.columns; ++j) {
    if (config.sample_mismatch) {
      dacs_.emplace_back(dac_design, rng_);
      latches_.emplace_back(config.latch, rng_);
    } else {
      dacs_.emplace_back(dac_design);
      latches_.emplace_back(config.latch);
    }
  }

  // The DWN carries no sampled mismatch, so one probe device yields the
  // two MTJ read resistances every column's neuron can present; the
  // per-column spread lives entirely in the latch offsets sampled above.
  DomainWallNeuron probe(config.dwn);
  probe.reset(true);
  const double r_one = probe.mtj_resistance();
  probe.reset(false);
  const double r_zero = probe.mtj_resistance();
  latch_above_one_.reserve(config.columns);
  latch_above_zero_.reserve(config.columns);
  for (std::size_t j = 0; j < config.columns; ++j) {
    latch_above_one_.push_back(latches_[j].decide(r_one, r_reference_) ? 1 : 0);
    latch_above_zero_.push_back(latches_[j].decide(r_zero, r_reference_) ? 1 : 0);
  }
}

const DtcsDac& SpinSarWta::dac(std::size_t column) const {
  require(column < dacs_.size(), "SpinSarWta::dac: column out of range");
  return dacs_[column];
}

SpinWtaOutcome SpinSarWta::run(const std::vector<double>& column_currents) {
  return run_query(column_currents, query_counter_++);
}

SpinWtaOutcome SpinSarWta::run_query(const std::vector<double>& column_currents,
                                     std::uint64_t query_index) const {
  require(column_currents.size() == config_.columns,
          "SpinSarWta::run: need one current per column");
  return run_query_span(column_currents.data(), query_index);
}

SpinWtaOutcome SpinSarWta::run_query_span(const double* column_currents,
                                          std::uint64_t query_index) const {
  const std::size_t n = config_.columns;
  SpinWtaOutcome out;
  out.tracking.assign(n, true);  // TRs preset high (see header)
  out.dom_codes.assign(n, 0);

  // Mutable PE state is per-query; the SAR registers and bit latches are
  // reused from thread-local scratch so the batch hot path pays no heap
  // allocation per query (each worker thread owns its own copies).
  thread_local std::vector<SarRegister> sars;
  thread_local std::vector<unsigned char> bit_decision;
  sars.assign(n, SarRegister(config_.bits));
  for (auto& sar : sars) {
    sar.begin();
  }
  bit_decision.assign(n, 0);

  Rng thermal_rng = query_stream(config_.seed, query_index);
  Rng* thermal = config_.thermal_noise ? &thermal_rng : nullptr;

  // Neuron objects are only needed when thermal flips are sampled: the
  // noiseless step is replayed from the precomputed latch tables. The
  // neurons carry no sampled mismatch (their spread enters through the
  // latch offsets), so fresh copies are exact, and the SARs restart
  // every conversion anyway.
  std::vector<DomainWallNeuron> neurons;
  if (thermal != nullptr) {
    neurons.assign(n, DomainWallNeuron(config_.dwn));
  }
  const double i_threshold = config_.dwn.i_threshold;

  for (unsigned cycle = 0; cycle < config_.bits; ++cycle) {
    // --- analog compare + digitise step (all PEs in parallel) ---
    if (thermal == nullptr) {
      for (std::size_t j = 0; j < n; ++j) {
        const double i_dac = dacs_[j].output_current(sars[j].code(), /*g_load=*/0.0);
        const double i_net = column_currents[j] - i_dac;
        // Replays reset(false) + apply_current(i_net, cycle_time): from
        // state 0 the neuron ends at 1 iff the drive points toward 1,
        // exceeds I_th, and completes the wall transit within the cycle.
        bool state = false;
        if (i_net > 0.0 && std::abs(i_net) > i_threshold) {
          state = config_.cycle_time / config_.dwn.switching_delay(std::abs(i_net)) >= 1.0;
        }
        const bool above = (state ? latch_above_one_[j] : latch_above_zero_[j]) != 0;
        ++out.latch_decisions;

        bit_decision[j] = above ? 1 : 0;
        sars[j].feed(above);
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        // The DWN is preset to 0 each cycle; the net current (column minus
        // SAR-DAC sink) must exceed +I_th to write a 1.
        neurons[j].reset(false);
        const double i_dac = dacs_[j].output_current(sars[j].code(), /*g_load=*/0.0);
        const double i_net = column_currents[j] - i_dac;
        neurons[j].apply_current(i_net, config_.cycle_time, thermal);

        // Latch senses the DWN MTJ against the reference junction.
        const bool above = latches_[j].decide(neurons[j].mtj_resistance(), r_reference_);
        ++out.latch_decisions;

        bit_decision[j] = above ? 1 : 0;
        sars[j].feed(above);
      }
    }

    // --- digital winner tracking (Fig. 12) ---
    // DL precharged; DR(j) = TR(j) & bit(j) can pull it low.
    bool dl_discharged = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (out.tracking[j] && bit_decision[j]) {
        dl_discharged = true;
        break;
      }
    }
    if (dl_discharged) {
      ++out.dl_discharges;
      for (std::size_t j = 0; j < n; ++j) {
        const bool next = out.tracking[j] && bit_decision[j];
        if (next != out.tracking[j]) {
          ++out.tr_writes;
        }
        out.tracking[j] = next;
      }
    }
    // If nobody pulled DL, every surviving column had a 0 in this bit:
    // the TRs stay as they are.
    ++out.cycles;
  }

  // Collect SAR results and the survivor.
  std::size_t survivor_count = 0;
  for (std::size_t j = 0; j < n; ++j) {
    out.dom_codes[j] = sars[j].result();
    if (out.tracking[j]) {
      if (survivor_count == 0) {
        out.winner = j;
      }
      ++survivor_count;
    }
  }
  out.unique = survivor_count == 1;
  if (survivor_count == 0) {
    // All-zero MSBs and no later discharge: fall back to the largest DOM.
    std::uint32_t best = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (out.dom_codes[j] > best) {
        best = out.dom_codes[j];
        out.winner = j;
      }
    }
    out.unique = false;
  }
  out.winner_dom = out.dom_codes[out.winner];
  return out;
}

}  // namespace spinsim
