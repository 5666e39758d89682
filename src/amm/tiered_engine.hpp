/// \file tiered_engine.hpp
/// Accuracy/energy tiering: a cheap tier-0 engine answers every query, an
/// authoritative tier-1 engine answers only the queries tier 0 was not
/// confident about.
///
/// This is the production expression of the paper's hierarchical energy
/// trade (Section 5 / the HTM-on-spin-neurons follow-up): most queries
/// terminate in a small router-stage design, and only the low-margin or
/// rejected tail pays for the full flat search. The escalation decision
/// keys on the unified `Recognition` confidence fields — `margin`
/// (capped so it never overstates global confidence, see
/// LeafCacheEngine::recognize and RecognitionService::merge), `accepted`
/// and `unique` — which is why the margin-semantics fixes and this layer
/// ship together.
///
/// TieredEngine is itself an AssociativeEngine, so it composes anywhere a
/// backend does: directly, or as a shard backend behind RecognitionService
/// (see make_tiered_factory in service/recognition_service.hpp). Counters
/// are atomics, safe to snapshot while traffic is in flight.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "amm/engine.hpp"

namespace spinsim {

/// Escalation policy of one TieredEngine.
struct TieredEngineConfig {
  /// Escalate when tier 0's margin falls below this (same relative units
  /// as Recognition.margin; 0 disables margin-based escalation, >= 1
  /// escalates everything — the conformance-test configuration).
  double escalation_margin = 0.05;
  bool escalate_rejected = true;  ///< escalate tier-0 accepted == false
  bool escalate_ties = true;      ///< escalate tier-0 unique == false
};

/// Running totals of one TieredEngine (snapshot of atomic counters).
struct TieredCounters {
  std::uint64_t queries = 0;    ///< recognitions served
  std::uint64_t escalated = 0;  ///< answered by tier 1
  std::uint64_t rejected = 0;   ///< final answer had accepted == false

  double escalation_rate() const {
    return queries == 0 ? 0.0 : static_cast<double>(escalated) / static_cast<double>(queries);
  }
  double reject_rate() const {
    return queries == 0 ? 0.0 : static_cast<double>(rejected) / static_cast<double>(queries);
  }
};

/// Two-tier engine: tier 0 cheap (typically HierarchicalAmm), tier 1
/// authoritative (a flat spin or digital engine over the same templates).
class TieredEngine : public AssociativeEngine {
 public:
  /// Both tiers must be sized for the same template set; store_templates()
  /// programs them from one slice and verifies the counts agree.
  TieredEngine(std::unique_ptr<AssociativeEngine> tier0, std::unique_ptr<AssociativeEngine> tier1,
               const TieredEngineConfig& config = {});

  /// The construction-time policy. `config().escalation_margin` is the
  /// *initial* threshold; the live one is escalation_margin() (the
  /// service's overload controller servos it at runtime).
  const TieredEngineConfig& config() const { return config_; }

  /// Live escalation threshold (atomic: safe against in-flight traffic).
  double escalation_margin() const { return margin_.load(std::memory_order_relaxed); }

  /// Adjusts the live escalation threshold. Raising it escalates more
  /// (more accuracy, more energy/latency); lowering it keeps more
  /// traffic in the cheap tier. The service-edge overload controller
  /// calls this against the p99-latency SLO. Thread-safe.
  void set_escalation_margin(double margin);

  /// Brown-out: while forced, no query escalates — every answer comes
  /// from tier 0 whatever its confidence. The overload controller's
  /// second watermark; answers served this way are flagged `degraded`
  /// by the service merge. Thread-safe.
  void set_force_tier0(bool force) { force_tier0_.store(force, std::memory_order_relaxed); }
  bool force_tier0() const { return force_tier0_.load(std::memory_order_relaxed); }

  std::string name() const override;
  std::size_t template_count() const override { return tier1_->template_count(); }

  void store_templates(const std::vector<FeatureVector>& templates) override;

  /// Tier-0 recognition, escalated to tier 1 when the policy fires. The
  /// result is the serving tier's (winner/score/dom/margin/accepted), and
  /// its detail is a TieredRecognitionDetail recording the tier plus what
  /// tier 0 reported before the decision.
  Recognition recognize(const FeatureVector& input) override;

  /// Batched tiered recognition: one tier-0 batch, then one tier-1 batch
  /// over the escalated subset. Winner-for-winner identical to per-query
  /// recognize() whenever the tier engines are deterministic (thermal
  /// noise off) — with per-query noise streams the escalated subset
  /// occupies different query slots than sequential calls would.
  std::vector<Recognition> recognize_batch(const std::vector<FeatureVector>& inputs,
                                           std::size_t threads = 0) override;

  /// Power of the deployed hardware: both tiers, prefixed per stage.
  PowerReport power() const override;

  /// Estimated energy of one query under the *observed* tier mix:
  /// tier0 energy + escalation_rate * tier1 energy. Before any traffic it
  /// assumes every query escalates (the conservative upper bound).
  EnergyPerQuery energy_per_query() const override;

  /// Counter snapshot (safe while traffic is in flight).
  TieredCounters counters() const;

  const AssociativeEngine& tier0() const { return *tier0_; }
  const AssociativeEngine& tier1() const { return *tier1_; }
  /// Mutable tier access, for owners only: the service walks through
  /// here to reach scrub-able leaf caches inside a tier.
  AssociativeEngine& tier0() { return *tier0_; }
  AssociativeEngine& tier1() { return *tier1_; }

 private:
  bool should_escalate(const Recognition& first) const;
  void account(const Recognition& final_answer, bool escalated);

  TieredEngineConfig config_;
  std::unique_ptr<AssociativeEngine> tier0_;
  std::unique_ptr<AssociativeEngine> tier1_;

  // Threading: a TieredEngine is served by one shard worker; the tiers
  // themselves are never shared. The atomics below exist so *other*
  // threads (counters()/stats snapshots, live policy pokes) can read and
  // write concurrently with serving. All relaxed: the knobs are
  // independent policy samples with no publication protocol (each query
  // reads whatever value is current), and the counters are monotonic
  // tallies with no cross-counter invariant a snapshot must observe.
  std::atomic<double> margin_;  // live knob (config_ keeps the ctor value)
  std::atomic<bool> force_tier0_{false};

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> escalated_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace spinsim
