/// \file recognition_service.hpp
/// The batch API at the service edge: a thread-pooled request-queue
/// façade over AssociativeEngine replicas.
///
/// One logical template set is split contiguously across `shards` engine
/// replicas (any backend — the factory decides). Clients submit single
/// queries or whole batches and get futures back; a collector thread
/// coalesces whatever is queued inside an *admission window* into one
/// micro-batch and fans it out to the per-shard worker threads (each
/// shard engine is touched by exactly one thread, so engines need no
/// internal locking). Workers *stream* their finished per-shard answers
/// into a completion queue as they land — the collector folds each one
/// into a running per-query merge instead of barriering on the slowest
/// shard — and up to one successor micro-batch is *double-buffered*: as
/// soon as any shard goes idle the collector forms the next batch and
/// posts it into every shard's depth-2 job queue, so workers roll from
/// batch N straight into batch N+1 without a collector round-trip.
/// Client-visible semantics (delivery order, merge rule, stats, fault
/// handling) are unchanged from the barrier design. This is the layer the ROADMAP's heavy-traffic scenarios plug
/// into: what lives behind the shard workers swaps freely without touching
/// the client surface. Multi-backend *tiered* routing plugs in exactly
/// there: make_tiered_factory() builds one TieredEngine per shard (cheap
/// tier 0, authoritative tier 1), and stats() then surfaces the tier mix
/// (escalation/reject rates), per-shard batch-time quantiles, client
/// latency percentiles and an energy-per-query estimate composed from the
/// shard engines' power models.
///
/// Winner parity: the merge picks the shard with the highest score,
/// breaking ties toward the lowest global template index — the same rule
/// a flat WTA/argmax applies. Scores are comparable across shards when
/// the shard engines are configured identically (for SpinAmm shards that
/// means a shared input_full_scale_override and row_target_conductance,
/// both readable off a flat reference engine; DigitalAmm scores are
/// bit-exact and need no care). Under that contract a sharded service
/// answers winner-for-winner identically to one flat engine holding the
/// whole template set — tested in tests/service/.
///
/// Overload & failure hardening (README "Overload & failure handling"):
///
///  * Deadlines — submit()/submit_batch() take a per-query deadline; the
///    collector sheds expired queries at batch formation (the future
///    fails with DeadlineExceeded, counted as `shed_deadline`, never
///    `failed`), so shard time is never spent on answers nobody wants.
///  * Bounded queue — `max_queue` caps the pending-request depth; beyond
///    it submissions throw the retriable Overloaded instead of growing
///    the queue (and the latency tail) without bound.
///  * Shard fault tolerance — a shard whose engine throws is retried up
///    to `shard_retries` times, then skipped for the batch; repeated
///    failures trip a per-shard circuit breaker (cooldown with
///    exponential backoff, half-open probe on expiry). A shard that
///    exceeds `shard_timeout` is *abandoned*: its worker keeps running
///    (it will discard the stale results), the dispatch proceeds without
///    it. Either way the merge returns best-effort answers over the
///    shards that did respond, with `Recognition.coverage` < 1 telling
///    the client which fraction of the template set was searched.
///  * Adaptive overload control — with `overload.enabled`, a controller
///    on the collector thread servos the TieredEngine escalation
///    threshold against a p99-latency SLO; past a second watermark it
///    forces tier-0-only *brown-out* serving (answers flagged
///    `degraded`) until the latency recovers.
///  * Graceful shutdown — destruction and store_templates() re-init fail
///    every queued future with ServiceStopped; a future is never
///    silently dropped. (A worker stuck *inside* an engine call must be
///    unstuck — e.g. FaultSwitch::release() — before destruction, or the
///    join blocks; the service cannot preempt a hung engine.)
///  * Idle scrubbing — with `idle_scrub_interval`, the collector posts
///    LeafCacheEngine verify-read scrubs to the shard workers whenever
///    the service goes idle after enough traffic, so endurance repair
///    runs out of the serving path.
///
/// All time is read through the injected core/clock.hpp Clock, so every
/// one of these policies is testable with a FakeClock and zero sleeps.

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "amm/engine.hpp"
#include "amm/leaf_cache_engine.hpp"
#include "amm/tiered_engine.hpp"
#include "core/clock.hpp"
#include "core/statistics.hpp"
#include "core/sync.hpp"
#include "vision/features.hpp"

namespace spinsim {

/// Collector-thread overload controller: servo the tiered escalation
/// threshold (and, past a second watermark, brown out to tier-0-only
/// serving) against a client-latency SLO. Inert unless the shard engines
/// are TieredEngines (directly or behind a FaultInjectingEngine).
struct OverloadControlConfig {
  bool enabled = false;
  /// The p99 client-latency SLO the controller defends [us].
  double target_p99_us = 0.0;
  /// Brown-out watermark: p99 above `brownout_factor * target_p99_us`
  /// forces tier-0-only serving (answers flagged `degraded`) until p99
  /// falls back under the target.
  double brownout_factor = 2.0;
  /// Relax watermark: p99 below `low_watermark * target_p99_us` walks the
  /// escalation threshold back toward its construction-time value.
  double low_watermark = 0.5;
  /// Floor the servo never tightens the escalation margin below.
  double min_escalation_margin = 0.0;
  /// Multiplicative step per adjustment period: tighten multiplies the
  /// live margin by this (in (0, 1]), relax divides by it.
  double margin_step = 0.5;
  /// Delivered queries per controller decision (the p99 window length).
  std::uint64_t period_queries = 256;
};

/// Tuning knobs of one RecognitionService.
struct RecognitionServiceConfig {
  /// Engine replicas the template set splits across (contiguous slices).
  std::size_t shards = 2;
  /// Admission window: max queries one dispatch may coalesce.
  std::size_t max_batch = 64;
  /// Admission window: how long the collector waits for more arrivals
  /// before dispatching a short batch, timed from the oldest pending
  /// query's enqueue stamp on `clock`. A query that already waited this
  /// long (say, behind a busy pipeline) goes out in the next batch
  /// formed. The wait re-reads `clock` whenever the collector wakes, so
  /// a FakeClock advance past the close takes effect at the next wake-up
  /// (such as the next submit). The collector thread runs with 1 ns timer
  /// slack on Linux, so the window closes on time instead of up to the
  /// kernel's default 50 us late. Must not be negative; 0 dispatches at
  /// once.
  std::chrono::microseconds admission_window{200};
  /// Threads each shard engine's recognize_batch may use internally.
  std::size_t engine_threads = 1;
  /// Time source for deadlines, latencies and breaker cooldowns. Null
  /// picks the shared SteadyClock; tests inject a FakeClock. (Condition-
  /// variable *waits* still run on the real clock — a FakeClock controls
  /// every time-point comparison, not thread scheduling.)
  std::shared_ptr<Clock> clock;
  /// Queue-depth cap: pending requests beyond this are refused with the
  /// retriable Overloaded (counted as `rejected_overload`; no future is
  /// created). 0 = unbounded, the pre-hardening behaviour.
  std::size_t max_queue = 0;
  /// Stuck-shard watchdog: how long a dispatch waits for one shard's
  /// recognize_batch before abandoning it for this batch (its results are
  /// discarded when they eventually arrive, and the wait counts toward
  /// the shard's circuit breaker). 0 disables the watchdog — a dispatch
  /// then waits forever, the pre-hardening behaviour.
  std::chrono::microseconds shard_timeout{0};
  /// In-dispatch retries after a shard engine throws, before the shard is
  /// skipped for the batch.
  std::size_t shard_retries = 1;
  /// Consecutive failed dispatches (throws after retry, or timeouts) that
  /// trip a shard's circuit breaker open.
  std::size_t breaker_failure_threshold = 3;
  /// Breaker cooldown before the half-open probe; doubles (`breaker_backoff`)
  /// per consecutive ejection, capped at `breaker_max_cooldown`.
  std::chrono::microseconds breaker_cooldown{100000};
  double breaker_backoff = 2.0;
  std::chrono::microseconds breaker_max_cooldown{5000000};
  /// Idle scrubbing: when > 0 and the service goes idle after at least
  /// this many delivered queries since the last round, the collector
  /// posts a verify-read scrub (LeafCacheEngine::verify_and_repair) to
  /// every shard worker holding leaf caches. 0 disables.
  std::uint64_t idle_scrub_interval = 0;
  /// Repair-rate alarm: when > 0, the collector raises an alarm each time
  /// the live self-repair rate — leaf devices rewritten plus columns
  /// remapped per 1000 delivered queries (stats().repair_rate_per_kq) —
  /// crosses this threshold from below. Edge-triggered: one alarm per
  /// excursion, counted in stats().repair_alarms. A rising repair rate
  /// means the substrate is wearing out faster than traffic justifies —
  /// the operator signal to schedule replacement. 0 disables.
  double repair_alarm_per_kq = 0.0;
  /// Adaptive overload control (see OverloadControlConfig).
  OverloadControlConfig overload;
};

/// Per-query submission options.
struct SubmitOptions {
  /// Relative deadline: how long past submission the answer is still
  /// wanted. The collector sheds the query (DeadlineExceeded) if it is
  /// still queued when the deadline passes. 0 = no deadline.
  std::chrono::microseconds deadline{0};
};

/// Running counters of one service instance.
struct RecognitionServiceStats {
  /// Delivered futures — *failed and shed ones included*: every future
  /// the service ever fulfilled shows up here exactly once.
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;         ///< futures that carried an engine/shard error
  std::uint64_t batches = 0;        ///< dispatches (micro-batches)
  double mean_batch_size = 0.0;     ///< dispatched queries / batches
  double mean_latency_us = 0.0;     ///< submit -> future fulfilled (successes)
  double max_latency_us = 0.0;
  /// Client-side latency quantiles (submit -> future fulfilled), for the
  /// per-query SLO story; failed/shed queries are excluded, like the mean.
  double p50_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double queries_per_sec = 0.0;     ///< since store_templates()

  // Overload / degradation accounting.
  std::uint64_t shed_deadline = 0;     ///< shed before dispatch (DeadlineExceeded)
  std::uint64_t rejected_overload = 0; ///< refused at submit (queue full; no future)
  std::uint64_t degraded = 0;          ///< answers served in brown-out mode
  std::uint64_t best_effort = 0;       ///< answers with coverage < 1
  double mean_coverage = 0.0;          ///< mean Recognition.coverage (successes)
  bool brownout_active = false;        ///< controller currently forcing tier 0
  /// Mean live TieredEngine escalation threshold across shards (the servo
  /// output; equals the construction-time margin when the controller is
  /// off or inactive, 0 with no tiered shards).
  double escalation_margin = 0.0;
  std::uint64_t controller_adjustments = 0;  ///< periods that changed the servo

  // Shard fault accounting, summed across shards.
  std::uint64_t shard_failures = 0;   ///< dispatch attempts that threw
  std::uint64_t shard_timeouts = 0;   ///< dispatches abandoned by the watchdog
  std::uint64_t shard_retries = 0;    ///< in-dispatch retry attempts
  std::uint64_t breaker_ejections = 0;  ///< breaker open transitions

  // Tiered-routing / admission-control accounting. `escalated` counts
  // merged answers whose winning shard served from tier 1 (nonzero only
  // with TieredEngine shard backends); `rejected` counts merged answers
  // with accepted == false, whatever the backend.
  std::uint64_t escalated = 0;
  std::uint64_t rejected = 0;
  double escalation_rate = 0.0;     ///< escalated / successful queries
  double reject_rate = 0.0;         ///< rejected / successful queries
  /// Estimated energy one query costs across the deployed shard engines:
  /// every query visits every shard, so this sums each shard engine's
  /// energy_per_query() — which, for tiered shards, already folds in the
  /// observed tier mix. Typed: read it out with
  /// `.in(units::pJ / units::query)`.
  EnergyPerQuery energy_per_query;

  // Leaf-cache accounting, summed across shards (nonzero only with
  // LeafCacheEngine shard backends — see make_leaf_cache_factory — or
  // HierarchicalAmm ones, whose preloaded leaves make every lookup a hit
  // and charge no writes): slot hits/misses, the hit rate, and the total
  // write energy charged for on-demand leaf reprogramming.
  std::uint64_t leaf_hits = 0;
  std::uint64_t leaf_misses = 0;
  double leaf_hit_rate = 0.0;        ///< leaf_hits / (leaf_hits + leaf_misses)
  Energy reprogram_energy;           ///< total leaf write energy
  Energy repair_energy;              ///< subset spent by self-repair rewrites

  // Endurance / self-repair accounting, summed across the same leaf
  // caches (nonzero only when their endurance config is active):
  std::uint64_t leaf_device_writes = 0;        ///< physical device writes
  std::uint64_t leaf_device_writes_saved = 0;  ///< delta-reprogram skips
  std::uint64_t leaf_faults_detected = 0;      ///< verify-reads out of window
  std::uint64_t leaf_devices_rewritten = 0;    ///< in-place repairs
  std::uint64_t leaf_columns_remapped = 0;     ///< columns retired to spares
  std::uint64_t leaf_unrepairable = 0;         ///< faults left in service
  std::uint64_t leaf_worn_out_devices = 0;     ///< devices currently stuck
  std::uint64_t leaf_max_slot_write_cycles = 0;  ///< worst slot wear anywhere
  std::uint64_t leaf_verify_scans = 0;         ///< verify-read passes run
  std::uint64_t idle_scrubs = 0;               ///< idle scrub rounds posted
  /// Live self-repair pressure: (leaf_devices_rewritten +
  /// leaf_columns_remapped) per 1000 delivered queries. 0 until the first
  /// delivery.
  double repair_rate_per_kq = 0.0;
  /// Times the repair rate crossed config.repair_alarm_per_kq from below
  /// (edge-triggered; 0 when the alarm is disabled).
  std::uint64_t repair_alarms = 0;

  /// Circuit-breaker position of one shard in the stats snapshot.
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  /// Per-shard engine-time quantiles and health, one entry per shard.
  struct ShardStats {
    std::uint64_t batches = 0;
    double p50_batch_us = 0.0;
    double p95_batch_us = 0.0;
    double p99_batch_us = 0.0;
    BreakerState breaker = BreakerState::kClosed;
    bool available = false;   ///< breaker not open and worker not wedged
    std::uint64_t failures = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t ejections = 0;
  };
  std::vector<ShardStats> shards;
};

/// Sharded, micro-batching recognition front end.
class RecognitionService {
 public:
  /// Builds the engine for shard `shard` (0-based), sized for `columns`
  /// templates. Called once per shard from store_templates().
  using EngineFactory =
      std::function<std::unique_ptr<AssociativeEngine>(std::size_t shard, std::size_t columns)>;

  RecognitionService(const RecognitionServiceConfig& config, EngineFactory factory);

  /// Stops the worker threads; every still-queued request's future fails
  /// with ServiceStopped (shutdown never abandons a future).
  ~RecognitionService();

  RecognitionService(const RecognitionService&) = delete;
  RecognitionService& operator=(const RecognitionService&) = delete;

  /// Splits `templates` contiguously across the configured shards,
  /// builds one engine per shard through the factory, programs each with
  /// its slice, and starts the collector + shard worker threads. Every
  /// shard must receive at least two templates. Re-callable: a second
  /// call first shuts the running edge down (queued futures fail with
  /// ServiceStopped, stats reset) and then brings up the new shard set.
  void store_templates(const std::vector<FeatureVector>& templates);

  /// Enqueues one query. The future's Recognition carries the *global*
  /// template index; its detail is the winning shard's (shard-local
  /// routing indices and all), and its margin is the winning shard's
  /// local margin capped by the relative cross-shard score gap (see
  /// merge()), so it never overstates flat-engine confidence. Throws
  /// Overloaded when the queue is at max_queue.
  std::future<Recognition> submit(FeatureVector input, const SubmitOptions& options = {});

  /// Enqueues a whole batch (one lock round-trip, so the admission
  /// window coalesces it into as few dispatches as max_batch allows).
  /// The future resolves once every query of the batch is answered,
  /// results[i] corresponding to inputs[i]. Admission is all-or-nothing:
  /// if the batch does not fit under max_queue, nothing is enqueued and
  /// Overloaded is thrown.
  std::future<std::vector<Recognition>> submit_batch(std::vector<FeatureVector> inputs,
                                                     const SubmitOptions& options = {});

  /// Blocks until everything submitted so far has been fulfilled.
  void drain();

  std::size_t shard_count() const { return shards_.size(); }

  /// The shard engines (inspection; do not query them concurrently with
  /// live service traffic).
  const AssociativeEngine& shard(std::size_t index) const;

  /// First global template index stored on shard `index`.
  std::size_t shard_base(std::size_t index) const;

  /// Throughput/latency counters since store_templates().
  RecognitionServiceStats stats() const;

 private:
  struct Request {
    FeatureVector input;
    /// Fulfils the client future: a result, or an exception from the
    /// shard engine (never both).
    std::function<void(Recognition&&, std::exception_ptr)> deliver;
    Clock::TimePoint enqueued;
    /// Absolute shed deadline (TimePoint::max() = none).
    Clock::TimePoint deadline;
  };

  /// Per-shard serving health, written only by the collector thread.
  /// Lives in `health_` on the service (not in Shard) so the whole vector
  /// can carry one SPINSIM_GUARDED_BY(stats_mutex_) and stats() snapshots
  /// are provably consistent.
  struct Health {
    RecognitionServiceStats::BreakerState state =
        RecognitionServiceStats::BreakerState::kClosed;
    std::size_t consecutive_failures = 0;
    Clock::TimePoint open_until{};
    std::chrono::microseconds cooldown{0};  ///< next open duration (backoff)
    std::uint64_t failures = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t ejections = 0;
  };

  struct Shard {
    std::unique_ptr<AssociativeEngine> engine;
    std::size_t base = 0;     ///< global index of the shard's first template
    std::size_t columns = 0;  ///< templates stored on this shard
    std::thread worker;
    /// Mutable leaf caches inside `engine` (scrub targets), found once at
    /// store_templates() — the worker thread runs the scrubs.
    std::vector<LeafCacheEngine*> leaf_caches;

    /// One posted batch in the shard's job queue. Shared ownership of the
    /// inputs, not a raw pointer: when the watchdog abandons a wedged
    /// shard the collector's dispatch state is long gone by the time the
    /// engine call returns, but the worker is still inside
    /// recognize_batch on these inputs — the shared_ptr keeps them alive
    /// until the worker lets go.
    struct Job {
      std::shared_ptr<const std::vector<FeatureVector>> inputs;
      std::uint64_t gen = 0;  ///< generation tag (see next_gen)
    };

    // Collector -> worker handoff: a depth-2 job queue (the batch being
    // served plus one double-buffered successor), generation-tagged so an
    // abandoned (timed-out) job's late results are discarded instead of
    // being mistaken for a later batch's.
    Mutex mutex{LockRank::kShard};
    CondVar cv;
    std::deque<Job> jobs SPINSIM_GUARDED_BY(mutex);
    /// Last generation the collector posted (monotone; 0 = none yet).
    std::uint64_t next_gen SPINSIM_GUARDED_BY(mutex) = 0;
    /// Generation the worker is currently executing (valid while busy).
    std::uint64_t running_gen SPINSIM_GUARDED_BY(mutex) = 0;
    /// Generations the collector gave up on: the worker discards results
    /// for (and never starts) any job with gen <= abandoned_gen.
    std::uint64_t abandoned_gen SPINSIM_GUARDED_BY(mutex) = 0;
    /// Worker is inside an engine call it has not finished.
    bool busy SPINSIM_GUARDED_BY(mutex) = false;
    bool scrub SPINSIM_GUARDED_BY(mutex) = false;  ///< pending idle scrub
    bool stop SPINSIM_GUARDED_BY(mutex) = false;

    // Engine time per dispatched batch [us], written by the worker under
    // `mutex` while posting its completion, read by stats().
    GeometricHistogram batch_latency_us SPINSIM_GUARDED_BY(mutex);
    std::uint64_t batches_run SPINSIM_GUARDED_BY(mutex) = 0;
  };

  /// One shard's finished batch, streamed from its worker to the
  /// collector through `completions_`. Workers push while still holding
  /// their shard mutex (rank 20 -> 25), so a push can never race the
  /// watchdog's abandon decision for the same generation.
  struct Completion {
    std::size_t shard = 0;
    std::uint64_t gen = 0;
    std::vector<Recognition> results;
    std::exception_ptr error;  ///< set when the engine threw (results empty)
  };

  /// Collector-local state of one dispatched micro-batch whose per-shard
  /// answers are still streaming in. The per-query merge is *folded* one
  /// shard at a time (fold_shard_results), so non-winning shard results
  /// are freed as they arrive instead of being held until every shard has
  /// answered.
  struct InFlight {
    std::vector<Request> requests;
    std::shared_ptr<const std::vector<FeatureVector>> inputs;

    /// Dispatch state of one shard for this batch.
    struct PendingShard {
      bool posted = false;   ///< this shard participates in the batch
      bool settled = false;  ///< answered, timed out, or out of retries
      std::uint64_t gen = 0;  ///< generation of the latest post/repost
      std::size_t retries_left = 0;
      /// Watchdog deadline of the latest post, on the *wall* clock (cv
      /// timed waits cannot run on a FakeClock); max() = no watchdog.
      Clock::TimePoint deadline = Clock::TimePoint::max();
    };
    std::vector<PendingShard> pending;  ///< indexed like shards_
    std::size_t outstanding = 0;        ///< posted && !settled count

    // Running per-query fold: the best answer so far, the shard it came
    // from, and the best score seen on any *other* shard (the cross-shard
    // runner-up the merge caps the margin with).
    std::vector<Recognition> best;
    std::vector<std::size_t> best_shard;
    std::vector<double> second;
    std::vector<bool> has_best;
    std::size_t answered_shards = 0;
    std::size_t covered_columns = 0;
    std::exception_ptr first_error;
  };

  void collector_loop();
  void shard_loop(std::size_t index);
  /// Clears the per-dispatch input cache and posts `flight` to every
  /// eligible shard (not wedged, job queue not full, breaker admits —
  /// an elapsed cooldown admits one half-open probe).
  void post_dispatch(InFlight& flight);
  /// Pushes a generation-tagged job for `flight` onto shard `index`'s
  /// queue and records the post (generation, watchdog deadline) in
  /// flight.pending. Serves both the first post and retry reposts.
  void post_to_shard(std::size_t index, InFlight& flight);
  /// Routes one streamed completion to its in-flight batch: folds a
  /// success into the running merge, retries or excludes on error.
  /// Completions for abandoned/superseded generations are dropped.
  void handle_completion(std::deque<InFlight>& inflight, Completion&& done);
  /// Abandons posts whose watchdog deadline passed. Re-checks the
  /// completion queue under both the shard and completion locks first: a
  /// completion that landed just before the deadline is a late answer,
  /// not a timeout.
  void expire_watchdog(std::deque<InFlight>& inflight);
  /// Folds one shard's answers into `flight`'s running per-query merge
  /// (highest score wins, ties toward the lowest global template index).
  void fold_shard_results(InFlight& flight, std::size_t shard_index,
                          std::vector<Recognition>&& results);
  /// Finalises a fully-settled batch: per-query merge finish (uniqueness,
  /// margin cap, global winner, coverage), stats, delivery, controller.
  void complete_dispatch(InFlight& flight);
  /// Post-delivery bookkeeping shared by both complete_dispatch paths:
  /// repair-alarm edge check, in-flight/idle accounting, idle scrub.
  void finish_dispatch(std::size_t delivered);
  /// True when some shard could start a new batch immediately (idle
  /// worker, empty job queue, breaker not holding it out) — the gate for
  /// forming the double-buffered successor batch.
  bool has_idle_candidate();
  /// Breaker bookkeeping for one shard's dispatch outcome.
  void note_shard_success(std::size_t index);
  void note_shard_exclusion(std::size_t index, bool timeout);
  void enqueue(Request&& request);
  /// Fails every request in `doomed` with ServiceStopped (shutdown path).
  void fail_stopped(std::vector<Request>& doomed);
  void stop_threads();
  void controller_step(const std::vector<double>& latencies_us);
  void maybe_post_idle_scrub();
  /// Resets every stats counter (the store_templates re-init path).
  void reset_stats_locked() SPINSIM_REQUIRES(stats_mutex_);
  /// Sum of self-repair events (devices rewritten + columns remapped)
  /// across every shard leaf cache — relaxed atomic reads, lock-free.
  std::uint64_t repair_events_total() const;
  /// Edge-triggered repair-rate alarm, evaluated by the collector after
  /// each dispatch (see RecognitionServiceConfig::repair_alarm_per_kq).
  void maybe_raise_repair_alarm();

  RecognitionServiceConfig config_;
  EngineFactory factory_;
  std::shared_ptr<Clock> clock_;
  /// Always the real SteadyClock, whatever clock_ is: watchdog deadlines
  /// bound cv timed waits, which a FakeClock cannot wake (see
  /// core/clock.hpp), so they live on the wall clock like the waits do.
  std::shared_ptr<Clock> wall_clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t total_columns_ = 0;
  /// Tiered engines inside the shards (directly or behind a
  /// FaultInjectingEngine) — the overload controller's actuators — and
  /// their construction-time margins (the relax ceiling).
  std::vector<TieredEngine*> tiered_;
  std::vector<double> base_margins_;

  std::thread collector_;
  /// Admission queue + lifecycle. Rank kServiceQueue: acquired before any
  /// shard or stats lock (and never held across either — the collector
  /// releases it before dispatching).
  mutable Mutex queue_mutex_{LockRank::kServiceQueue};
  CondVar queue_cv_;
  CondVar idle_cv_;
  std::deque<Request> queue_ SPINSIM_GUARDED_BY(queue_mutex_);
  /// Popped but not yet fulfilled.
  std::size_t in_flight_ SPINSIM_GUARDED_BY(queue_mutex_) = 0;
  bool stopping_ SPINSIM_GUARDED_BY(queue_mutex_) = false;
  bool started_ SPINSIM_GUARDED_BY(queue_mutex_) = false;

  /// Streamed worker completions. Rank kServiceDone: acquired after a
  /// shard mutex (workers push under both; the watchdog re-checks under
  /// both) and before stats_mutex_.
  mutable Mutex done_mutex_{LockRank::kServiceDone};
  CondVar done_cv_;
  std::deque<Completion> completions_ SPINSIM_GUARDED_BY(done_mutex_);

  // Collector-thread-only overload-controller and alarm state: touched
  // exclusively by the collector thread between store_templates() calls
  // (when no collector runs), so it needs no lock — and must never grow a
  // reader on another thread without growing a capability here.
  bool brownout_ = false;
  GeometricHistogram window_latency_us_;
  double window_max_us_ = 0.0;
  std::uint64_t window_count_ = 0;
  std::uint64_t queries_since_scrub_ = 0;
  bool repair_alarm_active_ = false;

  /// Counters + breaker Health. Rank kServiceStats: may be acquired while
  /// no other lock is held (every holder releases before the next lock).
  mutable Mutex stats_mutex_{LockRank::kServiceStats};
  std::uint64_t stat_queries_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_failed_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_batches_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_dispatched_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_escalated_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_rejected_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_shed_deadline_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_rejected_overload_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_degraded_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_best_effort_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  double stat_coverage_sum_ SPINSIM_GUARDED_BY(stats_mutex_) = 0.0;
  std::uint64_t stat_idle_scrubs_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_repair_alarms_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t stat_controller_adjustments_ SPINSIM_GUARDED_BY(stats_mutex_) = 0;
  bool stat_brownout_ SPINSIM_GUARDED_BY(stats_mutex_) = false;
  double stat_latency_sum_us_ SPINSIM_GUARDED_BY(stats_mutex_) = 0.0;
  double stat_latency_max_us_ SPINSIM_GUARDED_BY(stats_mutex_) = 0.0;
  GeometricHistogram stat_latency_us_ SPINSIM_GUARDED_BY(stats_mutex_);
  Clock::TimePoint started_at_ SPINSIM_GUARDED_BY(stats_mutex_);
  /// One Health per shard (indexed like shards_), written by the
  /// collector, snapshotted by stats().
  std::vector<Health> health_ SPINSIM_GUARDED_BY(stats_mutex_);
};

/// Composes two engine factories into one that builds a TieredEngine per
/// shard: tier 0 (the cheap stage, typically hierarchical) answers every
/// query, tier 1 (the authoritative flat stage) answers the escalated
/// tail. Both factories are called with the same (shard, columns), so the
/// usual score-comparability contract applies to each tier's replicas.
RecognitionService::EngineFactory make_tiered_factory(RecognitionService::EngineFactory tier0,
                                                      RecognitionService::EngineFactory tier1,
                                                      const TieredEngineConfig& config = {});

/// Builds a LeafCacheEngine per shard, so the sharded path serves
/// template sets several times larger than the programmed crossbar
/// capacity (shard slice >> leaf_slots * leaf size). Each shard clamps
/// the cluster count to its column count (at least two clusters, at most
/// columns / 2 so every leaf can hold two templates) and salts the
/// k-means/module seed by the shard index so replicas don't share device
/// noise. stats() then surfaces the summed hit rate and reprogram energy.
RecognitionService::EngineFactory make_leaf_cache_factory(const LeafCacheEngineConfig& config);

}  // namespace spinsim
