/// \file clock.hpp
/// Injectable time source for everything above the physics layer.
///
/// The service edge keys several behaviours off wall-clock time —
/// admission windows, per-query deadlines, circuit-breaker cooldowns,
/// idle-scrub scheduling — and every one of them is miserable to test
/// against a real clock: the test either sleeps (flaky under load, and
/// banned by tools/lint/spinsim_lint.py) or asserts nothing about timing
/// at all. Clock is the seam: production code asks an injected Clock for
/// `now()`, tests inject a FakeClock and advance it by hand, and the
/// deadline/backoff arithmetic becomes a pure function of the test
/// script.
///
/// The project lint enforces the seam: a bare `steady_clock::now()`
/// outside src/core/clock* is a violation (check `bare-clock`), so time
/// reads cannot quietly bypass the injection point.
///
/// FakeClock is thread-safe (an atomic tick counter), so a test may
/// advance time while service worker threads read it. Note the limits of
/// the seam: condition-variable *timed waits* still run on the real
/// clock — a FakeClock cannot wake a `wait_for` early. A wait whose
/// predicate re-reads the clock, as the service's admission window does,
/// ends at the first wake-up (a notify, such as the next submit) after
/// an advance past its deadline; until one comes it sleeps out the
/// real-time remainder it computed when it began. Otherwise tests that
/// use a FakeClock drive code paths that compare time points
/// (deadlines, breaker cooldowns), not ones that sleep.

#pragma once

#include <atomic>
#include <chrono>
#include <memory>

namespace spinsim {

/// Abstract monotonic time source.
class Clock {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;
  using Duration = std::chrono::steady_clock::duration;

  virtual ~Clock();

  /// Current monotonic time. Must never decrease.
  virtual TimePoint now() const = 0;
};

/// The production clock: std::chrono::steady_clock.
class SteadyClock : public Clock {
 public:
  TimePoint now() const override;

  /// Shared default instance (the clock services use unless injected).
  static std::shared_ptr<SteadyClock> instance();
};

/// Deterministic manual clock for tests: starts at a fixed epoch and
/// only moves when advanced. Safe to advance from one thread while
/// others read now().
class FakeClock : public Clock {
 public:
  FakeClock() = default;

  TimePoint now() const override;

  /// Moves the clock forward (negative durations are rejected).
  void advance(Duration by);

 private:
  // Offset from the fixed epoch, in steady_clock ticks. advance() is
  // acq_rel and now() is acquire: a thread that observes the new time
  // also observes every write the advancing test made before advancing —
  // so "set up state, then advance past the deadline" publishes the
  // state to whichever worker wakes on the deadline.
  std::atomic<Duration::rep> offset_{0};
};

}  // namespace spinsim
