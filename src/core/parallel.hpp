/// \file parallel.hpp
/// Shared strided parallel-for used by every recognize_batch fan-out.
///
/// One place for the thread-count resolution (0 = hardware concurrency,
/// clamped to the item count), the serial fast path, and — unlike a
/// hand-rolled worker loop — exception safety: a throw inside a worker
/// is captured and rethrown on the calling thread after the join,
/// instead of calling std::terminate.

#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "core/sync.hpp"

namespace spinsim {

/// Minimum items a strided worker must receive before a fan-out is worth
/// its thread-spawn cost. Below this floor the per-item work (a few µs of
/// DAC/WTA arithmetic) is dwarfed by thread creation + join, which is how
/// `direct t=4 b=16` used to come out *slower* than `t=1`.
inline constexpr std::size_t kMinItemsPerThread = 16;

/// Resolves a user-facing thread-count knob: 0 picks the hardware
/// concurrency. The result is capped three ways: never more workers than
/// `items` (no idle workers), never more than the hardware concurrency
/// (oversubscribing a compute-bound strided loop only adds scheduler
/// overhead), and never so many that a worker would see fewer than
/// kMinItemsPerThread items (tiny batches run serial). Monotone in
/// `threads`, and always >= 1.
inline std::size_t resolve_threads(std::size_t threads, std::size_t items) {
  // Read once per process: the query costs microseconds, and this runs on
  // every recognize_batch.
  static const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (threads == 0 || threads > hw) {
    threads = hw;
  }
  const std::size_t by_work = items / kMinItemsPerThread;
  if (threads > by_work) {
    threads = by_work;
  }
  if (threads > items) {
    threads = items;
  }
  return threads == 0 ? 1 : threads;
}

/// Runs fn(i) for i in [0, items) across exactly min(threads, items)
/// workers — no work-size floor. For callers that already resolved the
/// worker count against a finer-grained measure than the loop's items
/// (e.g. a chunked dispatch resolving against the query count); everyone
/// else wants parallel_for_strided. Serial when one worker suffices; the
/// first exception thrown by any worker is rethrown here once all
/// workers have joined.
template <typename Fn>
void parallel_for_resolved(std::size_t items, std::size_t threads, Fn&& fn) {
  if (items == 0) {
    return;
  }
  if (threads > items) {
    threads = items;
  }
  if (threads <= 1) {
    for (std::size_t i = 0; i < items; ++i) {
      fn(i);
    }
    return;
  }

  std::exception_ptr error;
  Mutex error_mutex(LockRank::kParallelError);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < items; i += threads) {
          fn(i);
        }
      } catch (...) {
        LockGuard lock(error_mutex);
        if (!error) {
          error = std::current_exception();
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

/// Runs fn(i) for i in [0, items), striding the index space across
/// `threads` workers (resolved per resolve_threads, including the
/// work-size floor). Serial when one worker suffices.
template <typename Fn>
void parallel_for_strided(std::size_t items, std::size_t threads, Fn&& fn) {
  parallel_for_resolved(items, resolve_threads(threads, items), std::forward<Fn>(fn));
}

}  // namespace spinsim
