/// Lock-rank registry: the runtime half of the src/core/sync.hpp story.
/// Clang Thread Safety proves acquisition discipline at compile time (see
/// tests/compile_fail/case_tsa_fail_*.cpp); these tests prove the
/// thread-local rank stack catches ordering violations at run time —
/// in-order nesting passes, out-of-order or same-rank nesting aborts,
/// and ranks come off the stack on unlock, scope exit, and exception
/// unwind alike.

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "core/sync.hpp"

namespace spinsim {
namespace {

/// Enables rank checks for one test and restores the previous setting —
/// the tier-1 Release build defaults them off.
class ScopedRankChecks {
 public:
  ScopedRankChecks() : previous_(lock_rank_checks_enabled()) {
    set_lock_rank_checks(true);
  }
  ~ScopedRankChecks() { set_lock_rank_checks(previous_); }

 private:
  const bool previous_;
};

TEST(Sync, InOrderAcquirePassesAndTracksDepth) {
  ScopedRankChecks checks;
  Mutex outer(LockRank::kServiceQueue);
  Mutex middle(LockRank::kShard);
  Mutex inner(LockRank::kServiceStats);
  EXPECT_EQ(sync_detail::rank_depth(), 0);
  {
    LockGuard a(outer);
    EXPECT_EQ(sync_detail::rank_depth(), 1);
    {
      LockGuard b(middle);
      LockGuard c(inner);
      EXPECT_EQ(sync_detail::rank_depth(), 3);
      EXPECT_TRUE(sync_detail::rank_held(static_cast<int>(LockRank::kShard)));
    }
    EXPECT_EQ(sync_detail::rank_depth(), 1);
  }
  EXPECT_EQ(sync_detail::rank_depth(), 0);
}

TEST(Sync, RanksReleasedOnException) {
  ScopedRankChecks checks;
  Mutex mutex(LockRank::kServiceStats);
  try {
    LockGuard lock(mutex);
    throw std::runtime_error("unwind through the guard");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(sync_detail::rank_depth(), 0);
  // The mutex is genuinely free again: relocking must not deadlock.
  LockGuard lock(mutex);
  EXPECT_EQ(sync_detail::rank_depth(), 1);
}

TEST(Sync, UniqueLockReleasesOnManualUnlockAndReacquires) {
  ScopedRankChecks checks;
  Mutex mutex(LockRank::kClientJoin);
  UniqueLock lock(mutex);
  EXPECT_TRUE(lock.owns_lock());
  EXPECT_EQ(sync_detail::rank_depth(), 1);
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  EXPECT_EQ(sync_detail::rank_depth(), 0);
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
  EXPECT_EQ(sync_detail::rank_depth(), 1);
}

TEST(Sync, NonLifoReleaseRemovesTheRightRank) {
  ScopedRankChecks checks;
  Mutex outer(LockRank::kServiceQueue);
  Mutex inner(LockRank::kShard);
  UniqueLock a(outer);
  UniqueLock b(inner);
  // Release the *outer* lock first (std::unique_lock permits it): the
  // inner rank must survive on the stack.
  a.unlock();
  EXPECT_EQ(sync_detail::rank_depth(), 1);
  EXPECT_TRUE(sync_detail::rank_held(static_cast<int>(LockRank::kShard)));
  EXPECT_FALSE(sync_detail::rank_held(static_cast<int>(LockRank::kServiceQueue)));
  b.unlock();
  EXPECT_EQ(sync_detail::rank_depth(), 0);
}

TEST(Sync, TryLockParticipatesInTheRankStack) {
  ScopedRankChecks checks;
  Mutex mutex(LockRank::kFaultSwitch);
  ASSERT_TRUE(mutex.try_lock());
  EXPECT_EQ(sync_detail::rank_depth(), 1);
  mutex.unlock();  // lint:allow(bare-lock) pairing the try_lock under test
  EXPECT_EQ(sync_detail::rank_depth(), 0);
}

TEST(Sync, EachThreadHasItsOwnRankStack) {
  ScopedRankChecks checks;
  Mutex mutex(LockRank::kServiceStats);
  LockGuard lock(mutex);
  bool other_thread_sees_empty = false;
  std::thread probe([&] {
    other_thread_sees_empty = sync_detail::rank_depth() == 0 &&
                              !sync_detail::rank_held(
                                  static_cast<int>(LockRank::kServiceStats));
  });
  probe.join();
  EXPECT_TRUE(other_thread_sees_empty);
}

TEST(Sync, SharedMutexRanksLikeExclusive) {
  ScopedRankChecks checks;
  SharedMutex mutex(LockRank::kParallelError);
  {
    SharedLockGuard reader(mutex);
    EXPECT_EQ(sync_detail::rank_depth(), 1);
  }
  EXPECT_EQ(sync_detail::rank_depth(), 0);
}

using SyncDeathTest = ::testing::Test;

TEST(SyncDeathTest, OutOfOrderAcquireAborts) {
  EXPECT_DEATH(
      {
        set_lock_rank_checks(true);
        Mutex stats(LockRank::kServiceStats);
        Mutex queue(LockRank::kServiceQueue);
        LockGuard a(stats);
        LockGuard b(queue);  // rank 10 under rank 30: inversion
      },
      "lock-rank violation");
}

TEST(SyncDeathTest, SameRankNestingAborts) {
  // Two shard mutexes held at once would let two dispatch paths deadlock
  // on each other — same rank is as forbidden as lower rank.
  EXPECT_DEATH(
      {
        set_lock_rank_checks(true);
        Mutex shard_a(LockRank::kShard);
        Mutex shard_b(LockRank::kShard);
        LockGuard a(shard_a);
        LockGuard b(shard_b);
      },
      "lock-rank violation");
}

TEST(SyncDeathTest, AssertHeldAbortsWhenNotHeld) {
  EXPECT_DEATH(
      {
        set_lock_rank_checks(true);
        Mutex mutex(LockRank::kServiceStats);
        mutex.assert_held();
      },
      "lock-rank violation");
}

TEST(SyncDeathTest, DisabledChecksSkipTheAbort) {
  // With checks off, the same inversion must pass silently (the
  // bookkeeping still runs) — this is what keeps release-mode overhead
  // at a relaxed load per lock. The death test asserts the *absence* of
  // an abort by exiting 0 afterwards.
  EXPECT_EXIT(
      {
        set_lock_rank_checks(false);
        Mutex stats(LockRank::kServiceStats);
        Mutex queue(LockRank::kServiceQueue);
        {
          LockGuard a(stats);
          LockGuard b(queue);
        }
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace spinsim
