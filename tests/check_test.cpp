// Tests for support/check.hpp (ISSUE 10): RDV_CHECK semantics in both
// build flavors, and the lock-rank checker catching a deliberately
// inverted acquisition order. The suite compiles in every matrix slot;
// the death tests arm only under RDV_CHECKED, and the zero-cost pins
// only when it is off — between the CI jobs both halves run.
#include "support/check.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>

#include "support/thread_pool.hpp"

namespace rdv::support {
namespace {

// ---------------------------------------------------------------- //
// RDV_CHECK semantics
// ---------------------------------------------------------------- //

// Compile-time pin: kCheckedBuild mirrors the build flag exactly.
#if defined(RDV_CHECKED)
static_assert(kCheckedBuild, "RDV_CHECKED build must set kCheckedBuild");
#else
static_assert(!kCheckedBuild, "plain build must not set kCheckedBuild");
#endif

TEST(Check, PassingCheckIsSilentInEveryBuild) {
  RDV_CHECK(1 + 1 == 2);
  RDV_CHECK_MSG(true, "never printed");
  SUCCEED();
}

#if defined(RDV_CHECKED)

TEST(CheckDeathTest, FailingCheckAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RDV_CHECK(2 + 2 == 5), "RDV_CHECK failed");
  EXPECT_DEATH(RDV_CHECK_MSG(false, "the message"), "the message");
}

TEST(Check, EnabledChecksEvaluateTheCondition) {
  int evaluations = 0;
  RDV_CHECK(++evaluations > 0);
  EXPECT_EQ(evaluations, 1);
}

#else

// The zero-cost pin: a disabled RDV_CHECK must not evaluate its
// condition — a side-effecting expression stays unexecuted, so checks
// are free to guard hot paths.
TEST(Check, DisabledChecksDoNotEvaluateTheCondition) {
  int evaluations = 0;
  RDV_CHECK(++evaluations > 0);
  RDV_CHECK_MSG(++evaluations > 0, "also unevaluated");
  EXPECT_EQ(evaluations, 0);
}

TEST(Check, DisabledFailingChecksDoNotAbort) {
  RDV_CHECK(false);
  RDV_CHECK_MSG(false, "ignored");
  SUCCEED();
}

#endif  // RDV_CHECKED

// ---------------------------------------------------------------- //
// Lock-rank checker
// ---------------------------------------------------------------- //

TEST(LockRank, AscendingAcquisitionIsLegal) {
  RankedMutex pool(LockRank::kPoolQueue);
  RankedMutex shard(LockRank::kCacheShard);
  RankedMutex ring(LockRank::kObsRing);
  {
    std::scoped_lock a(pool);
    std::scoped_lock b(shard);
    std::scoped_lock c(ring);
    if constexpr (kCheckedBuild) {
      EXPECT_EQ(held_rank_count(), 3u);
    } else {
      EXPECT_EQ(held_rank_count(), 0u);
    }
  }
  EXPECT_EQ(held_rank_count(), 0u);
}

TEST(LockRank, ReacquisitionAfterReleaseIsLegal) {
  RankedMutex shard(LockRank::kCacheShard);
  for (int i = 0; i < 3; ++i) {
    std::lock_guard lock(shard);
  }
  // Same rank on DIFFERENT mutexes is fine sequentially too (the cache
  // stats loop locks every shard one after another).
  RankedMutex other(LockRank::kCacheShard);
  {
    std::lock_guard lock(other);
  }
  SUCCEED();
}

TEST(LockRank, NonLifoReleaseIsTracked) {
  RankedMutex pool(LockRank::kPoolQueue);
  RankedMutex shard(LockRank::kCacheShard);
  std::unique_lock a(pool);
  std::unique_lock b(shard);
  a.unlock();  // release the OLDER rank first
  b.unlock();
  EXPECT_EQ(held_rank_count(), 0u);
}

TEST(LockRank, RanksAreThreadLocal) {
  // A rank held on this thread must not constrain another thread.
  RankedMutex ring(LockRank::kObsRing);
  RankedMutex pool(LockRank::kPoolQueue);
  std::scoped_lock high(ring);
  std::thread other([&] {
    std::scoped_lock low(pool);  // fresh stack: legal
  });
  other.join();
  SUCCEED();
}

#if defined(RDV_CHECKED)

// THE death test: acquiring against the global order (a cache-shard
// lock while already holding an obs-ring-rank lock) must abort with a
// diagnostic naming both ranks — this is a schedule-independent
// deadlock catch, it fires on the very first inverted acquisition.
TEST(LockRankDeathTest, InvertedAcquisitionOrderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        RankedMutex ring(LockRank::kObsRing);
        RankedMutex shard(LockRank::kCacheShard);
        std::scoped_lock a(ring);
        std::scoped_lock b(shard);  // obs_ring -> cache_shard: inverted
      },
      "lock-rank violation.*acquiring cache_shard.*holding obs_ring");
}

TEST(LockRankDeathTest, SameRankNestingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two locks of one rank class may never nest (two cache shards held
  // together would deadlock against the opposite interleaving).
  EXPECT_DEATH(
      {
        RankedMutex a(LockRank::kCacheShard);
        RankedMutex b(LockRank::kCacheShard);
        std::scoped_lock la(a);
        std::scoped_lock lb(b);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, ScopeAnnotationParticipates) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        LockRankScope scope(LockRank::kObsRegistry);
        RankedMutex pool(LockRank::kPoolQueue);
        std::scoped_lock lock(pool);  // below the annotated scope
      },
      "lock-rank violation");
}

TEST(LockRank, TryLockSuccessJoinsTheStack) {
  RankedMutex shard(LockRank::kCacheShard);
  ASSERT_TRUE(shard.try_lock());
  EXPECT_EQ(held_rank_count(), 1u);
  shard.unlock();
  EXPECT_EQ(held_rank_count(), 0u);
}

#else

TEST(LockRank, UncheckedBuildAllowsAnyOrder) {
  // Without RDV_CHECKED the wrapper is a plain mutex: the inverted
  // order must NOT abort (and costs nothing).
  RankedMutex ring(LockRank::kObsRing);
  RankedMutex shard(LockRank::kCacheShard);
  std::scoped_lock a(ring);
  std::scoped_lock b(shard);
  EXPECT_EQ(held_rank_count(), 0u);
}

#endif  // RDV_CHECKED

// The substrate wiring smoke: a nested sweep-shaped workload (pool
// tasks waiting on sub-tasks) runs clean under the checker — the
// rank discipline holds on real schedules, not just unit locks.
TEST(LockRank, PoolWorkAssistRunsCleanUnderChecker) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 8; ++i) {
    outer.submit([&pool, &done] {
      TaskGroup inner(pool);
      for (int j = 0; j < 4; ++j) {
        inner.submit([&done] {
          done.fetch_add(1, std::memory_order_relaxed);
        });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(done.load(), 32);
}

}  // namespace
}  // namespace rdv::support
