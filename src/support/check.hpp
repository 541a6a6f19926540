#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>

/// Debug invariant checks + lock-rank deadlock checker (ISSUE 10).
///
/// Two facilities, both compiled OUT unless the build defines
/// RDV_CHECKED (cmake -DRDV_CHECKED=ON):
///
///  - RDV_CHECK(cond) / RDV_CHECK_MSG(cond, msg): invariant assertions
///    that survive NDEBUG. Disabled they cost NOTHING — the condition
///    is not even evaluated (tests/check_test.cpp pins this at compile
///    time), so they are safe on hot paths that release builds must
///    not pay for.
///
///  - RankedMutex / LockRankScope: a per-thread lock-rank tracker.
///    Every mutex in the concurrent substrate carries a LockRank, and
///    checked builds abort the instant any thread acquires a lock
///    whose rank is not strictly greater than every rank it already
///    holds — the canonical deadlock-freedom discipline, enforced at
///    runtime on EVERY acquisition instead of only on schedules that
///    happen to deadlock. The global order follows the layer DAG:
///
///      pool queue < pool sleep < cache shard < store < obs registry
///                 < obs ring
///
///    i.e. code may call "down" the stack (a pool task locking a cache
///    shard, a shard compute appending to the result log, anything
///    recording into an obs ring) but never back "up" while still
///    holding the lower layer's lock. obs ranks are HIGHEST because
///    obs mutexes are leaves: instrumentation may be called from under
///    any subsystem lock, so nothing may be acquired beneath them.
///
/// This header is deliberately self-contained (std headers only, all
/// inline) so the obs layer — which sits BELOW support in the link DAG
/// and must not depend on rdv_support — can use it too; the invariant
/// linter (tools/lint_invariants.py) special-cases it as a layer-0
/// header for the same reason.
namespace rdv::support {

/// True in builds configured with -DRDV_CHECKED=ON.
#if defined(RDV_CHECKED)
inline constexpr bool kCheckedBuild = true;
#else
inline constexpr bool kCheckedBuild = false;
#endif

/// Global acquisition order; a thread may only acquire strictly
/// ascending ranks. Gaps leave room for future layers (rdv_serve).
enum class LockRank : std::uint32_t {
  kPoolQueue = 10,    ///< ThreadPool worker deques + shared queue.
  kPoolSleep = 20,    ///< ThreadPool epoch/sleep mutex (the park cv).
  kCacheShard = 30,   ///< ShardedLruStore per-shard mutexes.
  kObsRegistry = 50,  ///< obs metrics Registry name/source maps.
  kObsRing = 60,      ///< obs span/task-event rings + ring directories.
};

[[nodiscard]] inline const char* lock_rank_name(LockRank rank) noexcept {
  switch (rank) {
    case LockRank::kPoolQueue: return "pool_queue";
    case LockRank::kPoolSleep: return "pool_sleep";
    case LockRank::kCacheShard: return "cache_shard";
    case LockRank::kObsRegistry: return "obs_registry";
    case LockRank::kObsRing: return "obs_ring";
  }
  return "?";
}

/// Prints the failure and aborts. Out-of-line-ish (noinline would need
/// attributes; keeping it simple) — only reached on a violated
/// invariant, never on the success path.
[[noreturn]] inline void check_failed(const char* what, const char* file,
                                      int line) noexcept {
  std::fprintf(stderr, "RDV_CHECK failed at %s:%d: %s\n", file, line, what);
  std::fflush(stderr);
  std::abort();
}

#if defined(RDV_CHECKED)

#define RDV_CHECK(cond)                                                \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::rdv::support::check_failed(#cond, __FILE__, __LINE__);         \
    }                                                                  \
  } while (false)

#define RDV_CHECK_MSG(cond, msg)                                       \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::rdv::support::check_failed(msg " [" #cond "]", __FILE__,       \
                                   __LINE__);                          \
    }                                                                  \
  } while (false)

#else

// Disabled: the condition is swallowed UNEVALUATED (sizeof keeps it
// syntactically checked and its variables ODR-used, so -Werror builds
// do not trip -Wunused on check-only locals, while generating zero
// code).
#define RDV_CHECK(cond) \
  do {                  \
    (void)sizeof(cond); \
  } while (false)

#define RDV_CHECK_MSG(cond, msg) \
  do {                           \
    (void)sizeof(cond);          \
    (void)sizeof(msg);           \
  } while (false)

#endif  // RDV_CHECKED

namespace detail {

/// Deepest legal nesting of checked locks on one thread; generous —
/// the substrate holds at most two at once today.
inline constexpr std::size_t kMaxHeldRanks = 16;

/// The calling thread's stack of held ranks. Function-local
/// thread_local keeps this header self-contained (no .cpp).
struct HeldRanks {
  LockRank ranks[kMaxHeldRanks];
  std::size_t depth = 0;
};

inline HeldRanks& held_ranks() noexcept {
  thread_local HeldRanks held;
  return held;
}

/// Records an acquisition; aborts when `rank` is not strictly greater
/// than every rank the thread already holds.
inline void push_rank(LockRank rank, const char* file, int line) noexcept {
  HeldRanks& held = held_ranks();
  if (held.depth > 0) {
    const LockRank top = held.ranks[held.depth - 1];
    if (static_cast<std::uint32_t>(rank) <=
        static_cast<std::uint32_t>(top)) {
      std::fprintf(stderr,
                   "RDV lock-rank violation at %s:%d: acquiring %s(%u) "
                   "while holding %s(%u); ranks must strictly ascend "
                   "(pool_queue < pool_sleep < cache_shard < store < "
                   "obs_registry < obs_ring)\n",
                   file, line, lock_rank_name(rank),
                   static_cast<unsigned>(rank), lock_rank_name(top),
                   static_cast<unsigned>(top));
      std::fflush(stderr);
      std::abort();
    }
  }
  if (held.depth >= kMaxHeldRanks) {
    check_failed("lock-rank stack overflow", file, line);
  }
  held.ranks[held.depth++] = rank;
}

/// Releases the most recent hold of `rank`. Non-LIFO release is legal
/// (unique_lock::unlock before scope end): the topmost matching entry
/// is removed and entries above it shift down.
inline void pop_rank(LockRank rank) noexcept {
  HeldRanks& held = held_ranks();
  for (std::size_t i = held.depth; i > 0; --i) {
    if (held.ranks[i - 1] == rank) {
      for (std::size_t j = i - 1; j + 1 < held.depth; ++j) {
        held.ranks[j] = held.ranks[j + 1];
      }
      --held.depth;
      return;
    }
  }
  std::fprintf(stderr,
               "RDV lock-rank violation: releasing %s(%u) which this "
               "thread does not hold\n",
               lock_rank_name(rank), static_cast<unsigned>(rank));
  std::fflush(stderr);
  std::abort();
}

}  // namespace detail

/// The calling thread's current checked-lock nesting depth (0 when
/// RDV_CHECKED is off). Tests and RDV_CHECKs over "no lock held here"
/// contracts read this.
[[nodiscard]] inline std::size_t held_rank_count() noexcept {
  if constexpr (kCheckedBuild) {
    return detail::held_ranks().depth;
  } else {
    return 0;
  }
}

/// std::mutex that knows its place in the global acquisition order.
/// BasicLockable + Lockable, so std::lock_guard / std::unique_lock /
/// std::scoped_lock and std::condition_variable_any all work
/// unchanged. In unchecked builds every member call inlines to the
/// plain std::mutex operation — no rank storage is even kept.
class RankedMutex {
 public:
#if defined(RDV_CHECKED)
  explicit RankedMutex(LockRank rank) noexcept : rank_(rank) {}
#else
  explicit RankedMutex(LockRank rank) noexcept { (void)rank; }
#endif

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
#if defined(RDV_CHECKED)
    detail::push_rank(rank_, "lock", 0);
#endif
    mutex_.lock();
  }

  bool try_lock() {
    const bool locked = mutex_.try_lock();
#if defined(RDV_CHECKED)
    // try_lock may legally be attempted against the order (that is the
    // point of trying); only a SUCCESSFUL acquisition joins the stack,
    // and even that must respect the order — a successful out-of-order
    // try_lock still deadlocks the schedules where it blocks.
    if (locked) detail::push_rank(rank_, "try_lock", 0);
#endif
    return locked;
  }

  void unlock() {
#if defined(RDV_CHECKED)
    detail::pop_rank(rank_);
#endif
    mutex_.unlock();
  }

 private:
  std::mutex mutex_;
#if defined(RDV_CHECKED)
  LockRank rank_;
#endif
};

/// Annotation for lock-shaped critical sections that cannot switch to
/// RankedMutex (a std::mutex owned by third-party code, a file lock, a
/// future external resource): participates in the same per-thread rank
/// stack for the scope's lifetime. No-op unless RDV_CHECKED.
class LockRankScope {
 public:
#if defined(RDV_CHECKED)
  explicit LockRankScope(LockRank rank) noexcept : rank_(rank) {
    detail::push_rank(rank, "scope", 0);
  }
  ~LockRankScope() { detail::pop_rank(rank_); }
#else
  explicit LockRankScope(LockRank rank) noexcept { (void)rank; }
#endif

  LockRankScope(const LockRankScope&) = delete;
  LockRankScope& operator=(const LockRankScope&) = delete;

#if defined(RDV_CHECKED)
 private:
  LockRank rank_;
#endif
};

}  // namespace rdv::support
