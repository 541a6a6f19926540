#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "obs/stats.hpp"
#include "support/check.hpp"

/// Compute-once store — the concurrency engine behind ArtifactCache.
/// Generic over (Key, Value) so each artifact kind gets its own
/// instance with its own statistics.
namespace rdv::cache {

/// Counters for one store; snapshot via MemoStore::stats(). The
/// hits/misses/bytes vocabulary is the shared obs::TierStats (`bytes`
/// = resident approximate payload bytes).
struct StoreStats : obs::TierStats {
  /// Resident (computed) entries; keys still in flight do not count.
  std::uint64_t entries = 0;
};

/// One mutex and one map from key to the future of its value: a
/// resident entry is a ready future, an in-flight one a pending future.
/// Entries live as long as the store; values are handed out as
/// shared_ptr<const V>.
///
/// Concurrency contract: a missing key is computed exactly once, OUTSIDE
/// the lock. The first requester registers the key's future under the
/// lock, releases it, and computes; concurrent requests for that key
/// wait on the future (and count as hits), while requests for other
/// keys proceed unblocked — a seconds-long UXS verification never
/// stalls the store. The compute callback must not reenter the same
/// store (other stores are fine — ArtifactCache's quotient store calls
/// into its view store).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class MemoStore {
 public:
  /// When `enabled` is false the store never retains anything: every
  /// request computes a fresh value and counts as a miss (the
  /// determinism baseline for cache-off runs).
  explicit MemoStore(bool enabled = true) : enabled_(enabled) {}

  /// Returns the value for key, computing it on the first request.
  /// `size_of` estimates resident payload bytes for the stats. A
  /// throwing compute propagates to the computing caller and every
  /// waiter, and leaves nothing cached: the next request computes
  /// again. Templated over the callables so the hot hit path pays no
  /// type erasure and no promise allocation.
  template <typename Compute, typename SizeOf>
  std::shared_ptr<const Value> get_or_compute(const Key& key,
                                              Compute&& compute,
                                              SizeOf&& size_of) {
    if (!enabled_) {
      auto value = std::make_shared<const Value>(compute());
      std::lock_guard lock(mutex_);
      ++misses_;
      return value;
    }
    std::optional<std::promise<Ptr>> promise;
    std::shared_future<Ptr> found;
    {
      std::lock_guard lock(mutex_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        ++hits_;
        found = it->second;
      } else {
        promise.emplace();
        map_.emplace(key, promise->get_future().share());
        ++misses_;
      }
    }
    // Resident or being computed by another caller: read (or wait for)
    // its future unlocked.
    if (found.valid()) return found.get();
    Ptr value;
    std::uint64_t bytes = 0;
    try {
      value = std::make_shared<const Value>(compute());
      bytes = size_of(*value);
    } catch (...) {
      {
        std::lock_guard lock(mutex_);
        map_.erase(key);
      }
      promise->set_exception(std::current_exception());
      throw;
    }
    {
      std::lock_guard lock(mutex_);
      ++entries_;
      bytes_ += bytes;
    }
    promise->set_value(value);
    return value;
  }

  [[nodiscard]] StoreStats stats() const {
    std::lock_guard lock(mutex_);
    StoreStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.bytes = bytes_;
    stats.entries = entries_;
    return stats;
  }

 private:
  using Ptr = std::shared_ptr<const Value>;

  mutable support::RankedMutex mutex_{support::LockRank::kCacheShard};
  std::unordered_map<Key, std::shared_future<Ptr>, Hash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t entries_ = 0;
  std::uint64_t bytes_ = 0;
  bool enabled_;
};

}  // namespace rdv::cache
