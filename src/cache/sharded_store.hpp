#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/stats.hpp"
#include "support/check.hpp"

/// Sharded, mutex-per-shard LRU store — the concurrency engine behind
/// ArtifactCache. Generic over (Key, Value) so each artifact kind gets
/// its own instance with its own statistics.
namespace rdv::cache {

/// Counters for one store; snapshot via ShardedLruStore::stats(). The
/// hits/misses/bytes vocabulary is the shared obs::TierStats (`bytes`
/// = currently resident approximate payload bytes); this adds the
/// memory-tier-only fields. Evicted values stay alive while callers
/// hold their shared_ptr, but stop counting under entries/bytes.
struct StoreStats : obs::TierStats {
  std::uint64_t evictions = 0;
  /// Currently resident entries.
  std::uint64_t entries = 0;
};

/// Values are handed out as shared_ptr<const V>: eviction never
/// invalidates a pointer a caller already holds; it only drops the
/// store's own reference.
///
/// Concurrency contract: a missing key is computed exactly once, OUTSIDE
/// the shard lock. The first requester registers an in-flight future
/// under the lock, releases it, and computes; concurrent requests for
/// the same key wait on that future, while requests for other keys of
/// the same shard (hits and misses alike) proceed unblocked — a
/// seconds-long UXS verification never stalls the shard. The compute
/// callback must not reenter the same store (other stores are fine —
/// ArtifactCache's quotient store calls into its view store).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruStore {
 public:
  /// `shards` concurrent stripes of up to `capacity_per_shard` entries
  /// each (both clamped to >= 1). When `enabled` is false the store
  /// never retains anything: every request computes a fresh value and
  /// counts as a miss (the determinism baseline for cache-off runs).
  ShardedLruStore(std::size_t shards, std::size_t capacity_per_shard,
                  bool enabled = true)
      : shards_(std::max<std::size_t>(1, shards)),
        capacity_per_shard_(std::max<std::size_t>(1, capacity_per_shard)),
        enabled_(enabled) {}

  /// Returns the cached value for key, or computes, stores, and returns
  /// it. `size_of` estimates resident payload bytes for the stats.
  /// In-flight waiters count as hits (they share the single compute);
  /// a throwing compute propagates to the computing caller and every
  /// waiter, and leaves nothing cached. Templated over the callables so
  /// the hot hit path pays no type erasure and no promise allocation.
  template <typename Compute, typename SizeOf>
  std::shared_ptr<const Value> get_or_compute(const Key& key,
                                              Compute&& compute,
                                              SizeOf&& size_of) {
    Shard& shard = shard_for(key);
    if (!enabled_) {
      auto value = std::make_shared<const Value>(compute());
      std::lock_guard lock(shard.mutex);
      ++shard.misses;
      return value;
    }
    std::optional<std::promise<std::shared_ptr<const Value>>> promise;
    std::shared_future<std::shared_ptr<const Value>> pending;
    {
      std::lock_guard lock(shard.mutex);
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        ++shard.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
        return it->second.value;
      }
      auto in_flight = shard.in_flight.find(key);
      if (in_flight != shard.in_flight.end()) {
        ++shard.hits;
        pending = in_flight->second;
      } else {
        ++shard.misses;
        promise.emplace();
        shard.in_flight.emplace(key, promise->get_future().share());
      }
    }
    // Another caller is computing this key: wait for it unlocked.
    if (pending.valid()) return pending.get();
    // Compute with the shard unlocked: other keys of this shard stay
    // serviceable for the whole (possibly long) computation. Any
    // failure up to and including insertion must resolve the promise,
    // or waiters on the in-flight future would hang forever.
    std::shared_ptr<const Value> value;
    try {
      value = std::make_shared<const Value>(compute());
      const std::uint64_t bytes = size_of(*value);
      std::lock_guard lock(shard.mutex);
      shard.in_flight.erase(key);
      shard.lru.push_front(key);
      try {
        shard.map.emplace(key, Entry{value, shard.lru.begin(), bytes});
      } catch (...) {
        shard.lru.pop_front();
        throw;
      }
      shard.bytes += bytes;
      while (shard.map.size() > capacity_per_shard_) {
        const Key& victim = shard.lru.back();
        auto victim_it = shard.map.find(victim);
        RDV_CHECK_MSG(victim_it != shard.map.end(),
                      "LRU victim missing from shard map");
        RDV_CHECK_MSG(shard.bytes >= victim_it->second.bytes,
                      "shard byte accounting underflow");
        shard.bytes -= victim_it->second.bytes;
        shard.map.erase(victim_it);
        shard.lru.pop_back();
        ++shard.evictions;
      }
    } catch (...) {
      {
        std::lock_guard lock(shard.mutex);
        shard.in_flight.erase(key);
      }
      promise->set_exception(std::current_exception());
      throw;
    }
    promise->set_value(value);
    return value;
  }

  [[nodiscard]] StoreStats stats() const {
    StoreStats total;
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      total.hits += shard.hits;
      total.misses += shard.misses;
      total.evictions += shard.evictions;
      total.entries += shard.map.size();
      total.bytes += shard.bytes;
    }
    return total;
  }

  /// Drops every resident entry (counters are kept).
  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      shard.map.clear();
      shard.lru.clear();
      shard.bytes = 0;
    }
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

 private:
  struct Entry {
    std::shared_ptr<const Value> value;
    typename std::list<Key>::iterator lru_it;
    std::uint64_t bytes = 0;
  };

  struct Shard {
    mutable support::RankedMutex mutex{support::LockRank::kCacheShard};
    std::unordered_map<Key, Entry, Hash> map;
    /// Keys being computed right now; requesters wait on the future.
    std::unordered_map<Key, std::shared_future<std::shared_ptr<const Value>>,
                       Hash>
        in_flight;
    /// Front = most recently used; back = eviction victim.
    std::list<Key> lru;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;
  };

  Shard& shard_for(const Key& key) {
    // Re-scramble the hash so stores keyed by small integers (UXS sizes)
    // still spread across shards.
    std::uint64_t h = Hash{}(key) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    return shards_[h % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::size_t capacity_per_shard_;
  bool enabled_;
};

}  // namespace rdv::cache
