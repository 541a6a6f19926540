#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "support/check.hpp"

/// Process-wide metrics registry (ISSUE 7 tentpole).
///
/// Three primitives, all safe to bump from any thread with no lock on
/// the hot path:
///
///  - Counter: monotonically increasing uint64, sharded across
///    cache-line-padded per-thread stripes (relaxed fetch_add on the
///    caller's stripe; no CAS loops, no mutex). value() sums the
///    stripes — summation is commutative, so the merged total is
///    DETERMINISTIC for a given set of increments no matter how many
///    threads issued them or which stripes they landed on.
///  - Gauge: a point-in-time int64 (queue depth, resident bytes);
///    set/add are single relaxed atomics, last-writer-wins.
///  - Histogram: fixed 64-bucket log2 latency histogram (bucket b
///    counts values v with bit_width(v) == b, i.e. v in [2^(b-1),
///    2^b)); buckets and the count/sum tallies are striped like
///    counters, so concurrent observes merge deterministically too.
///
/// Handles returned by Registry::{counter,gauge,histogram} are stable
/// for the registry's lifetime: resolve once (function-local static /
/// member), bump forever. Name lookup takes the registry mutex — never
/// resolve per event on a hot path.
///
/// Every process-wide count is a Counter here (sim.*, sweep.*, pool.*,
/// views.*, uxs.*); a series CI asserts at 0 is registered when its
/// subsystem loads, so it appears in every snapshot. Per-instance
/// stats (the artifact cache's per-kind tallies, the disk store's
/// atomics) are bridged via register_source: a source callback
/// contributes series to every snapshot, reading the instance's
/// existing accessors, so those structs stay the single source of
/// truth — no double bookkeeping — while the snapshot still carries
/// one unified namespace (cache.*, store.*, pool.*, sweep.*, exp.*).
///
/// Observability is SIDECAR-ONLY by contract: nothing in this layer
/// writes to stdout, and recording metrics must never change a
/// result byte (asserted end-to-end in tests/obs_test.cpp and CI).
namespace rdv::obs {

/// Stripes per metric. Threads hash onto stripes by a per-thread id,
/// so concurrent bumps from different threads usually touch different
/// cache lines; 16 covers the pool sizes the benches drive (64-thread
/// runs contend mildly, never block).
inline constexpr std::size_t kStripes = 16;

/// Buckets of the log2 histogram: bucket 0 counts value 0, bucket b
/// (1..63) counts values with bit_width b.
inline constexpr std::size_t kHistogramBuckets = 64;

/// The calling thread's stripe slot (stable for the thread's life).
[[nodiscard]] std::size_t thread_stripe() noexcept;

namespace detail {
struct alignas(64) StripeCell {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace detail

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cells_[thread_stripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  /// Test isolation; not linearizable against concurrent adds.
  void reset() noexcept {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::StripeCell, kStripes> cells_;
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Deterministically mergeable histogram snapshot — also the parsed
/// form rdv_metrics works with.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Mean observed value (0 when empty) — the series the perf-trend
  /// gate compares against its baseline band.
  [[nodiscard]] double mean() const noexcept {
    return count == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// log2 bucket index of a value (0 -> 0, v -> bit_width(v)).
[[nodiscard]] std::size_t histogram_bucket(std::uint64_t value) noexcept;

class Histogram {
 public:
  void observe(std::uint64_t value) noexcept {
    const std::size_t stripe = thread_stripe();
    Stripe& s = stripes_[stripe];
    s.buckets[histogram_bucket(value)].fetch_add(1,
                                                 std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot out;
    for (const Stripe& s : stripes_) {
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += s.sum.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
      }
    }
    return out;
  }
  /// Test isolation; not linearizable against concurrent observes.
  void reset() noexcept {
    for (Stripe& s : stripes_) {
      for (auto& bucket : s.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

/// One merged, name-sorted view of every metric (std::map keeps the
/// rendering deterministic given identical values).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Snapshot contributor for subsystems with their own counters. Called
/// OUTSIDE the registry mutex (the registry mutex ranks above the
/// subsystem locks a source takes — cache stores, pool sleep — so
/// holding it across the callback would invert the lock order the
/// RDV_CHECKED rank checker enforces); concurrent snapshots may invoke
/// a source concurrently, so sources must only read thread-safe
/// accessors. Must not register new metrics or sources.
using SnapshotSource = std::function<void(MetricsSnapshot&)>;

class Registry {
 public:
  /// The process-wide registry (what the free helpers below use).
  static Registry& instance();

  /// Named handle, created on first use; stable address for the
  /// registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Registers (or replaces — registration is idempotent by name) a
  /// snapshot source contributing subsystem-owned series.
  void register_source(std::string name, SnapshotSource source);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Test isolation: zeroes every counter/gauge/histogram and drops
  /// the sources. Metric OBJECTS survive — handles cached in static
  /// locals across the codebase stay valid.
  void reset_for_tests();

 private:
  mutable support::RankedMutex mutex_{support::LockRank::kObsRegistry};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, SnapshotSource> sources_;
};

/// Process-registry conveniences (resolve once, bump forever).
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Microseconds on the process-wide steady clock (also the trace
/// timebase, so metrics and trace timestamps line up).
[[nodiscard]] std::uint64_t now_micros() noexcept;

/// RAII: observes the scope's wall-clock micros into a histogram.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& hist) noexcept
      : hist_(hist), start_(now_micros()) {}
  ~ScopedLatency() { hist_.observe(now_micros() - start_); }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& hist_;
  std::uint64_t start_;
};

}  // namespace rdv::obs
