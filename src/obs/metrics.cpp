#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <vector>

namespace rdv::obs {

namespace {

/// Monotonic per-thread ids spread threads across stripes; the first
/// kStripes threads get distinct stripes, later ones wrap.
std::atomic<std::size_t> next_thread_slot{0};

std::size_t acquire_thread_slot() noexcept {
  return next_thread_slot.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

}  // namespace

std::size_t thread_stripe() noexcept {
  thread_local const std::size_t slot = acquire_thread_slot();
  return slot;
}

std::size_t histogram_bucket(std::uint64_t value) noexcept {
  // bit_width(v) is 0..64; the top two widths share the last bucket so
  // the array stays a power of two.
  return std::min<std::size_t>(static_cast<std::size_t>(std::bit_width(value)),
                               kHistogramBuckets - 1);
}

std::uint64_t now_micros() noexcept {
  // One process-wide epoch: the first call pins t=0, every later call
  // (metrics and trace alike) is micros since then.
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void Registry::register_source(std::string name, SnapshotSource source) {
  std::lock_guard lock(mutex_);
  sources_[std::move(name)] = std::move(source);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  // Sources are copied under the mutex but INVOKED outside it: they
  // read subsystem stats behind subsystem locks (cache stores, pool
  // sleep mutex), all of which rank BELOW the registry mutex — calling
  // them with the registry locked was the lock-order inversion the
  // RDV_CHECKED rank checker flagged when it first ran.
  std::vector<SnapshotSource> sources;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [name, c] : counters_) out.counters[name] = c->value();
    for (const auto& [name, g] : gauges_) out.gauges[name] = g->value();
    for (const auto& [name, h] : histograms_) {
      out.histograms[name] = h->snapshot();
    }
    sources.reserve(sources_.size());
    for (const auto& [name, source] : sources_) sources.push_back(source);
  }
  for (const SnapshotSource& source : sources) source(out);
  return out;
}

void Registry::reset_for_tests() {
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
  sources_.clear();
}

Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}

Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}

Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

}  // namespace rdv::obs
