#pragma once

#include <cstdint>

/// Shared snapshot vocabulary for the tiered lookup structures:
/// `cache::StoreStats` (the in-memory compute-once store) and
/// `store::DiskStats` (the persistent tier) both extend this one
/// struct, so anything that aggregates tier counters (the metrics
/// registry bridges, `rdv_metrics dump`) speaks TierStats regardless of
/// which tier produced the numbers.
namespace rdv::obs {

/// Hit/miss/byte counters of one lookup tier. `bytes` is the tier's
/// primary byte axis: resident payload bytes for a memory tier, bytes
/// read (served) for a disk tier.
struct TierStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes = 0;

  TierStats& operator+=(const TierStats& other) noexcept {
    hits += other.hits;
    misses += other.misses;
    bytes += other.bytes;
    return *this;
  }
};

}  // namespace rdv::obs
