#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "obs/stats.hpp"
#include "store/codec.hpp"

/// Content-addressed, crash-safe on-disk artifact store (ISSUE 4
/// tentpole) — the persistent second tier behind cache::ArtifactCache.
///
/// Layout: one subdirectory per artifact kind under the root, one file
/// per key (`<root>/<kind>/<key>.bin`). Each file carries a header
/// (magic, format version, build salt, kind, key echo, payload size,
/// payload checksum) followed by the codec payload; loads verify every
/// header field and the checksum, and ANY mismatch — corruption,
/// truncation, a stale format version, a different build salt, a hash
/// collision on the key — degrades to a miss so the caller recomputes
/// (and rewrites) instead of trusting stale bytes. Writes are
/// write-temp-fsync-then-rename: the temp file's data reaches the
/// device BEFORE the rename makes it visible (a rename alone only
/// orders metadata — a crash could otherwise publish a zero-length or
/// partial final file), so a crash mid-write leaves at most a stray
/// temp file, never a torn final file, and two processes racing on one
/// key atomically settle on one complete file. On platforms without
/// fsync the write degrades to flush-then-rename.
namespace rdv::store {

/// On-disk format version; bump when the header or any codec changes.
/// Version 2 stores the all-pairs Shrink table at 1, 2 or 4 bytes per
/// cell; a version 1 file is a version mismatch, recomputed and
/// rewritten.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Ties stored artifacts to the generation of the code that produced
/// them: bump when artifact SEMANTICS change (corpus definition, UXS
/// seed, refinement order...) so stale stores fall back to recompute.
/// RDV_STORE_SALT overrides for experiments.
inline constexpr const char* kDefaultBuildSalt = "rdv-artifacts-v1";

/// Per-kind counters; snapshot via DiskStore::stats(). The
/// hits/misses/bytes core is the shared obs::TierStats — the same
/// snapshot vocabulary as cache::StoreStats, so tier-efficiency
/// consumers (the metrics registry bridge, rdv_metrics) handle both
/// uniformly. For this disk tier, inherited `bytes` counts bytes READ
/// (header + payload served on hits); this adds the disk-only fields.
struct DiskStats : obs::TierStats {
  /// Subsets of misses, mutually exclusive: `corrupt` counts files
  /// that failed validation (bad magic, checksum, truncation, codec
  /// error, foreign key echo); `version_mismatch` counts well-formed
  /// files carrying another format version or build salt.
  std::uint64_t corrupt = 0;
  std::uint64_t version_mismatch = 0;
  std::uint64_t writes = 0;
  std::uint64_t write_failures = 0;
  std::uint64_t bytes_written = 0;
};

struct DiskConfig {
  /// Root directory; created (with the per-kind subdirectories) on
  /// construction.
  std::string root;
  std::string build_salt = kDefaultBuildSalt;
  /// When true, save() is a no-op (shared stores on read-only media).
  bool read_only = false;
  /// Test-only failure injection: called at each durable-write stage
  /// ("open", "write", "sync", "close"); returning true fails that
  /// stage. Lets tests pin that the temp file is never renamed into
  /// place unless every stage — including the pre-rename fsync — came
  /// back clean, without needing a real disk fault.
  std::function<bool(const char* stage)> fail_stage;
};

/// Thread-safe (and multi-process-safe: atomicity comes from POSIX
/// rename, not locks). Keys must be filename-safe; the ArtifactCache
/// derives them from fingerprints/sizes, never from user input.
class DiskStore {
 public:
  explicit DiskStore(DiskConfig config);

  /// The validated payload for (kind, key), or nullopt on any miss
  /// (absent, torn, corrupt, version/salt mismatch, foreign key echo).
  [[nodiscard]] std::optional<std::string> load(Kind kind,
                                               const std::string& key);

  /// Persists the payload under (kind, key) atomically. Returns false
  /// (and counts a write failure) when the filesystem refuses; the
  /// store stays usable — persistence is an optimization, never a
  /// correctness dependency.
  bool save(Kind kind, const std::string& key, std::string_view payload);

  [[nodiscard]] DiskStats stats(Kind kind) const;
  /// Sum over all kinds.
  [[nodiscard]] DiskStats total_stats() const;

  [[nodiscard]] const DiskConfig& config() const noexcept { return config_; }

  /// Final path of (kind, key) — exposed for tests that corrupt files.
  [[nodiscard]] std::string path_for(Kind kind,
                                     const std::string& key) const;

 private:
  struct AtomicStats {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> corrupt{0};
    std::atomic<std::uint64_t> version_mismatch{0};
    std::atomic<std::uint64_t> writes{0};
    std::atomic<std::uint64_t> write_failures{0};
    std::atomic<std::uint64_t> bytes_read{0};
    std::atomic<std::uint64_t> bytes_written{0};
  };

  DiskConfig config_;
  AtomicStats stats_[kKindCount];
  std::atomic<std::uint64_t> temp_seq_{0};
};

}  // namespace rdv::store
