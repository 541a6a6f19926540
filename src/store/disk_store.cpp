#include "store/disk_store.hpp"

#if defined(_WIN32)
#include <process.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "store/input_file.hpp"
#include "support/check.hpp"

namespace rdv::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'R', 'D', 'V', 'S'};

std::size_t kind_index(Kind kind) noexcept {
  RDV_CHECK_MSG(static_cast<std::size_t>(kind) < kKindCount,
                "artifact kind out of range");
  return static_cast<std::size_t>(kind);
}

/// Bytes of the header save() writes for (kind, key) under `salt`:
/// magic, version, three length-prefixed strings, payload size and
/// checksum.
std::size_t header_size(std::string_view salt, std::string_view kind,
                        std::string_view key) noexcept {
  return 4 + 4 + (8 + salt.size()) + (8 + kind.size()) + (8 + key.size()) +
         8 + 8;
}

/// What a file's header says about the payload after it.
struct Header {
  std::uint64_t payload_size = 0;
  std::uint64_t payload_sum = 0;
};

/// Parses the header at the front of `bytes`; nullopt when it carries
/// another format version or build salt. Throws CodecError when it is
/// damaged, truncated or echoes another (kind, key).
std::optional<Header> parse_header(std::string_view bytes,
                                   std::string_view salt,
                                   std::string_view kind,
                                   std::string_view key) {
  if (bytes.size() < 4 || !std::equal(kMagic, kMagic + 4, bytes.data())) {
    throw CodecError("bad magic");
  }
  Decoder d(bytes.substr(4));
  const std::uint32_t version = d.u32();
  if (d.str_view() != salt || version != kFormatVersion) return std::nullopt;
  const std::string_view stored_kind = d.str_view();
  const std::string_view stored_key = d.str_view();
  if (stored_kind != kind || stored_key != key) {
    throw CodecError("foreign key echo");
  }
  Header h;
  h.payload_size = d.u64();
  h.payload_sum = d.u64();
  return h;
}

using FailStage = std::function<bool(const char*)>;

bool stage_fails(const FailStage& fail, const char* stage) {
  return fail && fail(stage);
}

#if !defined(_WIN32)
/// write(2) until every byte is out; false on the first error.
bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ::ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}
#endif

/// Writes `header` then `payload` to `path` and forces the DATA to the
/// device before returning true — the rename that follows only orders
/// metadata, so skipping the fsync could publish a zero-length or
/// partial final file after a crash. Any stage failing (or being
/// injected as a failure by the test hook) leaves the caller free to
/// unlink the temp and report a write failure; the rename must not
/// happen.
bool write_durable(const std::string& path, std::string_view header,
                   std::string_view payload, const FailStage& fail) {
#if defined(_WIN32)
  // No fsync here: degrade to flush-then-rename (crash-safety weakens
  // to "torn files are caught by the checksum on load"). The stage
  // sequence stays open;write;sync;close so the injection hook (and
  // the store_test pinning it) behaves identically.
  bool ok;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || stage_fails(fail, "open")) return false;
    for (const std::string_view part : {header, payload}) {
      out.write(part.data(), static_cast<std::streamsize>(part.size()));
    }
    ok = out.good() && !stage_fails(fail, "write");
    out.flush();
    if (ok && (!out.good() || stage_fails(fail, "sync"))) ok = false;
  }
  return ok && !stage_fails(fail, "close");
#else
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0 || stage_fails(fail, "open")) {
    if (fd >= 0) ::close(fd);
    return false;
  }
  bool ok = write_all(fd, header) && write_all(fd, payload);
  if (stage_fails(fail, "write")) ok = false;
  if (ok && (::fsync(fd) != 0 || stage_fails(fail, "sync"))) ok = false;
  if (::close(fd) != 0 || stage_fails(fail, "close")) ok = false;
  return ok;
#endif
}

long process_id() {
#if defined(_WIN32)
  return static_cast<long>(::_getpid());
#else
  return static_cast<long>(::getpid());
#endif
}

}  // namespace

DiskStore::DiskStore(DiskConfig config) : config_(std::move(config)) {
  // Best-effort directory creation: an unusable root degrades every
  // load to a miss and every save to a counted failure, it never
  // throws out of experiment setup.
  std::error_code ec;
  for (std::size_t k = 0; k < kKindCount; ++k) {
    fs::create_directories(
        fs::path(config_.root) / kind_name(static_cast<Kind>(k)), ec);
  }
}

std::string DiskStore::path_for(Kind kind, const std::string& key) const {
  return (fs::path(config_.root) / kind_name(kind) / (key + ".bin"))
      .string();
}

std::optional<std::string> DiskStore::load(Kind kind,
                                           const std::string& key) {
  AtomicStats& s = stats_[kind_index(kind)];
  const auto miss = [&s](std::atomic<std::uint64_t>* cause) {
    if (cause != nullptr) cause->fetch_add(1, std::memory_order_relaxed);
    s.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };
  InputFile file(path_for(kind, key));
  if (!file.is_open()) return miss(nullptr);
  s.bytes_read.fetch_add(file.size(), std::memory_order_relaxed);
  const std::string_view salt = config_.build_salt;
  const std::string_view name = kind_name(kind);
  // Read exactly the header save() writes for (kind, key), then the
  // payload straight into the buffer that is returned.
  const std::uint64_t head_size =
      std::min<std::uint64_t>(file.size(), header_size(salt, name, key));
  std::string head;
  if (!file.read_into(head, head_size)) return miss(nullptr);
  try {
    std::optional<Header> header;
    try {
      header = parse_header(head, salt, name, key);
    } catch (const CodecError&) {
      // A header longer than ours never serves this key, but one with
      // another build salt is a version mismatch, not corruption: judge
      // it on the whole file.
      if (!file.read_into(head, file.remaining()) ||
          parse_header(head, salt, name, key).has_value()) {
        throw;
      }
    }
    if (!header.has_value()) return miss(&s.version_mismatch);
    if (header->payload_size != file.remaining()) {
      throw CodecError("payload size mismatch");
    }
    std::string payload;
    if (!file.read_into(payload, file.remaining())) return miss(nullptr);
    if (checksum(payload) != header->payload_sum) {
      throw CodecError("payload checksum mismatch");
    }
    s.hits.fetch_add(1, std::memory_order_relaxed);
    return payload;
  } catch (const CodecError&) {
    return miss(&s.corrupt);
  }
}

bool DiskStore::save(Kind kind, const std::string& key,
                     std::string_view payload) {
  AtomicStats& s = stats_[kind_index(kind)];
  if (config_.read_only) return false;

  // Header only; the payload goes to the file as it is, after it.
  const std::string_view name = kind_name(kind);
  Encoder e(header_size(config_.build_salt, name, key));
  // The magic goes in raw so a hexdump identifies store files.
  e.raw(std::string_view(kMagic, 4));
  e.u32(kFormatVersion);
  e.str(config_.build_salt);
  e.str(name);
  e.str(key);
  e.u64(payload.size());
  e.u64(checksum(payload));
  const std::string header = e.take();

  const std::string final_path = path_for(kind, key);
  // Unique temp in the SAME directory (rename must not cross devices):
  // pid + store identity + per-store sequence keeps concurrent writers
  // — threads, several stores on one dir, and other processes — from
  // colliding on the temp name.
  std::ostringstream temp_name;
  temp_name << final_path << ".tmp." << process_id() << "."
            << reinterpret_cast<std::uintptr_t>(this) << "."
            << temp_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::string temp_path = temp_name.str();
  if (!write_durable(temp_path, header, payload, config_.fail_stage)) {
    s.write_failures.fetch_add(1, std::memory_order_relaxed);
    std::error_code ec;
    fs::remove(temp_path, ec);
    return false;
  }
  std::error_code ec;
  fs::rename(temp_path, final_path, ec);
  if (ec) {
    s.write_failures.fetch_add(1, std::memory_order_relaxed);
    fs::remove(temp_path, ec);
    return false;
  }
  s.writes.fetch_add(1, std::memory_order_relaxed);
  s.bytes_written.fetch_add(header.size() + payload.size(),
                            std::memory_order_relaxed);
  return true;
}

DiskStats DiskStore::stats(Kind kind) const {
  const AtomicStats& s = stats_[kind_index(kind)];
  DiskStats out;
  out.hits = s.hits.load(std::memory_order_relaxed);
  out.misses = s.misses.load(std::memory_order_relaxed);
  out.corrupt = s.corrupt.load(std::memory_order_relaxed);
  out.version_mismatch = s.version_mismatch.load(std::memory_order_relaxed);
  out.writes = s.writes.load(std::memory_order_relaxed);
  out.write_failures = s.write_failures.load(std::memory_order_relaxed);
  out.bytes = s.bytes_read.load(std::memory_order_relaxed);
  out.bytes_written = s.bytes_written.load(std::memory_order_relaxed);
  return out;
}

DiskStats DiskStore::total_stats() const {
  DiskStats total;
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const DiskStats s = stats(static_cast<Kind>(k));
    static_cast<obs::TierStats&>(total) += s;
    total.corrupt += s.corrupt;
    total.version_mismatch += s.version_mismatch;
    total.writes += s.writes;
    total.write_failures += s.write_failures;
    total.bytes_written += s.bytes_written;
  }
  return total;
}

}  // namespace rdv::store
