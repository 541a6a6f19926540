#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "store/codec.hpp"

/// Compact binary sweep-result log (ISSUE 4 tentpole) — the
/// "millions-of-STICs" alternative to per-experiment CSV/JSON files.
///
/// One log holds the full result stream of an `rdv_bench` run: a file
/// header (magic, format version) followed by one length-prefixed,
/// checksummed record per experiment (id, scale, wall-clock, sweep
/// counters, output schema, every table row). Records are framed
/// independently, so a torn or corrupt record is detected at its exact
/// boundary; read_result_log is deliberately STRICT — any damage
/// anywhere throws rather than returning a silently partial log — and
/// is the round-trip verifier behind `rdv_bench --result-log --check`.
namespace rdv::store {

inline constexpr std::uint32_t kResultLogVersion = 1;

/// One experiment's result as logged.
struct ResultRecord {
  std::string experiment_id;
  std::string scale;
  /// Wall-clock of run_experiment; scheduling-dependent, excluded from
  /// the byte-identity comparisons (those cover the TABLES).
  std::uint64_t wall_micros = 0;
  std::uint64_t items_total = 0;
  std::uint64_t items_produced = 0;
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

/// Streaming writer; one record per append(), flushed per record so a
/// crash loses at most the record being written.
class ResultLogWriter {
 public:
  /// Truncates and writes the file header. ok() reports failures —
  /// logging is best-effort, never fatal to the run.
  explicit ResultLogWriter(const std::string& path);

  void append(const ResultRecord& record);

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t records_written() const noexcept {
    return records_;
  }

 private:
  std::ofstream out_;
  bool ok_ = false;
  std::size_t records_ = 0;
};

/// Parses a complete log. Throws CodecError on a bad header, a torn or
/// corrupt record, or trailing garbage — the strictness --check needs.
[[nodiscard]] std::vector<ResultRecord> read_result_log(
    const std::string& path);

/// Deterministic byte rendering of one record (the framed payload,
/// without the length/checksum envelope) — reused by the writer and by
/// tests pinning the format.
[[nodiscard]] std::string encode_result_record(const ResultRecord& record);
[[nodiscard]] ResultRecord decode_result_record(std::string_view bytes);

}  // namespace rdv::store
