#include "store/result_log.hpp"

#include <algorithm>
#include <optional>

#include "store/input_file.hpp"

namespace rdv::store {

namespace {

constexpr char kLogMagic[4] = {'R', 'D', 'V', 'L'};

}  // namespace

std::string encode_result_record(const ResultRecord& record) {
  Encoder e;
  e.str(record.experiment_id);
  e.str(record.scale);
  e.u64(record.wall_micros);
  e.u64(record.items_total);
  e.u64(record.items_produced);
  e.u64(record.headers.size());
  for (const std::string& h : record.headers) e.str(h);
  e.u64(record.rows.size());
  for (const std::vector<std::string>& row : record.rows) {
    e.u64(row.size());
    for (const std::string& cell : row) e.str(cell);
  }
  return e.take();
}

ResultRecord decode_result_record(std::string_view bytes) {
  Decoder d(bytes);
  ResultRecord r;
  r.experiment_id = d.str();
  r.scale = d.str();
  r.wall_micros = d.u64();
  r.items_total = d.u64();
  r.items_produced = d.u64();
  const std::uint64_t headers = d.u64();
  if (headers > d.remaining()) throw CodecError("header count past end");
  r.headers.reserve(headers);
  for (std::uint64_t i = 0; i < headers; ++i) r.headers.push_back(d.str());
  const std::uint64_t rows = d.u64();
  if (rows > d.remaining()) throw CodecError("row count past end");
  r.rows.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::uint64_t cells = d.u64();
    if (cells > d.remaining()) throw CodecError("cell count past end");
    std::vector<std::string> row;
    row.reserve(cells);
    for (std::uint64_t c = 0; c < cells; ++c) row.push_back(d.str());
    r.rows.push_back(std::move(row));
  }
  d.finish();
  return r;
}

ResultLogWriter::ResultLogWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) return;
  Encoder e;
  e.u32(kResultLogVersion);
  out_.write(kLogMagic, 4);
  const std::string header = e.take();
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.flush();
  ok_ = out_.good();
}

void ResultLogWriter::append(const ResultRecord& record) {
  if (!ok_) return;
  const std::string payload = encode_result_record(record);
  Encoder frame;
  frame.u64(payload.size());
  frame.u64(checksum(payload));
  const std::string head = frame.take();
  out_.write(head.data(), static_cast<std::streamsize>(head.size()));
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out_.flush();
  ok_ = out_.good();
  if (ok_) ++records_;
}

std::vector<ResultRecord> read_result_log(const std::string& path) {
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes.has_value()) throw CodecError("result log unreadable: " + path);
  if (bytes->size() < 4 ||
      !std::equal(kLogMagic, kLogMagic + 4, bytes->data())) {
    throw CodecError("result log: bad magic");
  }
  Decoder d(std::string_view(*bytes).substr(4));
  const std::uint32_t version = d.u32();
  if (version != kResultLogVersion) {
    throw CodecError("result log: format version mismatch");
  }
  std::vector<ResultRecord> records;
  while (d.remaining() > 0) {
    const std::uint64_t size = d.u64();
    const std::uint64_t sum = d.u64();
    if (size > d.remaining()) throw CodecError("result log: torn record");
    const std::string_view payload = d.view(size);
    if (checksum(payload) != sum) {
      throw CodecError("result log: record checksum mismatch");
    }
    records.push_back(decode_result_record(payload));
  }
  return records;
}

}  // namespace rdv::store
