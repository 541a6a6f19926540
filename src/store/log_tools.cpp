#include "store/log_tools.hpp"

#include <algorithm>
#include <sstream>

#include "support/table.hpp"

namespace rdv::store {

namespace {

support::Table record_table(const ResultRecord& r) {
  support::Table table(r.headers);
  for (const std::vector<std::string>& row : r.rows) table.add_row(row);
  return table;
}

}  // namespace

std::string render_log_csv(const std::vector<ResultRecord>& records,
                           bool include_wall) {
  std::ostringstream out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ResultRecord& r = records[i];
    if (i != 0) out << '\n';
    out << "# record " << i << ": " << r.experiment_id
        << " scale=" << r.scale << " items=" << r.items_produced << '/'
        << r.items_total;
    if (include_wall) out << " wall_us=" << r.wall_micros;
    out << '\n' << record_table(r).to_csv();
  }
  return std::move(out).str();
}

std::string render_log_json(const std::vector<ResultRecord>& records,
                            bool include_wall) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ResultRecord& r = records[i];
    if (i != 0) out << ",";
    std::string head = "\n  {\"experiment_id\": ";
    support::append_json_string(head, r.experiment_id);
    head += ", \"scale\": ";
    support::append_json_string(head, r.scale);
    out << head;
    if (include_wall) out << ", \"wall_micros\": " << r.wall_micros;
    out << ", \"items_total\": " << r.items_total
        << ", \"items_produced\": " << r.items_produced
        << ", \"table\": " << record_table(r).to_json() << "}";
  }
  out << "\n]\n";
  return std::move(out).str();
}

LogDiff diff_logs(const std::vector<ResultRecord>& a,
                  const std::vector<ResultRecord>& b, bool ignore_wall) {
  LogDiff diff;
  std::ostringstream report;
  if (a.size() != b.size()) {
    diff.identical = false;
    report << "record count differs: " << a.size() << " vs " << b.size()
           << '\n';
  }
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    ResultRecord left = a[i];
    ResultRecord right = b[i];
    if (ignore_wall) {
      left.wall_micros = 0;
      right.wall_micros = 0;
    }
    if (encode_result_record(left) != encode_result_record(right)) {
      diff.identical = false;
      report << "record " << i << " (" << left.experiment_id << " vs "
             << right.experiment_id << ") differs\n";
    }
  }
  diff.report = std::move(report).str();
  return diff;
}

}  // namespace rdv::store
