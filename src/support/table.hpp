#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

/// Markdown/CSV table emitter for the benchmark harness. Every bench
/// binary prints the rows of "its" table/figure from EXPERIMENTS.md.
namespace rdv::support {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds one row; the cell count must match the header count.
  Table& add_row(std::vector<std::string> cells);

  /// GitHub-flavored markdown rendering with aligned columns.
  [[nodiscard]] std::string to_markdown() const;

  /// RFC-4180-ish CSV (no quoting of commas; callers keep cells simple).
  [[nodiscard]] std::string to_csv() const;

  /// {"headers": [...], "rows": [[...], ...]} with full string escaping
  /// — the machine-readable rendering for trend tracking.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::size_t row_count() const noexcept {
    return rows_.size();
  }
  [[nodiscard]] std::size_t column_count() const noexcept {
    return headers_.size();
  }

  /// Raw cells, for emitters that re-frame rather than render (the
  /// binary result log).
  [[nodiscard]] const std::vector<std::string>& headers() const noexcept {
    return headers_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows()
      const noexcept {
    return rows_;
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Appends `s` as a JSON string literal with full escaping (`"`, `\`,
/// \n, \r, \t, and every other control byte as \u00XX) — the one
/// escaper behind to_json and the result-log JSON export.
void append_json_string(std::string& out, const std::string& s);

/// Formats a round count, rendering kRoundInfinity as "inf".
[[nodiscard]] std::string format_rounds(std::uint64_t rounds);

/// Formats a double with the given precision (fixed notation).
[[nodiscard]] std::string format_double(double v, int precision = 2);

}  // namespace rdv::support
