#include "support/table.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "support/saturating.hpp"

namespace rdv::support {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

Table& Table::add_row(std::vector<std::string> cells) {
  // A mismatched row would index out of bounds in to_markdown(); this
  // must hold in release builds too, so no assert.
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument(
        "Table::add_row: " + std::to_string(cells.size()) +
        " cells for " + std::to_string(headers_.size()) + " headers");
  }
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::to_markdown() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << ' ' << cells[c]
          << std::string(widths[c] - cells[c].size() + 1, ' ') << '|';
    }
    out << '\n';
  };
  emit_row(headers_);
  out << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << '|';
  }
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) out << ',';
      out << cells[c];
    }
    out << '\n';
  };
  emit_row(headers_);
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

void append_json_row(std::string& out, const std::vector<std::string>& cells) {
  out += '[';
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c != 0) out += ", ";
    append_json_string(out, cells[c]);
  }
  out += ']';
}

}  // namespace

std::string Table::to_json() const {
  std::string out = "{\"headers\": ";
  append_json_row(out, headers_);
  out += ", \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r != 0) out += ',';
    out += "\n  ";
    append_json_row(out, rows_[r]);
  }
  if (!rows_.empty()) out += '\n';
  out += "]}\n";
  return out;
}

std::string format_rounds(std::uint64_t rounds) {
  if (rounds == kRoundInfinity) return "inf";
  return std::to_string(rounds);
}

std::string format_double(double v, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << v;
  return out.str();
}

}  // namespace rdv::support
