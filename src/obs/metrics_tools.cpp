#include "obs/metrics_tools.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace rdv::obs {

namespace {

// ---- rendering ------------------------------------------------------

template <typename Map, typename RenderValue>
void append_object(std::string& out, const Map& map,
                   const RenderValue& render_value) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, name);
    out += ':';
    render_value(out, value);
  }
  out += '}';
}

// ---- parsing --------------------------------------------------------

using json::Cursor;
using json::parse_object;

HistogramSnapshot parse_histogram(Cursor& cursor) {
  HistogramSnapshot hist;
  bool saw_buckets = false;
  parse_object(cursor, [&](std::string key) {
    if (key == "count") {
      hist.count = cursor.parse_uint();
    } else if (key == "sum") {
      hist.sum = cursor.parse_uint();
    } else if (key == "buckets") {
      saw_buckets = true;
      cursor.expect('[');
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        if (b != 0) cursor.expect(',');
        hist.buckets[b] = cursor.parse_uint();
      }
      cursor.expect(']');
    } else {
      cursor.fail("unknown histogram field '" + key + "'");
    }
  });
  if (!saw_buckets) cursor.fail("histogram missing buckets");
  return hist;
}

std::string format_micros(double micros) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", micros);
  return buf;
}

}  // namespace

std::string render_metrics_json(const MetricsSnapshot& snap) {
  std::string out = "{\"format\":" + std::to_string(kMetricsFormat);
  out += ",\"counters\":";
  append_object(out, snap.counters,
                [](std::string& o, std::uint64_t v) { o += std::to_string(v); });
  out += ",\"gauges\":";
  append_object(out, snap.gauges,
                [](std::string& o, std::int64_t v) { o += std::to_string(v); });
  out += ",\"histograms\":";
  append_object(out, snap.histograms,
                [](std::string& o, const HistogramSnapshot& h) {
                  o += "{\"count\":" + std::to_string(h.count);
                  o += ",\"sum\":" + std::to_string(h.sum);
                  o += ",\"buckets\":[";
                  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
                    if (b != 0) o += ',';
                    o += std::to_string(h.buckets[b]);
                  }
                  o += "]}";
                });
  out += '}';
  return out;
}

MetricsSnapshot parse_metrics_json(std::string_view text) {
  Cursor cursor{text, "metrics json"};
  MetricsSnapshot snap;
  bool saw_format = false;
  parse_object(cursor, [&](std::string key) {
    if (key == "format") {
      saw_format = true;
      const std::uint64_t format = cursor.parse_uint();
      if (format != kMetricsFormat) {
        cursor.fail("unsupported format " + std::to_string(format));
      }
    } else if (key == "counters") {
      parse_object(cursor, [&](std::string name) {
        snap.counters[std::move(name)] = cursor.parse_uint();
      });
    } else if (key == "gauges") {
      parse_object(cursor, [&](std::string name) {
        snap.gauges[std::move(name)] = cursor.parse_int();
      });
    } else if (key == "histograms") {
      parse_object(cursor, [&](std::string name) {
        snap.histograms[std::move(name)] = parse_histogram(cursor);
      });
    } else {
      cursor.fail("unknown top-level key '" + key + "'");
    }
  });
  if (!saw_format) cursor.fail("missing format field");
  cursor.expect_end();
  return snap;
}

std::string render_metrics_dump(const MetricsSnapshot& snap) {
  std::string out;
  out += "counters (" + std::to_string(snap.counters.size()) + ")\n";
  for (const auto& [name, value] : snap.counters) {
    out += "  " + name + " = " + std::to_string(value) + "\n";
  }
  out += "gauges (" + std::to_string(snap.gauges.size()) + ")\n";
  for (const auto& [name, value] : snap.gauges) {
    out += "  " + name + " = " + std::to_string(value) + "\n";
  }
  out += "histograms (" + std::to_string(snap.histograms.size()) + ")\n";
  for (const auto& [name, hist] : snap.histograms) {
    out += "  " + name + ": count=" + std::to_string(hist.count) +
           " sum=" + std::to_string(hist.sum) +
           " mean=" + format_micros(hist.mean()) + "\n";
  }
  return out;
}

DiffReport diff_snapshots(const MetricsSnapshot& base,
                          const MetricsSnapshot& current,
                          const DiffOptions& options) {
  // With no history every series falls back to the flat band, which is
  // exactly the pre-history behavior.
  return diff_snapshots_with_history(base, current, {}, options);
}

DiffReport diff_snapshots_with_history(
    const MetricsSnapshot& base, const MetricsSnapshot& current,
    const std::vector<MetricsSnapshot>& history,
    const DiffOptions& options) {
  DiffReport report;
  constexpr std::string_view kWallSuffix = ".wall_micros";
  for (const auto& [name, base_hist] : base.histograms) {
    if (name.size() < kWallSuffix.size() ||
        name.compare(name.size() - kWallSuffix.size(), kWallSuffix.size(),
                     kWallSuffix) != 0) {
      continue;
    }
    const auto it = current.histograms.find(name);
    if (it == current.histograms.end()) {
      report.lines.push_back("MISSING " + name +
                             ": present in baseline, absent in current run");
      continue;
    }
    const double base_mean = base_hist.mean();
    const double cur_mean = it->second.mean();

    // The variance-aware band: enough history turns the gate into
    // mu + max(sigmas*sigma, mu*min_band_frac) over the historical
    // per-run means — tight for stable series, loose for noisy ones.
    std::vector<double> means;
    for (const MetricsSnapshot& past : history) {
      const auto hit = past.histograms.find(name);
      if (hit != past.histograms.end() && hit->second.count != 0) {
        means.push_back(hit->second.mean());
      }
    }
    double band = base_mean * (1.0 + options.tolerance);
    double floor_mean = base_mean;
    std::string band_note;
    if (means.size() >= options.min_history_runs) {
      double mu = 0.0;
      for (const double m : means) mu += m;
      mu /= static_cast<double>(means.size());
      double var = 0.0;
      for (const double m : means) var += (m - mu) * (m - mu);
      var /= static_cast<double>(means.size());
      const double sigma = std::sqrt(var);
      band = mu + std::max(options.sigmas * sigma,
                           mu * options.min_band_frac);
      floor_mean = mu;
      band_note = " (history n=" + std::to_string(means.size()) +
                  ", mu " + format_micros(mu) + "us, sigma " +
                  format_micros(sigma) + "us)";
    } else if (!history.empty()) {
      band_note = " (thin history n=" + std::to_string(means.size()) +
                  ", flat band)";
    }

    const bool below_floor =
        floor_mean < static_cast<double>(options.min_micros) &&
        cur_mean < static_cast<double>(options.min_micros);
    const bool regressed = !below_floor && cur_mean > band;
    std::string line = (regressed ? "REGRESSION " : "ok ") + name +
                       ": base mean " + format_micros(base_mean) +
                       "us, current " + format_micros(cur_mean) +
                       "us, band <= " + format_micros(band) + "us";
    line += band_note;
    if (below_floor) line += " (below noise floor)";
    report.lines.push_back(std::move(line));
    if (regressed) ++report.regressions;
  }
  for (const auto& [name, base_value] : base.counters) {
    const auto it = current.counters.find(name);
    if (it == current.counters.end()) {
      report.lines.push_back("counter " + name + ": " +
                             std::to_string(base_value) + " -> (absent)");
    } else if (it->second != base_value) {
      report.lines.push_back("counter " + name + ": " +
                             std::to_string(base_value) + " -> " +
                             std::to_string(it->second));
    }
  }
  return report;
}

std::vector<MetricsSnapshot> load_snapshot_dir(const std::string& dir) {
  std::vector<MetricsSnapshot> history;
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path());
    }
  }
  if (ec) return history;  // missing directory = empty history
  std::sort(paths.begin(), paths.end());
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "metrics: skipping unreadable history %s\n",
                   path.string().c_str());
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      history.push_back(parse_metrics_json(buffer.str()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "metrics: skipping history %s: %s\n",
                   path.string().c_str(), e.what());
    }
  }
  return history;
}

AssertResult check_assertion(const MetricsSnapshot& snap,
                             std::string_view expr) {
  // Split name OP value; two-char operators checked first.
  static constexpr std::string_view kOps[] = {"==", "!=", "<=",
                                              ">=", "<",  ">"};
  std::size_t op_pos = std::string_view::npos;
  std::string_view op;
  for (const std::string_view candidate : kOps) {
    const std::size_t at = expr.find(candidate);
    if (at != std::string_view::npos &&
        (op_pos == std::string_view::npos || at < op_pos ||
         (at == op_pos && candidate.size() > op.size()))) {
      op_pos = at;
      op = candidate;
    }
  }
  if (op_pos == std::string_view::npos || op_pos == 0) {
    return {false, "malformed assertion '" + std::string(expr) +
                       "' (want name OP value)"};
  }
  const std::string name(expr.substr(0, op_pos));
  const std::string value_text(expr.substr(op_pos + op.size()));
  char* end = nullptr;
  const long long expected = std::strtoll(value_text.c_str(), &end, 10);
  if (end == value_text.c_str() || *end != '\0') {
    return {false, "malformed assertion value '" + value_text + "'"};
  }

  std::int64_t actual = 0;
  bool found = false;
  if (const auto it = snap.counters.find(name); it != snap.counters.end()) {
    actual = static_cast<std::int64_t>(it->second);
    found = true;
  } else if (const auto git = snap.gauges.find(name);
             git != snap.gauges.end()) {
    actual = git->second;
    found = true;
  } else {
    // Histogram projections: <name>.count / <name>.sum.
    const std::size_t dot = name.rfind('.');
    if (dot != std::string::npos) {
      const std::string stem = name.substr(0, dot);
      const std::string field = name.substr(dot + 1);
      if (const auto hit = snap.histograms.find(stem);
          hit != snap.histograms.end()) {
        if (field == "count") {
          actual = static_cast<std::int64_t>(hit->second.count);
          found = true;
        } else if (field == "sum") {
          actual = static_cast<std::int64_t>(hit->second.sum);
          found = true;
        }
      }
    }
  }
  if (!found) {
    return {false, "metric '" + name + "' not found in snapshot"};
  }

  bool ok = false;
  if (op == "==") ok = actual == expected;
  else if (op == "!=") ok = actual != expected;
  else if (op == "<=") ok = actual <= expected;
  else if (op == ">=") ok = actual >= expected;
  else if (op == "<") ok = actual < expected;
  else ok = actual > expected;

  std::string message = name + " = " + std::to_string(actual) + " (want " +
                        std::string(op) + " " + std::to_string(expected) +
                        ")";
  return {ok, std::move(message)};
}

}  // namespace rdv::obs
