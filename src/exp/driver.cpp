#include "exp/driver.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "exp/scenarios/scenarios.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_tools.hpp"
#include "obs/profile.hpp"
#include "obs/task_events.hpp"
#include "store/result_log.hpp"
#include "support/env.hpp"
#include "support/thread_pool.hpp"

namespace rdv::exp {
namespace {

constexpr const char* kUsage = R"(usage: rdv_bench [options] [id-or-filter ...]

Runs registered experiments (positional arguments select by exact id
first, then by substring over ids/titles/tags). With no arguments,
lists the registry.

options:
  --list           list matching experiments and exit
  --describe       print axes / output schema of matching experiments and exit
  --all            select every registered experiment
  --smoke          smoke scale (tiny axes; CI-sized)
  --full           full scale (default comes from REPRO_FULL)
  --census         census scale (full + big random-graph STIC censuses;
                   default comes from REPRO_CENSUS)
  --threads N      run on a dedicated pool of N threads (1..1024)
  --csv-dir DIR    write <dir>/<id>.csv   (default: REPRO_CSV_DIR)
  --json-dir DIR   write <dir>/<id>.json  (default: REPRO_JSON_DIR)
  --json           also print each table as JSON to stdout
  --store-dir DIR  persistent artifact store (same as RDV_STORE_DIR):
                   warm runs skip recomputing view classes, quotients,
                   Shrink, and UXS corpus verification
  --result-log F   append every table to a compact binary log (round-
                   trip verified under --check)
  --metrics-out F  write the unified metrics snapshot (cache/store/
                   pool/sweep/exp series) as JSON after the run; feed
                   it to rdv_metrics dump|diff|assert
  --trace-out F    record the event ring and write a Chrome-trace /
                   Perfetto JSON (chrome://tracing, ui.perfetto.dev):
                   experiment spans plus sweep / task / merge / park
                   slices and flow arrows stitching each task's
                   submit -> execute -> merge across threads
  --profile-out F  record the event ring and write the scheduler
                   profile (submit/exec/park per task, sweep
                   DAGs) as JSON; analyze with rdv_profile
                   report|top|diff
  --check          fail (exit 1) if any experiment emits an empty table
  --help           this text

Value-taking options accept both `--opt VALUE` and `--opt=VALUE`.

Metrics and traces are sidecar-only: stdout bytes are identical with
and without them.
)";

struct Args {
  bool list = false;
  bool describe = false;
  bool all = false;
  bool json_stdout = false;
  bool check = false;
  Scale scale = Scale::kQuick;
  bool scale_forced = false;
  std::size_t threads = 0;
  std::string csv_dir;
  std::string json_dir;
  std::string store_dir;
  std::string result_log;
  std::string metrics_out;
  std::string trace_out;
  std::string profile_out;
  std::vector<std::string> selectors;
};

/// Largest --threads count: a pool reserves its workers up front.
constexpr std::size_t kMaxThreads = 1024;

/// A thread count in 1..kMaxThreads. strtoull alone would accept a
/// sign ("-1" wraps to 2^64-1), so the text must start with a digit.
bool parse_threads(std::string_view text, std::size_t& out) {
  const std::string copy(text);
  if (copy.empty() || copy[0] < '0' || copy[0] > '9') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(copy.c_str(), &end, 10);
  if (*end != '\0' || v == 0 || v > kMaxThreads) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

int parse_args(int argc, const char* const* argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    // --opt=VALUE: split once here so every value-taking option accepts
    // both spellings.
    std::string_view inline_value;
    bool has_inline = false;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      const std::size_t eq = arg.find('=');
      if (eq != std::string_view::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    const auto value = [&](std::string_view& out) {
      if (has_inline) {
        out = inline_value;
        return true;
      }
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    const bool takes_value =
        arg == "--threads" || arg == "--csv-dir" || arg == "--json-dir" ||
        arg == "--store-dir" || arg == "--result-log" ||
        arg == "--metrics-out" || arg == "--trace-out" ||
        arg == "--profile-out";
    if (has_inline && !takes_value) {
      std::fprintf(stderr, "rdv_bench: option %s does not take a value\n",
                   std::string(arg).c_str());
      return 2;
    }
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return -1;
    } else if (arg == "--list") {
      args.list = true;
    } else if (arg == "--describe") {
      args.describe = true;
    } else if (arg == "--all") {
      args.all = true;
    } else if (arg == "--smoke") {
      args.scale = Scale::kSmoke;
      args.scale_forced = true;
    } else if (arg == "--full") {
      args.scale = Scale::kFull;
      args.scale_forced = true;
    } else if (arg == "--census") {
      args.scale = Scale::kCensus;
      args.scale_forced = true;
    } else if (arg == "--json") {
      args.json_stdout = true;
    } else if (arg == "--check") {
      args.check = true;
    } else if (arg == "--threads") {
      std::string_view v;
      if (!value(v) || !parse_threads(v, args.threads)) {
        std::fputs("rdv_bench: --threads needs a count in 1..1024\n",
                   stderr);
        return 2;
      }
    } else if (arg == "--csv-dir" || arg == "--json-dir" ||
               arg == "--store-dir" || arg == "--result-log" ||
               arg == "--metrics-out" || arg == "--trace-out" ||
               arg == "--profile-out") {
      std::string_view v;
      if (!value(v) || v.empty()) {
        std::fprintf(stderr, "rdv_bench: %s needs a path\n",
                     std::string(arg).c_str());
        return 2;
      }
      std::string& slot = arg == "--csv-dir"      ? args.csv_dir
                          : arg == "--json-dir"   ? args.json_dir
                          : arg == "--store-dir"  ? args.store_dir
                          : arg == "--result-log" ? args.result_log
                          : arg == "--metrics-out" ? args.metrics_out
                          : arg == "--trace-out"  ? args.trace_out
                                                  : args.profile_out;
      slot = std::string(v);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "rdv_bench: unknown option %s\n%s",
                   std::string(arg).c_str(), kUsage);
      return 2;
    } else {
      args.selectors.emplace_back(arg);
    }
  }
  return 0;
}

/// Resolves selectors against the registry, preserving registry order
/// and deduplicating. Returns false when a selector matched nothing.
bool select(const Registry& registry, const Args& args,
            std::vector<const Experiment*>& selected) {
  if (args.all || args.selectors.empty()) {
    for (const Experiment& e : registry.all()) selected.push_back(&e);
    return true;
  }
  std::vector<bool> picked(registry.size(), false);
  for (const std::string& selector : args.selectors) {
    std::vector<const Experiment*> matched;
    if (const Experiment* exact = registry.find(selector)) {
      matched.push_back(exact);
    } else {
      matched = registry.match(selector);
    }
    if (matched.empty()) {
      std::fprintf(stderr,
                   "rdv_bench: no experiment matches '%s' (try --list)\n",
                   selector.c_str());
      return false;
    }
    for (const Experiment* e : matched) {
      picked[static_cast<std::size_t>(e - registry.all().data())] = true;
    }
  }
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (picked[i]) selected.push_back(&registry.all()[i]);
  }
  return true;
}

std::string join(const std::vector<std::string>& parts,
                 const char* separator) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += separator;
    out += part;
  }
  return out;
}

void print_list(const std::vector<const Experiment*>& selected) {
  support::Table table({"id", "tags", "summary"});
  for (const Experiment* e : selected) {
    table.add_row({e->id, join(e->tags, ","), e->summary});
  }
  std::printf("%zu experiments registered\n%s", selected.size(),
              table.to_markdown().c_str());
}

/// Bridges subsystem-owned statistics into metrics snapshots. The
/// subsystems keep their counters (per-instance, directly testable);
/// the registry reads them through these sources at snapshot time, so
/// there is exactly one bookkeeper per number. register_source is
/// idempotent by name — run_main may execute repeatedly in one process
/// (tests) without stacking duplicate contributors.
void register_metric_sources() {
  obs::Registry::instance().register_source(
      "exp.cache", [](obs::MetricsSnapshot& snap) {
        const cache::CacheStats stats = cache::global_cache().stats();
        const auto tier = [&snap](const char* kind,
                                  const cache::StoreStats& s) {
          const std::string p = std::string("cache.") + kind;
          snap.counters[p + ".hits"] = s.hits;
          snap.counters[p + ".misses"] = s.misses;
          snap.gauges[p + ".entries"] = static_cast<std::int64_t>(s.entries);
          snap.gauges[p + ".bytes"] = static_cast<std::int64_t>(s.bytes);
        };
        tier("view_classes", stats.view_classes);
        tier("quotients", stats.quotients);
        tier("uxs", stats.uxs);
        tier("all_pairs_shrink", stats.all_pairs_shrink);
      });
  obs::Registry::instance().register_source(
      "exp.store", [](obs::MetricsSnapshot& snap) {
        const store::DiskStore* disk = cache::global_cache().disk();
        snap.gauges["store.attached"] = disk != nullptr ? 1 : 0;
        // Zero series when no store is attached: the store tier always
        // appears in a snapshot, so baselines and assertions keep one
        // schema across cold, warm, and storeless runs.
        for (std::size_t k = 0; k < store::kKindCount; ++k) {
          const auto kind = static_cast<store::Kind>(k);
          const store::DiskStats s =
              disk != nullptr ? disk->stats(kind) : store::DiskStats{};
          const std::string p =
              std::string("store.") + store::kind_name(kind);
          snap.counters[p + ".hits"] = s.hits;
          snap.counters[p + ".misses"] = s.misses;
          snap.counters[p + ".corrupt"] = s.corrupt;
          snap.counters[p + ".version_mismatch"] = s.version_mismatch;
          snap.counters[p + ".writes"] = s.writes;
          snap.counters[p + ".write_failures"] = s.write_failures;
          snap.counters[p + ".bytes_read"] = s.bytes;
          snap.counters[p + ".bytes_written"] = s.bytes_written;
        }
      });
  obs::Registry::instance().register_source(
      "exp.obs", [](obs::MetricsSnapshot& snap) {
        // Observability self-monitoring: event-ring overwrites surface
        // as a counter, so CI can assert obs.events_dropped==0 on smoke
        // runs — a sidecar that silently lost events is worse than none.
        snap.counters["obs.events_dropped"] = obs::task_events_dropped_count();
        snap.counters["obs.events_recorded"] =
            obs::task_events_recorded_count();
      });
}

/// Round-trips the just-written binary log and compares it against the
/// records the run produced — the --result-log leg of --check.
bool verify_result_log(const std::string& path,
                       const std::vector<store::ResultRecord>& expected) {
  std::vector<store::ResultRecord> read;
  try {
    read = store::read_result_log(path);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "rdv_bench: result log %s unreadable: %s\n",
                 path.c_str(), ex.what());
    return false;
  }
  if (read.size() != expected.size()) {
    std::fprintf(stderr,
                 "rdv_bench: result log %s has %zu records, expected %zu\n",
                 path.c_str(), read.size(), expected.size());
    return false;
  }
  for (std::size_t i = 0; i < read.size(); ++i) {
    // Byte-level comparison through the canonical encoding: any field
    // drift (id, scale, counters, schema, cells) fails the check.
    if (store::encode_result_record(read[i]) !=
        store::encode_result_record(expected[i])) {
      std::fprintf(stderr,
                   "rdv_bench: result log %s record %zu (%s) does not "
                   "round-trip\n",
                   path.c_str(), i, expected[i].experiment_id.c_str());
      return false;
    }
  }
  return true;
}

void print_describe(const std::vector<const Experiment*>& selected) {
  for (const Experiment* e : selected) {
    std::printf("%s — %s\n", e->id.c_str(), e->title.c_str());
    std::printf("  tags: %s\n", join(e->tags, ", ").c_str());
    for (const std::string& axis : e->axes) {
      std::printf("  axis: %s\n", axis.c_str());
    }
    std::printf("  columns: %s\n", join(e->headers, " | ").c_str());
    std::printf("\n");
  }
}

}  // namespace

int run_main(int argc, const char* const* argv) {
  Args args;
  const int parse = parse_args(argc, argv, args);
  if (parse != 0) return parse < 0 ? 0 : parse;
  if (!args.scale_forced) {
    if (support::repro_census()) {
      args.scale = Scale::kCensus;
    } else if (support::repro_full()) {
      args.scale = Scale::kFull;
    }
  }
  // --store-dir is sugar for RDV_STORE_DIR; exported before anything
  // touches the global cache (which reads the knob exactly once).
  if (!args.store_dir.empty()) {
    support::env_export("RDV_STORE_DIR", args.store_dir);
  }
  // The event ring records only when a sink was requested (and from
  // before the pool spins up, so worker park/assist events are
  // captured too).
  const bool record_events =
      !args.trace_out.empty() || !args.profile_out.empty();
  if (record_events) obs::set_task_events_enabled(true);
  register_metric_sources();

  const Registry& registry = builtin_registry();
  std::vector<const Experiment*> selected;
  if (!select(registry, args, selected)) return 2;

  if (args.describe) {
    print_describe(selected);
    return 0;
  }
  // Bare `rdv_bench` lists instead of running everything by surprise.
  if (args.list || (args.selectors.empty() && !args.all)) {
    print_list(selected);
    return 0;
  }

  ExpContext ctx;
  ctx.scale = args.scale;
  std::unique_ptr<support::ThreadPool> pool;
  if (args.threads != 0) {
    pool = std::make_unique<support::ThreadPool>(args.threads);
    ctx.sweep.pool = pool.get();
  }

  EmitOptions emit_options = emit_options_from_env();
  if (!args.csv_dir.empty()) emit_options.csv_dir = args.csv_dir;
  if (!args.json_dir.empty()) emit_options.json_dir = args.json_dir;
  emit_options.json_stdout = args.json_stdout;

  std::unique_ptr<store::ResultLogWriter> log;
  if (!args.result_log.empty()) {
    log = std::make_unique<store::ResultLogWriter>(args.result_log);
    if (!log->ok()) {
      std::fprintf(stderr, "rdv_bench: cannot write result log %s\n",
                   args.result_log.c_str());
      return 2;
    }
  }

  int failures = 0;
  std::vector<store::ResultRecord> logged;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Experiment& e = *selected[i];
    if (i != 0) std::printf("\n");
    std::printf("== %s [%s] ==\n", e.id.c_str(), scale_name(ctx.scale));
    try {
      const ExpOutput output = run_experiment(e, ctx);
      // Per-scenario wall-clock series — what the CI perf-trend gate
      // diffs against its committed baseline band.
      obs::histogram("exp." + e.id + ".wall_micros")
          .observe(output.wall_micros);
      const std::vector<std::string> written =
          emit(e, output, emit_options);
      if (log != nullptr) {
        // The censuses' per-case detail records (already in case
        // order) precede the experiment's own summary record.
        for (const store::ResultRecord& detail : output.details) {
          log->append(detail);
        }
        store::ResultRecord record;
        record.experiment_id = e.id;
        record.scale = scale_name(ctx.scale);
        record.wall_micros = output.wall_micros;
        record.items_total = output.items_total;
        // A case may decline to produce a row (empty return), so the
        // produced count is the table's, not the sweep's.
        record.items_produced = output.table.row_count();
        record.headers = output.table.headers();
        record.rows = output.table.rows();
        log->append(record);
        if (!log->ok()) {
          // One counted failure, then stop logging (and skip the final
          // round-trip, which could only re-report the same fault).
          std::fprintf(stderr, "rdv_bench: result log write failed at %s\n",
                       e.id.c_str());
          ++failures;
          log.reset();
        } else if (args.check) {
          logged.insert(logged.end(), output.details.begin(),
                        output.details.end());
          logged.push_back(std::move(record));
        }
      }
      if (args.check && output.table.row_count() == 0) {
        std::fprintf(stderr, "rdv_bench: %s produced an empty table\n",
                     e.id.c_str());
        ++failures;
      }
      const std::size_t files_expected =
          (emit_options.csv_dir.empty() ? 0u : 1u) +
          (emit_options.json_dir.empty() ? 0u : 1u);
      if (args.check && written.size() != files_expected) {
        std::fprintf(stderr,
                     "rdv_bench: %s wrote %zu of %zu requested files\n",
                     e.id.c_str(), written.size(), files_expected);
        ++failures;
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "rdv_bench: %s failed: %s\n", e.id.c_str(),
                   ex.what());
      ++failures;
    }
  }
  if (log != nullptr && args.check &&
      !verify_result_log(args.result_log, logged)) {
    ++failures;
  }
  // Sidecar emission last: a full run's worth of series, written after
  // every primary byte (stdout, CSV/JSON tables, result log) is out.
  if (!args.metrics_out.empty()) {
    const std::string json =
        obs::render_metrics_json(obs::Registry::instance().snapshot());
    if (!write_file(args.metrics_out, json)) {
      ++failures;
    } else {
      std::fprintf(stderr, "rdv_bench: metrics snapshot written to %s\n",
                   args.metrics_out.c_str());
    }
  }
  if (record_events) {
    if (!obs::write_event_sidecars(args.trace_out, args.profile_out)) {
      ++failures;
    } else {
      if (!args.trace_out.empty()) {
        std::fprintf(stderr, "rdv_bench: chrome trace written to %s\n",
                     args.trace_out.c_str());
      }
      if (!args.profile_out.empty()) {
        std::fprintf(stderr, "rdv_bench: scheduler profile written to %s\n",
                     args.profile_out.c_str());
      }
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "rdv_bench: %d of %zu experiments failed\n",
                 failures, selected.size());
    return 1;
  }
  return 0;
}

}  // namespace rdv::exp
