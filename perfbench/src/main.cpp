// rdv_perfbench: the benchmark harness.
//
//   rdv_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--size full|tiny] [--work-dir DIR] [--spans-out FILE]
//                 [--inputs-only] [--list]
//
// Measures peak memory over a 1-thread set-up and pass, sets up a fresh
// workload object on a fresh pool five times, runs one untimed warm-up
// pass, then closed-loop passes for S seconds on one explicit thread
// pool of min(4, cores) workers. With --trace 0 every pass is untraced,
// more set-ups run between passes (setup_s is the median of all of
// them) and the end-to-end metrics are printed; with --trace 1 cycles of
// plain, obs-profiled, span-traced and untraced decomposed passes run
// and the per-layer metrics are printed. Either way the results are
// checked: every pass against the workload's own checks and the first
// timed pass's digest, the 1-thread pass against the same digest, the
// workload's independent oracle, and with --trace 1 the traced run's
// own bounds.
// The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/task_events.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"
#include "views/refinement_worklist.hpp"
#include "views/shrink.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Attribution;
using perfbench::PassOutcome;
using rdv::support::ThreadPool;

/// Bounds the traced run must stay inside to be trusted; a traced run
/// outside them fails its checks. Medians of two identical passes differ
/// by up to ~8% on a shared 4-vCPU host, hence the overhead bound.
constexpr double kMaxTraceOverhead = 0.25;
constexpr double kMaxUnattributed = 0.05;

/// How a pass runs. Plain and profiled passes take the library path
/// (profiled with rdv's obs tracing and task events on); traced and
/// decomposed passes take the decomposed path, with and without the
/// harness's spans.
enum Mode { kPlain, kProfiled, kTraced, kDecomposed };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string work_dir = ".bench_build/work";
  std::string spans_out;
  bool inputs_only = false;
  bool list = false;
};

int usage(const char* message) {
  std::fprintf(stderr,
               "rdv_perfbench: %s\nusage: rdv_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--work-dir DIR] [--spans-out FILE] [--inputs-only] "
               "[--list]\n",
               message);
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        args.trace = std::stoi(value());
      } else if (flag == "--size") {
        const std::string size = value();
        if (size != "full" && size != "tiny") return false;
        args.tiny = size == "tiny";
      } else if (flag == "--work-dir") {
        args.work_dir = value();
      } else if (flag == "--spans-out") {
        args.spans_out = value();
      } else if (flag == "--inputs-only") {
        args.inputs_only = true;
      } else if (flag == "--list") {
        args.list = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return (args.trace == 0 || args.trace == 1) && args.seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double wall_s(const PassOutcome& p) {
  return static_cast<double>(p.end.wall_ns - p.start.wall_ns) / 1e9;
}

template <typename T, typename F>
double median_of(const std::vector<T>& items, F f) {
  std::vector<double> v;
  for (const T& item : items) v.push_back(static_cast<double>(f(item)));
  return median(v);
}

template <typename T>
T lookup(const std::map<std::string, T>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? T{} : it->second;
}

/// Process-wide counters sampled around each pass.
struct Counters {
  std::uint64_t pair_bfs = 0;
  std::uint64_t refines = 0;
  std::uint64_t tables = 0;
  std::uint64_t chunks = 0;
  std::uint64_t items = 0;
  std::uint64_t steals = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t obs_dropped = 0;
};

Counters sample(const ThreadPool& pool) {
  Counters c;
  c.pair_bfs = rdv::views::shrink_pair_bfs_count();
  c.refines = rdv::views::refine_worklist_compute_count();
  c.tables = rdv::views::shrink_all_pairs_compute_count();
  c.chunks = rdv::obs::counter("sweep.chunks").value();
  c.items = rdv::obs::counter("sweep.items").value();
  c.steals = pool.steal_count();
  c.wakeups = pool.wakeup_count();
  c.obs_dropped = rdv::obs::trace_dropped_count() +
                  rdv::obs::task_events_dropped_count();
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  return {a.pair_bfs - b.pair_bfs, a.refines - b.refines,
          a.tables - b.tables,     a.chunks - b.chunks,
          a.items - b.items,       a.steals - b.steals,
          a.wakeups - b.wakeups,   a.obs_dropped - b.obs_dropped};
}

struct Measured {
  PassOutcome pass;
  Counters counters;
};

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char number[64];
      const auto res = std::to_chars(number, number + sizeof number,
                                     entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name +
             "\": {\"value\": " + std::string(number, res.ptr) +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Everything one run measured, for the metric and report writers.
struct RunData {
  std::size_t threads = 0;
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> verify_s;
  std::uint64_t uxs_verifications = 0;
  std::vector<Measured> plain;
  std::vector<Measured> profiled;
  std::vector<Measured> traced;
  std::vector<Measured> decomposed;
  /// Per --trace 1 cycle: traced ÷ decomposed wall and profiled ÷ plain
  /// wall, each of two neighbouring passes that run the same code.
  std::vector<double> trace_ratios;
  std::vector<double> profile_ratios;
  std::vector<Attribution> attrs;
  double peak_rss_mb = 0;
  double cache_hit_ns = 0;

  [[nodiscard]] double wall(const std::vector<Measured>& set) const {
    return median_of(set, [](const Measured& m) { return wall_s(m.pass); });
  }
  [[nodiscard]] double trace_overhead() const {
    return median(trace_ratios) - 1;
  }
  [[nodiscard]] double profile_overhead() const {
    return median(profile_ratios) - 1;
  }
  [[nodiscard]] double idle_share() const {
    return median_of(attrs, [&](const Attribution& a) {
      return ratio(a.idle_s, static_cast<double>(threads) * a.wall_s);
    });
  }
  [[nodiscard]] double busy_share(const char* layer) const {
    return median_of(attrs, [&](const Attribution& a) {
      return ratio(lookup(a.layer_self_s, std::string(layer)), a.exec_s);
    });
  }
  [[nodiscard]] double unattributed() const {
    return median_of(attrs,
                     [](const Attribution& a) { return a.unattributed_frac; });
  }
  [[nodiscard]] bool trace_trusted() const {
    return std::abs(trace_overhead()) <= kMaxTraceOverhead &&
           unattributed() <= kMaxUnattributed;
  }
};

void add_end_to_end(Metrics& metrics, const RunData& run) {
  metrics.add("stics_per_s", median_of(run.plain, [](const Measured& m) {
                return ratio(static_cast<double>(m.pass.stics),
                             wall_s(m.pass));
              }),
              "1/s");
  metrics.add("cpu_s", median_of(run.plain, [](const Measured& m) {
                return m.pass.end.cpu_s - m.pass.start.cpu_s;
              }),
              "s");
  metrics.add("setup_s", median(run.setup_s), "s");
  metrics.add("peak_rss_mb", run.peak_rss_mb, "MB");
}

void add_per_layer(Metrics& metrics, const RunData& run) {
  // Counts come from the untraced passes (median; they repeat exactly).
  const auto count = [&](std::uint64_t PassOutcome::*member) {
    return median_of(run.plain,
                     [&](const Measured& m) { return m.pass.*member; });
  };
  const auto delta = [&](std::uint64_t Counters::*member) {
    return median_of(run.plain,
                     [&](const Measured& m) { return m.counters.*member; });
  };
  // Times come from the traced passes' spans.
  const auto total = [&](auto member, const char* call) {
    double sum = 0;
    for (const Attribution& a : run.attrs) {
      sum += static_cast<double>(lookup(a.*member, std::string(call)));
    }
    return sum;
  };
  const auto per_pass = [&](auto member, const char* call) {
    return median_of(run.attrs, [&](const Attribution& a) {
      return lookup(a.*member, std::string(call));
    });
  };
  const auto ns_per_call = [&](const char* call) {
    return 1e9 * ratio(total(&Attribution::call_total_s, call),
                       total(&Attribution::call_count, call));
  };
  const auto of_attrs = [&](double Attribution::*member) {
    return median_of(run.attrs,
                     [&](const Attribution& a) { return a.*member; });
  };
  double traced_moves = 0;
  for (const Measured& m : run.traced) {
    traced_moves += static_cast<double>(m.pass.sim_moves);
  }
  std::vector<double> run_ms;
  for (const Attribution& a : run.attrs) {
    run_ms.insert(run_ms.end(), a.sim_run_ms.begin(), a.sim_run_ms.end());
  }
  const double written = count(&PassOutcome::store_bytes_written);
  const double read = count(&PassOutcome::store_bytes_read);
  const double save_s = per_pass(&Attribution::call_total_s, "store.save");
  const double load_s = per_pass(&Attribution::call_total_s, "store.load");
  const double chunks = delta(&Counters::chunks);

  metrics.add("sim.runs", count(&PassOutcome::sim_runs), "count");
  metrics.add("sim.moves", count(&PassOutcome::sim_moves), "count");
  metrics.add("sim.rounds", count(&PassOutcome::sim_rounds), "count");
  metrics.add("sim.ns_per_move",
              1e9 * ratio(total(&Attribution::call_self_s, "sim.run_anonymous"),
                          traced_moves),
              "ns");
  metrics.add("sim.run_p50_ms", percentile(run_ms, 50), "ms");
  metrics.add("sim.run_p99_ms", percentile(run_ms, 99), "ms");
  metrics.add("sim.self_s", per_pass(&Attribution::layer_self_s, "sim"), "s");
  metrics.add("uxs.provider_calls", count(&PassOutcome::uxs_calls), "count");
  metrics.add("uxs.provider_ns_per_call", ns_per_call("uxs.provider"), "ns");
  metrics.add("uxs.corpus_verifications",
              static_cast<double>(run.uxs_verifications), "count");
  metrics.add("uxs.verify_s", median(run.verify_s), "s");
  metrics.add("analysis.classify_ns_per_stic",
              ns_per_call("analysis.classify_stic"), "ns");
  metrics.add("views.shrink_pair_bfs", delta(&Counters::pair_bfs), "count");
  metrics.add("views.refine_ms",
              1e3 * per_pass(&Attribution::call_self_s, "views.refine"), "ms");
  metrics.add("views.quotient_ms",
              1e3 * per_pass(&Attribution::call_self_s, "views.quotient"),
              "ms");
  metrics.add(
      "views.shrink_all_pairs_ms",
      1e3 * per_pass(&Attribution::call_self_s, "views.shrink_all_pairs"),
      "ms");
  metrics.add(
      "views.shrink_all_pairs_ns_per_pair",
      1e9 * ratio(total(&Attribution::call_self_s, "views.shrink_all_pairs"),
                  total(&Attribution::call_arg_sum, "views.shrink_all_pairs")),
      "ns");
  metrics.add("views.refine_worklist_computes", delta(&Counters::refines),
              "count");
  metrics.add("views.shrink_all_pairs_computes", delta(&Counters::tables),
              "count");
  metrics.add("cache.hits", count(&PassOutcome::cache_hits), "count");
  metrics.add("cache.misses", count(&PassOutcome::cache_misses), "count");
  metrics.add("cache.hit_ns", run.cache_hit_ns, "ns");
  metrics.add("store.save_s", save_s, "s");
  metrics.add("store.bytes_written", written, "B");
  metrics.add("store.write_mb_per_s", ratio(written / 1e6, save_s), "MB/s");
  metrics.add("store.load_s", load_s, "s");
  metrics.add("store.bytes_read", read, "B");
  metrics.add("store.read_mb_per_s", ratio(read / 1e6, load_s), "MB/s");
  metrics.add("store.decode_mb_per_s",
              ratio(total(&Attribution::call_arg_sum, "store.decode") / 1e6,
                    total(&Attribution::call_total_s, "store.decode")),
              "MB/s");
  metrics.add("sched.parallel_efficiency",
              of_attrs(&Attribution::parallel_efficiency), "frac");
  metrics.add("sched.idle_s", of_attrs(&Attribution::idle_s), "s");
  metrics.add("sched.max_thread_share",
              of_attrs(&Attribution::max_thread_share), "frac");
  metrics.add("sweep.chunks", chunks, "count");
  metrics.add("sweep.items_per_chunk", ratio(delta(&Counters::items), chunks),
              "count");
  metrics.add("sched.steals", delta(&Counters::steals), "count");
  metrics.add("sched.wakeups_per_task",
              ratio(delta(&Counters::wakeups), chunks), "count");
  metrics.add("graph.gen_ms", 1e3 * median(run.gen_s), "ms");
  metrics.add("graph.qhat_materialized",
              count(&PassOutcome::qhat_materialized), "count");
  metrics.add("obs.profiled_overhead_frac", run.profile_overhead(), "frac");
  metrics.add("trace.overhead_frac", run.trace_overhead(), "frac");
  metrics.add("trace.unattributed_frac", run.unattributed(), "frac");
  for (const char* layer : {"sim", "views", "uxs", "cache", "store", "bench"}) {
    metrics.add(std::string("attr.") + layer + "_share",
                run.busy_share(layer), "frac");
  }
  metrics.add("attr.idle_share", run.idle_share(), "frac");
}

void print_attribution(const RunData& run) {
  if (run.attrs.empty()) return;
  std::printf("attribution (median of %zu traced passes), share of busy "
              "time:",
              run.attrs.size());
  for (const char* layer : {"sim", "views", "uxs", "core", "analysis",
                            "cache", "store", "graph", "bench", "task"}) {
    std::printf(" %s %.1f%%", layer, 100 * run.busy_share(layer));
  }
  std::printf("\nscheduler: idle %.1f%% of %zu threads x wall, parallel "
              "efficiency %.3f, max thread share %.2f\n",
              100 * run.idle_share(), run.threads,
              median_of(run.attrs, [](const Attribution& a) {
                return a.parallel_efficiency;
              }),
              median_of(run.attrs, [](const Attribution& a) {
                return a.max_thread_share;
              }));
  std::printf("trace: overhead_frac=%.4f (bound %.2f) unattributed_frac=%.4f "
              "(bound %.2f): %s\n",
              run.trace_overhead(), kMaxTraceOverhead, run.unattributed(),
              kMaxUnattributed,
              run.trace_trusted() ? "within bounds" : "OUTSIDE BOUNDS");
  std::printf("decomposed path: wall %+.1f%% against the library path\n",
              100 * (ratio(run.wall(run.decomposed), run.wall(run.plain)) -
                     1));
  for (const std::string& line : run.attrs.back().serialized) {
    std::printf("%s\n", line.c_str());
  }
}

int run_main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  const std::vector<std::string> names = perfbench::workload_names();
  if (args.list) {
    for (const std::string& name : names) std::printf("%s\n", name.c_str());
    return 0;
  }
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return usage("unknown workload");
  }
  perfbench::spans::mark_main_thread();
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return usage("cannot create the work directory");
  perfbench::Options options;
  options.seed = args.seed;
  options.tiny = args.tiny;
  options.work_dir = args.work_dir;
  RunData run;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  run.threads = std::min<std::size_t>(4, hw);

  // Memory first, in the fresh process: set-up plus one pass on a
  // 1-thread pool allocate in a fixed order, so their peak resident set
  // repeats run to run (with more threads it depends on which workers'
  // heap arenas happen to keep a large pass's memory). It therefore
  // misses memory that grows with the worker count. The same pass is
  // the 1-thread half of the determinism check below.
  PassOutcome single;
  if (!args.inputs_only) {
    ThreadPool one(1);
    const auto first = perfbench::make_workload(args.workload, options);
    (void)first->setup(one);
    single = first->pass(one, false);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  // Set-up of a fresh workload on a fresh pool; tearing down the previous
  // ones is not timed. Five of them before the first pass, the last one
  // being the workload that runs.
  const auto timed_setup = [&](std::unique_ptr<perfbench::Workload>& w,
                               std::unique_ptr<ThreadPool>& p) {
    w.reset();
    p.reset();
    const std::int64_t t0 = perfbench::spans::now_ns();
    p = std::make_unique<ThreadPool>(args.inputs_only ? 1 : run.threads);
    w = perfbench::make_workload(args.workload, options);
    const perfbench::SetupOutcome setup = w->setup(*p);
    const double s =
        static_cast<double>(perfbench::spans::now_ns() - t0) / 1e9;
    run.setup_s.push_back(s);
    run.gen_s.push_back(setup.graph_gen_s);
    run.verify_s.push_back(setup.uxs_verify_s);
    run.uxs_verifications = setup.uxs_verifications;
    return s;
  };
  std::unique_ptr<perfbench::Workload> workload;
  std::unique_ptr<ThreadPool> pool;
  for (int rep = 0; rep < (args.inputs_only ? 1 : 5); ++rep) {
    (void)timed_setup(workload, pool);
  }
  std::printf("workload=%s seed=%llu size=%s threads=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.tiny ? "tiny" : "full", run.threads);
  std::printf("inputs_digest=%s\n", hex(workload->inputs_digest()).c_str());
  if (args.inputs_only) return 0;

  std::vector<perfbench::spans::Span> last_spans;
  const auto pass = [&](Mode mode) {
    Measured m;
    const Counters before = sample(*pool);
    if (mode == kTraced) perfbench::spans::set_enabled(true);
    if (mode == kProfiled) {
      rdv::obs::set_trace_enabled(true);
      rdv::obs::set_task_events_enabled(true);
    }
    m.pass = workload->pass(*pool, mode == kTraced || mode == kDecomposed);
    perfbench::spans::set_enabled(false);
    rdv::obs::set_trace_enabled(false);
    rdv::obs::set_task_events_enabled(false);
    m.counters = sample(*pool) - before;
    switch (mode) {
      case kPlain:
        run.plain.push_back(m);
        break;
      case kProfiled:
        rdv::obs::clear_trace();
        rdv::obs::clear_task_events();
        run.profiled.push_back(m);
        break;
      case kTraced:
        last_spans = perfbench::spans::drain();
        run.attrs.push_back(perfbench::attribute(
            last_spans, m.pass.start.wall_ns, m.pass.end.wall_ns,
            run.threads));
        run.traced.push_back(m);
        break;
      case kDecomposed:
        run.decomposed.push_back(m);
        break;
    }
    return wall_s(m.pass);
  };
  // One untimed warm-up pass: lazily filled state (thread-local arenas,
  // the first touch of every page) is not part of a timed pass. Its
  // checks still count.
  pass(kPlain);
  const Measured warmup = run.plain.front();
  run.plain.clear();
  const std::int64_t deadline =
      perfbench::spans::now_ns() +
      static_cast<std::int64_t>(args.seconds * 1e9);
  if (args.trace == 0) {
    // More set-ups, spread over the timed window on a spare workload and
    // pool, so that setup_s samples the same stretch of time as the
    // passes: the host's speed drifts over seconds. They take at most
    // about a fifth of the window.
    std::unique_ptr<perfbench::Workload> spare;
    std::unique_ptr<ThreadPool> spare_pool;
    std::int64_t next_setup = 0;
    do {
      pass(kPlain);
      const std::int64_t now = perfbench::spans::now_ns();
      if (now >= next_setup && now < deadline) {
        const double s = timed_setup(spare, spare_pool);
        spare.reset();
        spare_pool.reset();
        next_setup = perfbench::spans::now_ns() +
                     static_cast<std::int64_t>(std::max(0.25, 4 * s) * 1e9);
      }
    } while (perfbench::spans::now_ns() < deadline || run.plain.size() < 3);
    std::printf("setup_reps=%zu setup_ms: p10=%.4f p50=%.4f p90=%.4f\n",
                run.setup_s.size(), 1e3 * percentile(run.setup_s, 10),
                1e3 * percentile(run.setup_s, 50),
                1e3 * percentile(run.setup_s, 90));
  } else {
    // A cycle runs every mode once. Each overhead ratio compares two
    // neighbouring passes that run the same code, and odd cycles run in
    // reverse order, so slow drift of the host cancels out of the ratios.
    constexpr Mode kCycle[] = {kPlain, kProfiled, kTraced, kDecomposed};
    for (int cycle = 0;
         perfbench::spans::now_ns() < deadline || run.plain.size() < 5;
         ++cycle) {
      double wall[4] = {};
      for (int k = 0; k < 4; ++k) {
        const Mode mode = kCycle[cycle % 2 == 0 ? k : 3 - k];
        wall[mode] = pass(mode);
      }
      run.trace_ratios.push_back(ratio(wall[kTraced], wall[kDecomposed]));
      run.profile_ratios.push_back(ratio(wall[kProfiled], wall[kPlain]));
    }
  }
  run.cache_hit_ns = args.trace == 1 ? workload->cache_hit_ns() : 0;

  // Checks: per-pass checks, digest agreement across every pass and the
  // 1-thread pass, no dropped obs event (the profiler's reconstruction
  // needs every one), the workload's oracle, and the traced run's bounds.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::uint64_t digest = run.plain.front().pass.digest;
  const auto account = [&](const Measured& m) {
    attempted += m.pass.stics;
    const bool whole = m.pass.digest != digest || m.counters.obs_dropped != 0;
    failed += whole ? m.pass.stics : m.pass.failed;
  };
  account(warmup);
  for (const auto* set :
       {&run.plain, &run.profiled, &run.traced, &run.decomposed}) {
    for (const Measured& m : *set) account(m);
  }
  account(Measured{single, {}});
  const perfbench::FinalCheck oracle = workload->final_check();
  attempted += oracle.attempted;
  failed += oracle.failed;
  if (args.trace == 1) {
    attempted += 1;
    if (!run.trace_trusted()) failed += 1;
  }
  std::printf("digest=%s one_thread_digest=%s match=%s\n", hex(digest).c_str(),
              hex(single.digest).c_str(),
              single.digest == digest ? "yes" : "NO");
  std::printf("checks: attempted=%llu failed=%llu failed_frac=%.6g "
              "oracle_attempted=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(oracle.attempted));

  Metrics metrics;
  if (args.trace == 0) {
    std::printf("passes=%zu pass_walls_ms=", run.plain.size());
    for (std::size_t i = 0; i < run.plain.size(); ++i) {
      std::printf("%s%.1f", i == 0 ? "" : ",", 1e3 * wall_s(run.plain[i].pass));
    }
    std::printf("\n");
    add_end_to_end(metrics, run);
  } else {
    print_attribution(run);
    if (!args.spans_out.empty() &&
        !perfbench::spans::write_chrome_trace(args.spans_out, last_spans)) {
      std::fprintf(stderr, "rdv_perfbench: cannot write %s\n",
                   args.spans_out.c_str());
    }
    add_per_layer(metrics, run);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rdv_perfbench: %s\n", e.what());
    return 2;
  }
}
