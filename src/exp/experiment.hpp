#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/result_log.hpp"
#include "support/table.hpp"
#include "sweep/sweep.hpp"

/// The experiment registry (ISSUE 3 tentpole).
///
/// Every experiment table/figure of the reproduction is one declarative
/// Experiment record: an id, its parameter axes, an output schema (the
/// table headers), and a kernel that renders one case into one row.
/// The registry runner executes every case through sweep::sweep_map on
/// the shared pool + artifact cache, merges rows in case order (the
/// sweep substrate's byte-identical-at-any-thread-count contract), and
/// emits the result uniformly as markdown / CSV / JSON. One driver
/// binary (`rdv_bench`) lists, filters, and runs everything registered.
namespace rdv::exp {

/// How big the parameter axes are instantiated.
enum class Scale {
  /// Tiny: a strict subset of kQuick sized for CI smoke jobs and the
  /// exp_test determinism matrix (seconds for the whole registry).
  kSmoke,
  /// The default bench run (the old no-REPRO_FULL behavior).
  kQuick,
  /// The paper-scale sweep (the old REPRO_FULL=1 behavior).
  kFull,
  /// Census: a strict superset of kFull growing the random-graph STIC
  /// censuses (REPRO_CENSUS=1 / --census). Opt-in only — never reached
  /// from tier-1 tests or CI smoke — so axes here may take minutes.
  kCensus,
};

/// Stable name of a scale ("smoke", "quick", "full", "census") — the
/// string logged into result records.
[[nodiscard]] const char* scale_name(Scale scale) noexcept;

/// Everything a case kernel may depend on besides its own parameters.
/// The sweep config carries the pool and the artifact cache (the sweep
/// layer derives its own chunking from each sweep's size and the pool
/// width); kernels resolve shared artifacts through `cache()` so a
/// disabled cache degrades to recomputation without changing output.
struct ExpContext {
  Scale scale = Scale::kQuick;
  sweep::SweepConfig sweep;

  /// Census axes extend full axes, so full() is true at census too —
  /// scenarios guard their big branches with full() and add census-only
  /// growth behind census().
  [[nodiscard]] bool full() const noexcept { return scale >= Scale::kFull; }
  [[nodiscard]] bool census() const noexcept {
    return scale == Scale::kCensus;
  }
  [[nodiscard]] bool smoke() const noexcept {
    return scale == Scale::kSmoke;
  }
  /// Cache to resolve artifacts through; nullptr means the global one
  /// (the cached_* entry points accept exactly this).
  [[nodiscard]] cache::ArtifactCache* cache() const noexcept {
    return sweep.cache;
  }
};

/// What one case produces: its table row (empty means "no row"; the
/// case is skipped in the table) and, for the censuses, a per-case
/// detail record for the result log. Detail records must not carry
/// wall-clock fields, so the log stays byte-identical at every thread
/// count. Implicit from a bare row, for the scenarios that log nothing
/// per case.
struct CaseOutput {
  CaseOutput() = default;
  CaseOutput(std::vector<std::string> row_in) : row(std::move(row_in)) {}
  std::vector<std::string> row;
  std::optional<store::ResultRecord> detail;
};

/// Computes one case. Must be thread-safe: cases execute concurrently
/// on pool workers (including cases that run nested sweeps — pool
/// waits are work-assisting, so blocking on an inner sweep from a pool
/// task is safe).
using CaseFn = std::function<CaseOutput(const ExpContext&)>;

/// Declarative description of one experiment.
struct Experiment {
  /// Stable id ("t5_universal_time") — the CSV/JSON file stem and the
  /// driver's run argument.
  std::string id;
  /// Heading printed above the table.
  std::string title;
  /// One-liner for `rdv_bench --list`.
  std::string summary;
  /// Human-readable parameter axes for `--describe` (what varies per
  /// row, and how the scales differ).
  std::vector<std::string> axes;
  /// Output schema: the table headers every case row must match.
  std::vector<std::string> headers;
  /// Filter tags ("table", "figure", "ablation", "lower-bound", ...).
  std::vector<std::string> tags;
  /// Instantiates the case list for the context's scale. Runs serially;
  /// put per-case work in the returned kernels, not here.
  std::function<std::vector<CaseFn>(const ExpContext&)> cases;
  /// Optional note lines printed after the table (the old trailing
  /// printf commentary).
  std::function<std::vector<std::string>(const ExpContext&)> notes;
};

struct ExpOutput {
  support::Table table;
  std::vector<std::string> notes;
  /// Every case's detail record, in case order (empty for the
  /// scenarios that log none). The driver appends them to the result
  /// log before the experiment's own summary record.
  std::vector<store::ResultRecord> details;
  /// Cases the experiment ran (the table's row count is the number of
  /// rows they produced).
  std::size_t items_total = 0;
  /// Wall-clock of the whole run_experiment call (case generation +
  /// sweep + merge). Scheduling-dependent: reported as the metrics
  /// snapshot's exp.<id>.wall_micros and in the binary result log,
  /// never printed into the tables (those stay byte-identical across
  /// thread counts and warm/cold stores).
  std::uint64_t wall_micros = 0;
};

/// Instantiates the experiment's cases and executes them on the sweep
/// substrate (sweep_map at its derived grain), merging rows and detail
/// records in case order. Output is byte-identical for any pool size
/// and any cache configuration (tests/exp_test.cpp pins this for every
/// registered experiment).
[[nodiscard]] ExpOutput run_experiment(const Experiment& experiment,
                                       const ExpContext& ctx);

/// Ordered collection of experiments; ids are unique.
class Registry {
 public:
  /// Registers; throws std::invalid_argument on a duplicate id.
  void add(Experiment experiment);

  [[nodiscard]] const Experiment* find(std::string_view id) const;

  /// Experiments whose id, title, or any tag contains `filter`
  /// (case-sensitive substring); empty filter matches everything.
  [[nodiscard]] std::vector<const Experiment*> match(
      std::string_view filter) const;

  [[nodiscard]] const std::vector<Experiment>& all() const noexcept {
    return experiments_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return experiments_.size();
  }

 private:
  std::vector<Experiment> experiments_;
};

/// Where run results go. Markdown (heading + table + notes) prints to
/// stdout; CSV/JSON files are written per experiment when the
/// directories are nonempty.
struct EmitOptions {
  bool markdown = true;
  /// Also print the JSON rendering to stdout (after the table).
  bool json_stdout = false;
  std::string csv_dir;
  std::string json_dir;
};

/// csv_dir/json_dir from REPRO_CSV_DIR / REPRO_JSON_DIR.
[[nodiscard]] EmitOptions emit_options_from_env();

/// Writes contents to path, reporting success only when the stream
/// flushed clean — a disk-full short write must not claim an emitted
/// file. Exposed so tests can drive the failure paths directly.
bool write_file(const std::string& path, const std::string& contents);

/// Emits one experiment's output; returns the file paths written.
std::vector<std::string> emit(const Experiment& experiment,
                              const ExpOutput& output,
                              const EmitOptions& options);

}  // namespace rdv::exp
