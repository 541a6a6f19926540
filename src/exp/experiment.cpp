#include "exp/experiment.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "support/env.hpp"

namespace rdv::exp {

const char* scale_name(Scale scale) noexcept {
  switch (scale) {
    case Scale::kSmoke: return "smoke";
    case Scale::kQuick: return "quick";
    case Scale::kFull: return "full";
    case Scale::kCensus: return "census";
  }
  return "?";
}

ExpOutput run_experiment(const Experiment& experiment,
                         const ExpContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  // One span per experiment and one per case ("exp.case" category,
  // case index in args) — the per-scenario skeleton a Perfetto view of
  // a whole run hangs off. Sidecar-only: spans never touch the table.
  obs::Span exp_span("exp", experiment.id);
  const std::vector<CaseFn> cases = experiment.cases(ctx);
  exp_span.arg("cases", cases.size());
  ExpOutput output{support::Table(experiment.headers), {}, {}, 0};
  // Cases run at the sweep's derived grain: one case per chunk until an
  // experiment has more than 16 cases per pool thread. Kernels that
  // sweep on the pool themselves (t2) fan out here too: waits are
  // work-assisting, so a nested sweep blocking inside a pool task
  // executes its own chunks instead of deadlocking the worker. The
  // sweep merges by case index, so rows and detail records come out in
  // case order whatever order the cases finished in.
  std::vector<CaseOutput> results = sweep::sweep_map<CaseOutput>(
      cases.size(),
      [&](std::size_t i) {
        obs::Span case_span("exp.case", experiment.id);
        case_span.arg("case", i);
        return cases[i](ctx);
      },
      ctx.sweep);
  output.items_total = cases.size();
  for (CaseOutput& result : results) {
    if (!result.row.empty()) output.table.add_row(std::move(result.row));
    if (result.detail.has_value()) {
      output.details.push_back(std::move(*result.detail));
    }
  }
  if (experiment.notes) output.notes = experiment.notes(ctx);
  output.wall_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return output;
}

void Registry::add(Experiment experiment) {
  if (experiment.id.empty()) {
    throw std::invalid_argument("Registry::add: empty experiment id");
  }
  if (find(experiment.id) != nullptr) {
    throw std::invalid_argument("Registry::add: duplicate experiment id " +
                                experiment.id);
  }
  if (!experiment.cases) {
    throw std::invalid_argument("Registry::add: experiment " +
                                experiment.id + " has no case generator");
  }
  experiments_.push_back(std::move(experiment));
}

const Experiment* Registry::find(std::string_view id) const {
  for (const Experiment& e : experiments_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

std::vector<const Experiment*> Registry::match(
    std::string_view filter) const {
  std::vector<const Experiment*> matched;
  for (const Experiment& e : experiments_) {
    bool hit = filter.empty() ||
               e.id.find(filter) != std::string::npos ||
               e.title.find(filter) != std::string::npos;
    for (const std::string& tag : e.tags) {
      if (hit) break;
      hit = tag.find(filter) != std::string::npos;
    }
    if (hit) matched.push_back(&e);
  }
  return matched;
}

EmitOptions emit_options_from_env() {
  EmitOptions options;
  options.csv_dir = support::repro_csv_dir();
  options.json_dir = support::repro_json_dir();
  return options;
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << contents;
  // A disk-full short write surfaces here, not at open: only a clean
  // flush may report the path as successfully emitted.
  if (!out.flush().good()) {
    std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

std::vector<std::string> emit(const Experiment& experiment,
                              const ExpOutput& output,
                              const EmitOptions& options) {
  if (options.markdown) {
    std::printf("%s\n%s", experiment.title.c_str(),
                output.table.to_markdown().c_str());
    for (const std::string& note : output.notes) {
      std::printf("\n%s\n", note.c_str());
    }
  }
  if (options.json_stdout) {
    std::printf("%s", output.table.to_json().c_str());
  }
  std::vector<std::string> written;
  if (!options.csv_dir.empty()) {
    const std::string path =
        options.csv_dir + "/" + experiment.id + ".csv";
    if (write_file(path, output.table.to_csv())) written.push_back(path);
  }
  if (!options.json_dir.empty()) {
    const std::string path =
        options.json_dir + "/" + experiment.id + ".json";
    if (write_file(path, output.table.to_json())) written.push_back(path);
  }
  return written;
}

}  // namespace rdv::exp
