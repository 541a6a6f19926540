#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/thread_pool.hpp"

/// The benchmark's four workloads. Each one generates its inputs from
/// the seed, builds its ready state in setup(), and then runs closed-loop
/// passes: one pass over all inputs, the next starting when it ends.
namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  /// A few small inputs instead of the real ones (self-test).
  bool tiny = false;
  /// Directory the workload may create stores in (inside the checkout).
  std::string work_dir;
};

/// Wall clock plus process CPU (user + sys, all threads).
struct Stamp {
  std::int64_t wall_ns = 0;
  double cpu_s = 0;
};
[[nodiscard]] Stamp stamp();

struct SetupOutcome {
  double graph_gen_s = 0;
  double uxs_verify_s = 0;
  std::uint64_t uxs_verifications = 0;
};

/// One pass: its timed interval, the STICs it decided, the checks that
/// failed, a digest of every per-STIC or per-graph result, and the
/// layer counts the workload observed itself.
struct PassOutcome {
  Stamp start;
  Stamp end;
  std::uint64_t stics = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::uint64_t sim_runs = 0;
  std::uint64_t sim_moves = 0;
  std::uint64_t sim_rounds = 0;
  std::uint64_t uxs_calls = 0;
  std::uint64_t qhat_materialized = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t store_bytes_written = 0;
  std::uint64_t store_bytes_read = 0;
};

/// Result of the checks that run once, after the timed passes.
struct FinalCheck {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the inputs and everything a pass needs. Called once, before
  /// the first pass.
  virtual SetupOutcome setup(rdv::support::ThreadPool& pool) = 0;

  /// One closed-loop pass. `decomposed` issues the layer calls the
  /// library call would make one at a time, each inside a span (which
  /// records only while spans are enabled).
  virtual PassOutcome pass(rdv::support::ThreadPool& pool,
                           bool decomposed) = 0;

  /// Hash of the generated inputs (graphs and their parameters).
  [[nodiscard]] virtual std::uint64_t inputs_digest() const = 0;

  /// Independent-oracle checks against the results of the last pass.
  virtual FinalCheck final_check() = 0;

  /// ns per memory-tier artifact hit, measured on the workload's own
  /// cache (0 when the workload uses no cache).
  virtual double cache_hit_ns() = 0;
};

[[nodiscard]] std::vector<std::string> workload_names();
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Options& options);

}  // namespace perfbench
