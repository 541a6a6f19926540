#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

/// Turns one traced pass's spans into per-layer self times and
/// scheduler figures.
///
/// Self time of a span is its duration minus the part covered by spans
/// nested inside it on the same thread. Spans of layer "sweep" wrap a
/// sweep_map call: their self time is the calling thread waiting for
/// (or merging) the sweep's chunks, i.e. scheduler time, not kernel
/// execution. Spans of layer "task" wrap one pool task the harness
/// submits: their self time is work inside the task that no named call
/// covers, i.e. unattributed. Everything else a span covers is execution
/// of the span's layer ("bench" is the harness's own named work).
namespace perfbench {

struct Attribution {
  double wall_s = 0;
  /// Self seconds per layer, and per "layer.name" call.
  std::map<std::string, double> layer_self_s;
  std::map<std::string, double> call_self_s;
  std::map<std::string, double> call_total_s;
  std::map<std::string, std::uint64_t> call_count;
  std::map<std::string, std::uint64_t> call_arg_sum;
  /// Durations of every sim.run_anonymous span, in ms.
  std::vector<double> sim_run_ms;
  /// Σ self time of non-sweep spans over all threads.
  double exec_s = 0;
  /// threads × wall − exec.
  double idle_s = 0;
  /// exec ÷ (threads × wall).
  double parallel_efficiency = 0;
  /// Largest single-thread share of exec.
  double max_thread_share = 0;
  /// Thread time no named call covers — the self time of "task" spans
  /// plus the driving thread's pass wall outside every span — over
  /// threads × wall.
  double unattributed_frac = 0;
  /// One line per sweep whose items one thread carried almost alone.
  std::vector<std::string> serialized;
};

[[nodiscard]] Attribution attribute(const std::vector<spans::Span>& spans,
                                    std::int64_t pass_start_ns,
                                    std::int64_t pass_end_ns,
                                    std::size_t threads);

}  // namespace perfbench
