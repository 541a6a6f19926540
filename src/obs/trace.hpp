#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/task_events.hpp"

/// Spans on the one event ring (obs/task_events.hpp), and the Chrome
/// `chrome://tracing` / Perfetto rendering of a drained event stream.
///
/// Design:
///  - A Span stamps its start on construction and, when it closes,
///    records one kSpan event (start, duration, category, optional
///    integer arg) on the calling thread's ring. Recording is the
///    ring's one switch (task_events_enabled): while it is off, a Span
///    costs one relaxed atomic load and records nothing.
///  - Names, categories and arg keys are interned, while recording is
///    on, into an append-only process-wide table; the event stores
///    their ids. Dynamically built names of any length are safe, and a
///    span is one fixed-size ring event like any other.
///  - A span still open when the ring is drained (e.g. a parked
///    worker's assist) is not in the file.
///
/// Like metrics, traces are sidecar-only: nothing here touches stdout
/// or experiment output bytes.
namespace rdv::obs {

/// The string behind a span event's interned id ("" for id 0 or an
/// unknown id). Ids are stable for the process; past 65,535 distinct
/// strings every new one shares an id rendering "(intern table full)".
[[nodiscard]] std::string event_string(std::uint16_t id);

/// RAII span: stamps the start on construction, records on
/// destruction. When recording is off at construction it records
/// nothing (even if recording is switched on mid-span).
class Span {
 public:
  Span(const char* category, std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches the single integer argument (last call wins).
  void arg(const char* key, std::uint64_t value);

 private:
  bool active_;
  std::uint16_t category_ = 0;
  std::uint16_t name_ = 0;
  std::uint16_t arg_key_ = 0;
  std::uint64_t arg_value_ = 0;
  std::uint64_t start_micros_ = 0;
};

/// Renders the kSpan events of a drained stream as a Chrome trace JSON
/// object (traceEvents array of "X" phase events; ts/dur in micros;
/// pid 1; tid = thread_obs_id). `extra_events` is an optional
/// pre-rendered fragment (comma-joined event objects, no surrounding
/// brackets) spliced into the array — the task profiler's slices and
/// flow events (obs/profile.hpp) arrive this way.
[[nodiscard]] std::string render_chrome_trace(
    const std::vector<TaskEvent>& events,
    const std::string& extra_events = {});

/// Appends one Chrome "X" (complete) event object — no separating
/// comma. `args` is a rendered `"key":value,...` list (empty = none).
/// The one slice writer of the span and profile renderers.
void append_chrome_slice(std::string& out, std::string_view name,
                         std::string_view category, std::uint32_t tid,
                         std::uint64_t ts, std::uint64_t dur,
                         const std::string& args);

// ---- kept for perfbench/; the next benchmark PR deletes them ----------
inline void set_trace_enabled(bool on) noexcept { set_task_events_enabled(on); }
inline void clear_trace() { clear_task_events(); }
inline std::uint64_t trace_dropped_count() noexcept { return 0; }

}  // namespace rdv::obs
