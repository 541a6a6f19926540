#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// The benchmark's own in-memory span recorder.
///
/// Every call the harness makes into an rdv layer can be wrapped in a
/// Scope naming the layer ("sim", "views", "store", ...) and the call.
/// A span records its start, end, parent span and recording thread.
/// Parents come from a per-thread stack, so spans opened inside a call
/// nest under it; a pool task adopts its logical parent (the sweep that
/// scheduled it) by passing the parent id explicitly. Recording appends
/// to a per-thread buffer without locks. Everything is off until
/// set_enabled(true); a disabled Scope costs one relaxed load.
namespace perfbench::spans {

struct Span {
  const char* layer = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  /// Logical parent span id (0 = none).
  std::uint32_t parent = 0;
  /// Recording thread, in first-use order.
  std::uint32_t thread = 0;
  /// Free integer argument (a graph index, a pair count, ...).
  std::uint64_t arg = 0;
};

[[nodiscard]] std::int64_t now_ns() noexcept;

void set_enabled(bool enabled) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Marks the calling thread as the benchmark's driving thread (the one
/// that times passes); every other recording thread is a pool worker.
void mark_main_thread();
[[nodiscard]] std::uint32_t main_thread();

class Scope {
 public:
  Scope(const char* layer, const char* name, std::uint64_t arg = 0,
        std::uint32_t parent = 0) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This span's id (0 when recording is off) — pass it to a pool task
  /// so the task's spans hang under it.
  [[nodiscard]] std::uint32_t id() const noexcept { return span_.id; }

 private:
  Span span_;
};

/// Moves every recorded span out of the per-thread buffers. Call only
/// while no thread is recording (between passes).
[[nodiscard]] std::vector<Span> drain();

/// Writes spans as a Chrome trace ("X" events, ts/dur in microseconds,
/// tid = recording thread). Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench::spans
