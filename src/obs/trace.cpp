#include "obs/trace.hpp"

#include <functional>
#include <limits>
#include <map>
#include <mutex>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace rdv::obs {

namespace {

/// Append-only string table behind the events' 16-bit string ids. Only
/// span open/arg/render touch it, never with a ring mutex held.
struct InternTable {
  static constexpr std::uint16_t kFullId = 1;
  support::RankedMutex mutex{support::LockRank::kObsRing};
  std::vector<std::string> strings{"", "(intern table full)"};
  std::map<std::string, std::uint16_t, std::less<>> ids;
};

InternTable& intern_table() {
  static InternTable table;
  return table;
}

/// Interns `s` and returns its id; 0 is the empty string.
std::uint16_t intern_event_string(std::string_view s) {
  if (s.empty()) return 0;
  InternTable& table = intern_table();
  std::lock_guard lock(table.mutex);
  if (const auto it = table.ids.find(s); it != table.ids.end()) {
    return it->second;
  }
  if (table.strings.size() > std::numeric_limits<std::uint16_t>::max()) {
    return InternTable::kFullId;
  }
  const auto id = static_cast<std::uint16_t>(table.strings.size());
  table.strings.emplace_back(s);
  table.ids.emplace(s, id);
  return id;
}

}  // namespace

std::string event_string(std::uint16_t id) {
  InternTable& table = intern_table();
  std::lock_guard lock(table.mutex);
  return id < table.strings.size() ? table.strings[id] : std::string();
}

Span::Span(const char* category, std::string_view name)
    : active_(task_events_enabled()) {
  if (!active_) return;
  category_ = intern_event_string(category);
  name_ = intern_event_string(name);
  start_micros_ = now_micros();
}

void Span::arg(const char* key, std::uint64_t value) {
  if (!active_) return;
  arg_key_ = intern_event_string(key);
  arg_value_ = value;
}

Span::~Span() {
  if (!active_) return;
  TaskEvent event;
  event.kind = TaskEventKind::kSpan;
  event.t_micros = start_micros_;
  event.a = now_micros() - start_micros_;
  event.b = arg_value_;
  event.category = category_;
  event.name = name_;
  event.arg_key = arg_key_;
  record_event(event);
}

void append_chrome_slice(std::string& out, std::string_view name,
                         std::string_view category, std::uint32_t tid,
                         std::uint64_t ts, std::uint64_t dur,
                         const std::string& args) {
  out += "{\"name\":";
  json::append_string(out, name);
  out += ",\"cat\":";
  json::append_string(out, category);
  out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"ts\":" + std::to_string(ts) + ",\"dur\":" + std::to_string(dur);
  if (!args.empty()) out += ",\"args\":{" + args + "}";
  out += '}';
}

std::string render_chrome_trace(const std::vector<TaskEvent>& events,
                                const std::string& extra_events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TaskEvent& e : events) {
    if (e.kind != TaskEventKind::kSpan) continue;
    if (!first) out += ',';
    first = false;
    std::string args;
    if (e.arg_key != 0) {
      json::append_string(args, event_string(e.arg_key));
      args += ':' + std::to_string(e.b);
    }
    append_chrome_slice(out, event_string(e.name), event_string(e.category),
                        e.tid, e.t_micros, e.a, args);
  }
  if (!extra_events.empty()) {
    if (!first) out += ',';
    out += extra_events;
  }
  out += "]}";
  return out;
}

}  // namespace rdv::obs
