#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rdv::obs {

namespace {

std::uint64_t clamped_sub(std::uint64_t a, std::uint64_t b) noexcept {
  return a > b ? a - b : 0;
}

std::string format_ms(std::uint64_t micros) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", static_cast<double>(micros) / 1000.0);
  return buf;
}

std::string format_pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", fraction * 100.0);
  return buf;
}

// ---- the profile sidecar's records ---------------------------------
//
// One field list per record type, in render order: the renderer and
// the strict parser both walk it, so the two can never disagree.

constexpr auto kTaskFields = [](auto& t, const auto& field) {
  field("id", t.id);
  field("sweep", t.sweep);
  field("chunk", t.chunk);
  field("is_chunk", t.is_chunk);
  field("stolen", t.stolen);
  field("victim", t.steal_victim);
  field("submit_tid", t.submit_tid);
  field("exec_tid", t.exec_tid);
  field("submit", t.submit_t);
  field("dequeue", t.dequeue_t);
  field("begin", t.begin_t);
  field("end", t.end_t);
};
constexpr auto kMergeFields = [](auto& m, const auto& field) {
  field("sweep", m.sweep);
  field("chunk", m.chunk);
  field("tid", m.tid);
  field("begin", m.begin_t);
  field("end", m.end_t);
};
constexpr auto kParkFields = [](auto& p, const auto& field) {
  field("tid", p.tid);
  field("begin", p.begin_t);
  field("end", p.end_t);
};
constexpr auto kSweepFields = [](auto& s, const auto& field) {
  field("id", s.id);
  field("chunks", s.chunks);
  field("items", s.items);
  field("tid", s.tid);
  field("begin", s.begin_t);
  field("end", s.end_t);
};

/// Appends ,"key":[{...},...] for one record array.
template <typename Record, typename Fields>
void append_records(std::string& out, const char* key,
                    const std::vector<Record>& records,
                    const Fields& fields) {
  out += ",\"" + std::string(key) + "\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 0) out += ',';
    char sep = '{';
    fields(records[i], [&](const char* name, const auto& value) {
      out += sep;
      sep = ',';
      out += "\"" + std::string(name) + "\":";
      if constexpr (std::is_same_v<std::decay_t<decltype(value)>, bool>) {
        out += value ? "true" : "false";
      } else {
        out += std::to_string(value);
      }
    });
    out += '}';
  }
  out += ']';
}

using json::Cursor;

/// Parses one record array; `what` names the record in errors.
template <typename Record, typename Fields>
void parse_records(Cursor& cursor, const char* what,
                   std::vector<Record>& records, const Fields& fields) {
  json::parse_array(cursor, [&] {
    Record record;
    json::parse_object(cursor, [&](const std::string& key) {
      bool known = false;
      fields(record, [&](const char* name, auto& value) {
        if (known || key != name) return;
        known = true;
        using Value = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<Value, bool>) {
          value = cursor.parse_bool();
        } else {
          value = static_cast<Value>(cursor.parse_uint());
        }
      });
      if (!known) {
        cursor.fail(std::string("unknown ") + what + " field '" + key + "'");
      }
    });
    records.push_back(record);
  });
}

constexpr std::uint64_t kProfileFormat = 1;

/// Flow ids for the chunk-end -> merge-begin arrows live in a distinct
/// id space from the submit -> begin arrows (which use the task id).
constexpr std::uint64_t kMergeFlowBase = 1ULL << 62;

/// Adds one latency sample to a plain (single-threaded) log2
/// histogram, bucketed like obs::Histogram.
void observe(HistogramSnapshot& hist, std::uint64_t value) {
  hist.buckets[histogram_bucket(value)] += 1;
  ++hist.count;
  hist.sum += value;
}

void append_histogram_lines(std::string& out, const HistogramSnapshot& hist) {
  if (hist.count == 0) {
    out += "  (empty)\n";
    return;
  }
  for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
    if (hist.buckets[b] == 0) continue;
    const std::uint64_t lo = b == 0 ? 0 : 1ULL << (b - 1);
    const std::uint64_t hi = b == 0 ? 1 : 1ULL << b;
    out += "  [" + std::to_string(lo) + "," + std::to_string(hi) +
           ") us: " + std::to_string(hist.buckets[b]) + "\n";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", hist.mean());
  out += "  mean " + std::string(buf) + " us over " +
         std::to_string(hist.count) + " samples\n";
}

/// The executions of profile.tasks (at index i) and, after them, of
/// profile.merges (at index tasks.size() + i), each less what nested in
/// it on its thread: a task waiting on a sweep runs chunks and merges
/// itself (work-assisting) and parks between them, and that time is
/// theirs, not the waiting task's.
std::vector<std::uint64_t> self_micros(const Profile& profile) {
  struct Slice {
    std::uint32_t tid;
    std::uint64_t begin;
    std::uint64_t end;
    std::size_t index;
  };
  std::vector<Slice> slices;
  std::vector<std::uint64_t> self;
  for (const TaskProfile& t : profile.tasks) {
    if (t.begin_t != 0 && t.end_t != 0) {
      slices.push_back({t.exec_tid, t.begin_t, t.end_t, self.size()});
    }
    self.push_back(t.exec_micros());
  }
  for (const MergeProfile& m : profile.merges) {
    slices.push_back({m.tid, m.begin_t, m.end_t, self.size()});
    self.push_back(m.micros());
  }
  for (const ParkInterval& p : profile.parks) {
    slices.push_back({p.tid, p.begin_t, p.end_t, self.size()});
    self.push_back(clamped_sub(p.end_t, p.begin_t));
  }
  // Per thread, by begin and enclosing first: a slice nests in the
  // innermost open slice that ends after it begins.
  std::sort(slices.begin(), slices.end(), [](const Slice& a, const Slice& b) {
    return std::tie(a.tid, a.begin, b.end) < std::tie(b.tid, b.begin, a.end);
  });
  std::vector<const Slice*> open;
  for (const Slice& s : slices) {
    while (!open.empty() &&
           (open.back()->tid != s.tid || open.back()->end <= s.begin)) {
      open.pop_back();
    }
    if (!open.empty()) {
      const std::uint64_t nested = std::min(s.end, open.back()->end) - s.begin;
      std::uint64_t& outer = self[open.back()->index];
      outer -= std::min(outer, nested);
    }
    open.push_back(&s);
  }
  return self;
}

/// Per-thread busy/park aggregation shared by report and diff.
struct ThreadUsage {
  std::uint64_t busy_micros = 0;
  std::uint64_t park_micros = 0;
  std::uint64_t tasks = 0;
  std::uint64_t merges = 0;
};

std::map<std::uint32_t, ThreadUsage> thread_usage(const Profile& profile) {
  std::map<std::uint32_t, ThreadUsage> usage;
  for (const auto& [tid, busy] : thread_busy_micros(profile)) {
    usage[tid].busy_micros = busy;
  }
  for (const TaskProfile& t : profile.tasks) {
    if (t.begin_t != 0 && t.end_t != 0) ++usage[t.exec_tid].tasks;
  }
  for (const MergeProfile& m : profile.merges) ++usage[m.tid].merges;
  for (const ParkInterval& p : profile.parks) {
    usage[p.tid].park_micros += clamped_sub(p.end_t, p.begin_t);
  }
  return usage;
}

std::uint64_t executed_task_count(const Profile& profile) {
  std::uint64_t executed = 0;
  for (const TaskProfile& t : profile.tasks) {
    if (t.begin_t != 0) ++executed;
  }
  return executed;
}

std::uint64_t stolen_task_count(const Profile& profile) {
  std::uint64_t stolen = 0;
  for (const TaskProfile& t : profile.tasks) {
    if (t.stolen) ++stolen;
  }
  return stolen;
}

std::uint64_t total_exec_micros(const Profile& profile) {
  const std::vector<std::uint64_t> self = self_micros(profile);
  return std::accumulate(self.begin(), self.begin() + profile.tasks.size(),
                         std::uint64_t{0});
}

}  // namespace

std::map<std::uint32_t, std::uint64_t> thread_busy_micros(
    const Profile& profile) {
  const std::vector<std::uint64_t> self = self_micros(profile);
  std::map<std::uint32_t, std::uint64_t> busy;
  for (std::size_t i = 0; i < profile.tasks.size(); ++i) {
    const TaskProfile& t = profile.tasks[i];
    if (t.begin_t != 0 && t.end_t != 0) busy[t.exec_tid] += self[i];
  }
  for (std::size_t i = 0; i < profile.merges.size(); ++i) {
    busy[profile.merges[i].tid] += self[profile.tasks.size() + i];
  }
  return busy;
}

Profile build_profile(const std::vector<TaskEvent>& events) {
  Profile profile;
  profile.dropped = task_events_dropped_count();

  std::unordered_map<std::uint64_t, TaskProfile> tasks;
  std::map<std::pair<std::uint64_t, std::uint64_t>, MergeProfile> merges;
  std::unordered_map<std::uint32_t, std::uint64_t> pending_park;
  std::map<std::uint64_t, SweepProfile> sweeps;

  for (const TaskEvent& e : events) {
    // Spans share the ring but are no part of the scheduler model.
    if (e.kind == TaskEventKind::kSpan) continue;
    ++profile.events;
    if (profile.t_min == 0 || e.t_micros < profile.t_min) {
      profile.t_min = e.t_micros;
    }
    profile.t_max = std::max(profile.t_max, e.t_micros);
    // The record each kind updates, created keyed on first sight.
    const auto task = [&]() -> TaskProfile& {
      TaskProfile& t = tasks[e.task];
      t.id = e.task;
      return t;
    };
    const auto sweep = [&]() -> SweepProfile& {
      SweepProfile& s = sweeps[e.a];
      s.id = e.a;
      return s;
    };
    const auto merge = [&]() -> MergeProfile& {
      MergeProfile& m = merges[{e.a, e.b}];
      m.sweep = e.a;
      m.chunk = e.b;
      return m;
    };
    switch (e.kind) {
      case TaskEventKind::kSubmit:
        task().submit_t = e.t_micros;
        task().submit_tid = e.tid;
        break;
      case TaskEventKind::kDequeue:
        task().dequeue_t = e.t_micros;
        break;
      case TaskEventKind::kSteal:
        task().dequeue_t = e.t_micros;
        task().stolen = true;
        task().steal_victim = e.a;
        break;
      case TaskEventKind::kBegin:
        task().begin_t = e.t_micros;
        task().exec_tid = e.tid;
        break;
      case TaskEventKind::kEnd:
        task().end_t = e.t_micros;
        break;
      case TaskEventKind::kPark:
        pending_park[e.tid] = e.t_micros;
        break;
      case TaskEventKind::kUnpark: {
        const auto it = pending_park.find(e.tid);
        // An unpark whose park was overwritten (ring wrap) has no
        // interval to close; skip it rather than invent one.
        if (it == pending_park.end()) break;
        profile.parks.push_back(ParkInterval{e.tid, it->second, e.t_micros});
        pending_park.erase(it);
        break;
      }
      case TaskEventKind::kSweepBegin:
        sweep().chunks = e.b;
        sweep().tid = e.tid;
        sweep().begin_t = e.t_micros;
        break;
      case TaskEventKind::kSweepEnd:
        sweep().items = e.b;
        sweep().end_t = e.t_micros;
        break;
      case TaskEventKind::kChunkTask:
        task().sweep = e.a;
        task().chunk = e.b;
        task().is_chunk = true;
        break;
      case TaskEventKind::kMergeBegin:
        merge().tid = e.tid;
        merge().begin_t = e.t_micros;
        break;
      case TaskEventKind::kMergeEnd:
        merge().end_t = e.t_micros;
        break;
      case TaskEventKind::kSpan:
        break;
    }
  }

  profile.tasks.reserve(tasks.size());
  for (const auto& [id, t] : tasks) profile.tasks.push_back(t);
  std::sort(profile.tasks.begin(), profile.tasks.end(),
            [](const TaskProfile& a, const TaskProfile& b) {
              return a.id < b.id;
            });
  profile.merges.reserve(merges.size());
  for (const auto& [key, m] : merges) profile.merges.push_back(m);
  profile.sweeps.reserve(sweeps.size());
  for (const auto& [id, s] : sweeps) profile.sweeps.push_back(s);
  std::sort(profile.parks.begin(), profile.parks.end(),
            [](const ParkInterval& a, const ParkInterval& b) {
              return a.begin_t != b.begin_t ? a.begin_t < b.begin_t
                                           : a.tid < b.tid;
            });
  return profile;
}

double herd_factor(const Profile& profile) noexcept {
  const std::uint64_t executed = executed_task_count(profile);
  if (executed == 0) return 0.0;
  return static_cast<double>(profile.parks.size()) /
         static_cast<double>(executed);
}

CriticalPath critical_path(const Profile& profile, std::uint64_t sweep) {
  CriticalPath path;
  const SweepProfile* sp = nullptr;
  for (const SweepProfile& s : profile.sweeps) {
    if (s.id == sweep) sp = &s;
  }
  if (sp == nullptr) return path;
  path.sweep = sweep;
  path.total_micros = sp->micros();

  std::vector<const MergeProfile*> merges;
  for (const MergeProfile& m : profile.merges) {
    if (m.sweep == sweep && m.end_t != 0) merges.push_back(&m);
  }
  std::unordered_map<std::uint64_t, const TaskProfile*> by_chunk;
  for (const TaskProfile& t : profile.tasks) {
    if (t.is_chunk && t.sweep == sweep) by_chunk[t.chunk] = &t;
  }

  if (merges.empty()) {
    // Nothing merged (a zero-chunk sweep): the whole wall is tail.
    path.tail_micros = path.total_micros;
    return path;
  }

  // Merges are sequential on the merging thread, in chunk order; walk
  // backward from the last one, at each hop following whichever
  // dependency was binding: the previous merge or the chunk's task.
  path.tail_micros = clamped_sub(sp->end_t, merges.back()->end_t);
  std::size_t i = merges.size() - 1;
  for (;;) {
    const MergeProfile& cur = *merges[i];
    path.merge_micros += cur.micros();
    path.steps.push_back({"merge", cur.chunk, cur.micros()});
    const TaskProfile* task = nullptr;
    if (const auto it = by_chunk.find(cur.chunk); it != by_chunk.end()) {
      if (it->second->complete()) task = it->second;
    }
    const std::uint64_t task_end = task != nullptr ? task->end_t : 0;
    const std::uint64_t prev_end = i > 0 ? merges[i - 1]->end_t : 0;
    if (i > 0 && prev_end >= task_end) {
      path.stall_micros += clamped_sub(cur.begin_t, prev_end);
      --i;
      continue;
    }
    if (task != nullptr) {
      path.stall_micros += clamped_sub(cur.begin_t, task->end_t);
      path.exec_micros = task->exec_micros();
      path.queue_micros = task->queue_micros();
      path.schedule_micros = clamped_sub(task->submit_t, sp->begin_t);
      path.steps.push_back(
          {"task", cur.chunk, path.queue_micros + path.exec_micros});
    } else {
      // No usable task lifecycle (dropped events): fold the rest into
      // schedule so the stages still partition the wall.
      path.schedule_micros = clamped_sub(cur.begin_t, sp->begin_t);
    }
    break;
  }
  return path;
}

std::string render_profile_json(const Profile& profile) {
  std::string out = "{\"format\":" + std::to_string(kProfileFormat);
  out += ",\"events\":" + std::to_string(profile.events);
  out += ",\"dropped\":" + std::to_string(profile.dropped);
  out += ",\"t_min\":" + std::to_string(profile.t_min);
  out += ",\"t_max\":" + std::to_string(profile.t_max);
  append_records(out, "tasks", profile.tasks, kTaskFields);
  append_records(out, "merges", profile.merges, kMergeFields);
  append_records(out, "parks", profile.parks, kParkFields);
  append_records(out, "sweeps", profile.sweeps, kSweepFields);
  out += '}';
  return out;
}

bool parse_profile_json(const std::string& text, Profile* out) {
  try {
    Cursor cursor{text, "profile json"};
    Profile profile;
    bool saw_format = false;
    json::parse_object(cursor, [&](const std::string& key) {
      if (key == "format") {
        saw_format = true;
        const std::uint64_t format = cursor.parse_uint();
        if (format != kProfileFormat) {
          cursor.fail("unsupported format " + std::to_string(format));
        }
      } else if (key == "events") {
        profile.events = cursor.parse_uint();
      } else if (key == "dropped") {
        profile.dropped = cursor.parse_uint();
      } else if (key == "t_min") {
        profile.t_min = cursor.parse_uint();
      } else if (key == "t_max") {
        profile.t_max = cursor.parse_uint();
      } else if (key == "tasks") {
        parse_records(cursor, "task", profile.tasks, kTaskFields);
      } else if (key == "merges") {
        parse_records(cursor, "merge", profile.merges, kMergeFields);
      } else if (key == "parks") {
        parse_records(cursor, "park", profile.parks, kParkFields);
      } else if (key == "sweeps") {
        parse_records(cursor, "sweep", profile.sweeps, kSweepFields);
      } else {
        cursor.fail("unknown top-level key '" + key + "'");
      }
    });
    if (!saw_format) cursor.fail("missing format field");
    cursor.expect_end();
    *out = std::move(profile);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs: %s\n", e.what());
    return false;
  }
}

std::string render_profile_report(const Profile& profile) {
  std::string out = "profile: " + std::to_string(profile.events) +
                    " events, " + std::to_string(profile.dropped) +
                    " dropped, span " +
                    format_ms(clamped_sub(profile.t_max, profile.t_min)) +
                    " ms\n";

  for (const SweepProfile& s : profile.sweeps) {
    out += "sweep " + std::to_string(s.id) + ": " +
           std::to_string(s.chunks) + " chunks, " +
           std::to_string(s.items) + " items, wall " +
           format_ms(s.micros()) + " ms\n";
    const CriticalPath cp = critical_path(profile, s.id);
    const double coverage =
        cp.total_micros == 0
            ? 1.0
            : static_cast<double>(cp.stage_sum()) /
                  static_cast<double>(cp.total_micros);
    out += "  critical path (stage sum " + format_ms(cp.stage_sum()) +
           " ms, " + format_pct(coverage) + "% of wall):\n";
    out += "    schedule " + format_ms(cp.schedule_micros) + " | queue " +
           format_ms(cp.queue_micros) + " | exec " +
           format_ms(cp.exec_micros) + " | stall " +
           format_ms(cp.stall_micros) + " | merge " +
           format_ms(cp.merge_micros) + " | tail " +
           format_ms(cp.tail_micros) + " ms\n";
    if (!cp.steps.empty()) {
      // Steps are walked last-merge-first; the binding hop is last.
      const CriticalPathStep& binding = cp.steps.back();
      std::uint64_t path_merges = 0;
      for (const CriticalPathStep& step : cp.steps) {
        if (step.kind == "merge") ++path_merges;
      }
      out += "    path: " + binding.kind + " chunk " +
             std::to_string(binding.chunk) + " (" +
             format_ms(binding.micros) + " ms) -> " +
             std::to_string(path_merges) + " merge(s)\n";
    }
  }

  const auto usage = thread_usage(profile);
  const std::uint64_t span = clamped_sub(profile.t_max, profile.t_min);
  out += "threads (" + std::to_string(usage.size()) + "):\n";
  for (const auto& [tid, u] : usage) {
    const double denom = span == 0 ? 1.0 : static_cast<double>(span);
    const std::uint64_t accounted =
        std::min(span, u.busy_micros + u.park_micros);
    const std::uint64_t idle = span - accounted;
    out += "  tid " + std::to_string(tid) + ": busy " +
           format_pct(static_cast<double>(u.busy_micros) / denom) +
           "% (" + format_ms(u.busy_micros) + " ms, " +
           std::to_string(u.tasks) + " tasks, " + std::to_string(u.merges) +
           " merges), parked " +
           format_pct(static_cast<double>(u.park_micros) / denom) +
           "%, idle " + format_pct(static_cast<double>(idle) / denom) +
           "%\n";
  }

  HistogramSnapshot queue_hist;
  HistogramSnapshot steal_hist;
  for (const TaskProfile& t : profile.tasks) {
    if (!t.complete()) continue;
    observe(queue_hist, t.queue_micros());
    if (t.stolen) {
      observe(steal_hist, clamped_sub(t.dequeue_t, t.submit_t));
    }
  }
  out += "queue latency (submit -> begin, log2 us):\n";
  append_histogram_lines(out, queue_hist);
  if (steal_hist.count != 0) {
    out += "steal latency (submit -> steal, log2 us):\n";
    append_histogram_lines(out, steal_hist);
  }

  const std::uint64_t executed = executed_task_count(profile);
  const std::uint64_t stolen = stolen_task_count(profile);
  out += "steals: " + std::to_string(stolen) + "/" +
         std::to_string(executed) + " tasks";
  if (executed != 0) {
    out += " (" +
           format_pct(static_cast<double>(stolen) /
                      static_cast<double>(executed)) +
           "%)";
  }
  out += "\n";
  char herd[64];
  std::snprintf(herd, sizeof herd, "%.2f", herd_factor(profile));
  out += "herd: " + std::to_string(profile.parks.size()) + " wakeups / " +
         std::to_string(executed) + " tasks executed = " + herd +
         " wakeups per useful task\n";
  return out;
}

std::string render_profile_top(const Profile& profile, std::size_t n) {
  std::vector<const TaskProfile*> ranked;
  for (const TaskProfile& t : profile.tasks) {
    if (t.begin_t != 0 && t.end_t != 0) ranked.push_back(&t);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const TaskProfile* a, const TaskProfile* b) {
              const std::uint64_t ea = a->exec_micros();
              const std::uint64_t eb = b->exec_micros();
              return ea != eb ? ea > eb : a->id < b->id;
            });
  if (ranked.size() > n) ranked.resize(n);
  std::string out = "top " + std::to_string(ranked.size()) +
                    " tasks by execution time:\n";
  for (const TaskProfile* t : ranked) {
    out += "  task " + std::to_string(t->id);
    if (t->is_chunk) {
      out += " (sweep " + std::to_string(t->sweep) + " chunk " +
             std::to_string(t->chunk) + ")";
    }
    out += ": exec " + format_ms(t->exec_micros()) + " ms, queue " +
           format_ms(t->queue_micros()) + " ms, tid " +
           std::to_string(t->exec_tid);
    if (t->stolen) {
      out += ", stolen from worker " + std::to_string(t->steal_victim);
    }
    out += "\n";
  }
  return out;
}

std::string render_profile_diff(const Profile& a, const Profile& b) {
  std::string out = "profile diff (a -> b):\n";
  const auto line = [&out](const char* name, double va, double vb,
                           const char* unit) {
    char buf[160];
    if (va == 0.0) {
      std::snprintf(buf, sizeof buf, "  %-18s %12.2f -> %12.2f %s\n", name,
                    va, vb, unit);
    } else {
      std::snprintf(buf, sizeof buf,
                    "  %-18s %12.2f -> %12.2f %s (%+.1f%%)\n", name, va, vb,
                    unit, (vb - va) / va * 100.0);
    }
    out += buf;
  };
  line("events", static_cast<double>(a.events),
       static_cast<double>(b.events), "");
  line("tasks executed", static_cast<double>(executed_task_count(a)),
       static_cast<double>(executed_task_count(b)), "");
  line("steals", static_cast<double>(stolen_task_count(a)),
       static_cast<double>(stolen_task_count(b)), "");
  line("wakeups", static_cast<double>(a.parks.size()),
       static_cast<double>(b.parks.size()), "");
  line("herd factor", herd_factor(a), herd_factor(b), "");
  line("total exec", static_cast<double>(total_exec_micros(a)) / 1000.0,
       static_cast<double>(total_exec_micros(b)) / 1000.0, "ms");
  line("span", static_cast<double>(clamped_sub(a.t_max, a.t_min)) / 1000.0,
       static_cast<double>(clamped_sub(b.t_max, b.t_min)) / 1000.0, "ms");
  line("sweeps", static_cast<double>(a.sweeps.size()),
       static_cast<double>(b.sweeps.size()), "");
  return out;
}

std::string render_task_trace_events(const Profile& profile) {
  std::string out;
  const auto slice = [&out](const std::string& name, const char* category,
                            std::uint32_t tid, std::uint64_t ts,
                            std::uint64_t dur, const std::string& args) {
    if (!out.empty()) out += ',';
    append_chrome_slice(out, name, category, tid, ts, dur, args);
  };
  // Flow arrows: Chrome draws one arrow chain per (name, id), from the
  // "s" event through any "t" steps to the "f" event.
  const auto flow = [&out](const char* name, char phase, std::uint64_t id,
                           std::uint32_t tid, std::uint64_t ts) {
    if (!out.empty()) out += ',';
    out += "{\"name\":\"" + std::string(name) +
           "\",\"cat\":\"flow\",\"ph\":\"" + phase + "\"";
    if (phase == 'f') out += ",\"bp\":\"e\"";
    out += ",\"id\":" + std::to_string(id) +
           ",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"ts\":" + std::to_string(ts) + "}";
  };
  for (const SweepProfile& s : profile.sweeps) {
    if (s.end_t == 0) continue;
    slice("sweep " + std::to_string(s.id), "sweep", s.tid, s.begin_t,
          s.micros(),
          "\"chunks\":" + std::to_string(s.chunks) +
              ",\"items\":" + std::to_string(s.items));
  }
  for (const TaskProfile& t : profile.tasks) {
    if (t.begin_t != 0 && t.end_t != 0) {
      slice(t.is_chunk ? "chunk " + std::to_string(t.sweep) + ":" +
                             std::to_string(t.chunk)
                       : "task " + std::to_string(t.id),
            "task", t.exec_tid, t.begin_t, t.exec_micros(),
            "\"task\":" + std::to_string(t.id));
    }
    // Submit ("s") -> optional steal step ("t") -> begin ("f").
    if (t.submit_t != 0 && t.begin_t != 0) {
      flow("task", 's', t.id, t.submit_tid, t.submit_t);
      if (t.stolen && t.dequeue_t != 0) {
        flow("task", 't', t.id, t.exec_tid, t.dequeue_t);
      }
      flow("task", 'f', t.id, t.exec_tid, t.begin_t);
    }
  }
  for (const ParkInterval& p : profile.parks) {
    slice("park", "pool", p.tid, p.begin_t, clamped_sub(p.end_t, p.begin_t),
          {});
  }
  std::map<std::pair<std::uint64_t, std::uint64_t>, const TaskProfile*>
      chunk_tasks;
  for (const TaskProfile& t : profile.tasks) {
    if (t.is_chunk && t.complete()) chunk_tasks[{t.sweep, t.chunk}] = &t;
  }
  for (const MergeProfile& m : profile.merges) {
    if (m.end_t == 0) continue;
    slice("merge " + std::to_string(m.sweep) + ":" + std::to_string(m.chunk),
          "sweep", m.tid, m.begin_t, m.micros(),
          "\"chunk\":" + std::to_string(m.chunk));
    // Second flow: the chunk's task end -> its merge begin, in a
    // distinct id space so it never collides with the submit flows.
    if (const auto it = chunk_tasks.find({m.sweep, m.chunk});
        it != chunk_tasks.end()) {
      const TaskProfile& t = *it->second;
      flow("merge", 's', kMergeFlowBase + t.id, t.exec_tid, t.end_t);
      flow("merge", 'f', kMergeFlowBase + t.id, m.tid,
           std::max(m.begin_t, t.end_t));
    }
  }
  return out;
}

namespace {

bool write_sidecar(const std::string& path, const char* what,
                   const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "obs: cannot write %s %s\n", what, path.c_str());
    return false;
  }
  out << text;
  if (!out.flush().good()) {
    std::fprintf(stderr, "obs: short write to %s %s\n", what, path.c_str());
    return false;
  }
  return true;
}

}  // namespace

bool write_event_sidecars(const std::string& trace_path,
                          const std::string& profile_path) {
  const std::vector<TaskEvent> events = drain_task_events();
  const Profile profile = build_profile(events);
  bool ok = true;
  if (!trace_path.empty()) {
    ok &= write_sidecar(
        trace_path, "trace",
        render_chrome_trace(events, render_task_trace_events(profile)));
  }
  if (!profile_path.empty()) {
    ok &= write_sidecar(profile_path, "profile",
                        render_profile_json(profile));
  }
  return ok;
}

}  // namespace rdv::obs
