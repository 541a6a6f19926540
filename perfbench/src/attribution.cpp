#include "attribution.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {
namespace {

bool in_layer(const spans::Span& s, const char* layer) {
  return std::strcmp(s.layer, layer) == 0;
}

bool is_sweep(const spans::Span& s) { return in_layer(s, "sweep"); }

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

Attribution attribute(const std::vector<spans::Span>& all,
                      std::int64_t pass_start_ns, std::int64_t pass_end_ns,
                      std::size_t threads) {
  Attribution a;
  a.wall_s = seconds(pass_end_ns - pass_start_ns);
  if (all.empty() || pass_end_ns <= pass_start_ns) return a;

  // Self time by same-thread containment: spans of one thread nest
  // properly (they are RAII scopes), so a stack walk in (start asc,
  // end desc) order finds each span's innermost enclosing span.
  std::vector<std::int64_t> self(all.size());
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    self[i] = all[i].end_ns - all[i].start_ns;
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const spans::Span& a1 = all[x];
    const spans::Span& b1 = all[y];
    if (a1.thread != b1.thread) return a1.thread < b1.thread;
    if (a1.start_ns != b1.start_ns) return a1.start_ns < b1.start_ns;
    return a1.end_ns > b1.end_ns;
  });
  const std::uint32_t main = spans::main_thread();
  std::int64_t main_covered = 0;
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const spans::Span& s = all[i];
    if (k == 0 || all[order[k - 1]].thread != s.thread) stack.clear();
    while (!stack.empty() && all[stack.back()].end_ns <= s.start_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      self[stack.back()] -= s.end_ns - s.start_ns;
    } else if (s.thread == main) {
      main_covered += std::min(s.end_ns, pass_end_ns) -
                      std::max(s.start_ns, pass_start_ns);
    }
    stack.push_back(i);
  }

  std::map<std::uint32_t, std::int64_t> exec_by_thread;
  std::int64_t exec = 0;
  std::int64_t task_self = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const spans::Span& s = all[i];
    const std::string call = std::string(s.layer) + "." + s.name;
    a.layer_self_s[s.layer] += seconds(self[i]);
    a.call_self_s[call] += seconds(self[i]);
    a.call_total_s[call] += seconds(s.end_ns - s.start_ns);
    a.call_count[call] += 1;
    a.call_arg_sum[call] += s.arg;
    if (call == "sim.run_anonymous") {
      a.sim_run_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
    if (!is_sweep(s)) {
      exec += self[i];
      exec_by_thread[s.thread] += self[i];
    }
    if (in_layer(s, "task")) task_self += self[i];
  }
  a.exec_s = seconds(exec);
  const double budget = static_cast<double>(threads) * a.wall_s;
  a.idle_s = std::max(0.0, budget - a.exec_s);
  a.parallel_efficiency = budget > 0 ? a.exec_s / budget : 0;
  for (const auto& [thread, ns] : exec_by_thread) {
    if (exec > 0) {
      a.max_thread_share = std::max(
          a.max_thread_share,
          static_cast<double>(ns) / static_cast<double>(exec));
    }
  }
  const double main_uncovered =
      std::max(0.0, a.wall_s - seconds(main_covered));
  a.unattributed_frac =
      budget > 0 ? (seconds(task_self) + main_uncovered) / budget : 0;

  // Serialized sweeps: the items a sweep scheduled are the spans whose
  // logical parent is the sweep span. A long sweep ran serially when one
  // thread ran nearly all of its item time, most of that time was not a
  // single indivisible item (which no schedule could have spread), and
  // the pool as a whole sat mostly idle.
  std::unordered_map<std::uint32_t, std::size_t> sweep_index;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (is_sweep(all[i])) sweep_index[all[i].id] = i;
  }
  struct Items {
    std::size_t count = 0;
    std::int64_t total = 0;
    std::map<std::uint32_t, std::int64_t> by_thread;
    std::map<std::uint32_t, std::int64_t> longest_by_thread;
  };
  std::map<std::size_t, Items> items;
  for (const spans::Span& s : all) {
    const auto it = sweep_index.find(s.parent);
    if (it == sweep_index.end() || is_sweep(s)) continue;
    Items& entry = items[it->second];
    entry.count += 1;
    entry.total += s.end_ns - s.start_ns;
    entry.by_thread[s.thread] += s.end_ns - s.start_ns;
    std::int64_t& longest = entry.longest_by_thread[s.thread];
    longest = std::max(longest, s.end_ns - s.start_ns);
  }
  for (const auto& [index, entry] : items) {
    const spans::Span& sweep = all[index];
    const double sweep_share =
        seconds(sweep.end_ns - sweep.start_ns) / a.wall_s;
    std::int64_t top = 0;
    std::int64_t top_longest = 0;
    for (const auto& [thread, ns] : entry.by_thread) {
      if (ns > top) {
        top = ns;
        top_longest = entry.longest_by_thread.at(thread);
      }
    }
    const double thread_share =
        entry.total > 0 ? static_cast<double>(top) /
                              static_cast<double>(entry.total)
                        : 0;
    if (threads > 1 && entry.count >= 2 && sweep_share >= 0.25 &&
        thread_share >= 0.8 && 2 * top_longest <= top &&
        a.parallel_efficiency < 0.5) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "serialized-sweep: sweep.%s[%llu] lasted %.0f%% of the "
                    "pass; one thread ran %.0f%% of its %zu items (%.1f ms) "
                    "while pool efficiency was %.2f",
                    sweep.name, static_cast<unsigned long long>(sweep.arg),
                    100 * sweep_share, 100 * thread_share, entry.count,
                    static_cast<double>(entry.total) / 1e6,
                    a.parallel_efficiency);
      a.serialized.emplace_back(line);
    }
  }
  return a;
}

}  // namespace perfbench
