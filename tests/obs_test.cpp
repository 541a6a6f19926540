#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/driver.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_tools.hpp"
#include "obs/profile.hpp"
#include "obs/task_events.hpp"
#include "obs/trace.hpp"
#include "support/thread_pool.hpp"
#include "sweep/sweep.hpp"

namespace rdv::obs {
namespace {

// ---- metrics primitives ----------------------------------------------

/// Bumps a local counter from `threads` threads, `per_thread` times
/// each — the merged value must be exact no matter the thread count.
std::uint64_t count_with_threads(std::size_t threads,
                                 std::uint64_t per_thread) {
  Counter counter;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&counter, per_thread] {
      for (std::uint64_t i = 0; i < per_thread; ++i) counter.add();
    });
  }
  for (auto& w : workers) w.join();
  return counter.value();
}

TEST(Metrics, CounterMergesDeterministicallyAcrossThreadCounts) {
  // 16 threads deliberately exceeds kStripes on small runners: several
  // threads share stripes, and the sum must still be exact.
  EXPECT_EQ(count_with_threads(1, 4800), 4800u);
  EXPECT_EQ(count_with_threads(4, 1200), 4800u);
  EXPECT_EQ(count_with_threads(16, 300), 4800u);
}

/// Observes the fixed multiset {0, 1, ..., n-1} partitioned across
/// `threads` threads and returns the merged snapshot.
HistogramSnapshot observe_with_threads(std::size_t threads,
                                       std::uint64_t n) {
  Histogram hist;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&hist, t, threads, n] {
      for (std::uint64_t v = t; v < n; v += threads) hist.observe(v);
    });
  }
  for (auto& w : workers) w.join();
  return hist.snapshot();
}

TEST(Metrics, HistogramMergesDeterministicallyAcrossThreadCounts) {
  const HistogramSnapshot a = observe_with_threads(1, 1000);
  const HistogramSnapshot b = observe_with_threads(4, 1000);
  const HistogramSnapshot c = observe_with_threads(16, 1000);
  EXPECT_EQ(a.count, 1000u);
  EXPECT_EQ(a.sum, 999u * 1000u / 2);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.count, c.count);
  EXPECT_EQ(a.sum, c.sum);
  EXPECT_EQ(a.buckets, c.buckets);
}

TEST(Metrics, HistogramBucketEdges) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  EXPECT_EQ(histogram_bucket(std::uint64_t{1} << 62), 63u);
  // bit_width of 2^63.. is 64 — must clamp into the last bucket, not
  // index out of range.
  EXPECT_EQ(histogram_bucket(std::uint64_t{1} << 63), 63u);
  EXPECT_EQ(histogram_bucket(~std::uint64_t{0}), 63u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.set(7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Metrics, RegistryHandlesSurviveReset) {
  Counter& counter = Registry::instance().counter("obs_test.survivor");
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);
  Registry::instance().reset_for_tests();
  // Same object, zeroed — cached static handles elsewhere stay valid.
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(&Registry::instance().counter("obs_test.survivor"), &counter);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
  Registry::instance().reset_for_tests();
}

TEST(Metrics, SnapshotSourcesAreIdempotentByName) {
  Registry::instance().reset_for_tests();
  Registry::instance().register_source(
      "obs_test.src",
      [](MetricsSnapshot& snap) { snap.counters["obs_test.a"] = 1; });
  // Re-registration replaces, never stacks.
  Registry::instance().register_source(
      "obs_test.src",
      [](MetricsSnapshot& snap) { snap.counters["obs_test.a"] = 2; });
  const MetricsSnapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.counters.count("obs_test.a"), 1u);
  EXPECT_EQ(snap.counters.at("obs_test.a"), 2u);
  Registry::instance().reset_for_tests();
}

// ---- spans on the one event ring --------------------------------------

TEST(Trace, DisabledSpansRecordNothing) {
  set_task_events_enabled(false);
  clear_task_events();
  {
    Span span("obs_test", "invisible");
    span.arg("x", 1);
  }
  for (const TaskEvent& e : drain_task_events()) {
    EXPECT_NE(e.kind, TaskEventKind::kSpan);
  }
  EXPECT_EQ(task_events_recorded_count(), 0u);
}

TEST(EventRing, SpansAndTaskEventsShareOneRing) {
  clear_task_events();
  set_task_event_ring_capacity(4);
  set_task_events_enabled(true);
  // A fresh thread gets a fresh capacity-4 ring. Three spans and seven
  // task events, interleaved, must never block, keep exactly the
  // newest four in record order, and count each of the six overwrites
  // once — there is no second ring to drop into.
  std::thread([] {
    std::uint64_t task = 9000;
    std::uint64_t span = 0;
    for (const char kind : std::string("TSTTSTTTST")) {
      if (kind == 'T') {
        record_task_event(TaskEventKind::kBegin, task++);
      } else {
        Span s("obs_test_ring", "span " + std::to_string(span++));
      }
    }
  }).join();
  set_task_events_enabled(false);
  set_task_event_ring_capacity(81920);
  std::vector<std::string> mine;
  for (const TaskEvent& e : drain_task_events()) {
    if (e.kind == TaskEventKind::kSpan &&
        event_string(e.category) == "obs_test_ring") {
      mine.push_back(event_string(e.name));
    } else if (e.kind == TaskEventKind::kBegin && e.task >= 9000 &&
               e.task < 9007) {
      mine.push_back(std::to_string(e.task));
    }
  }
  EXPECT_EQ(mine, (std::vector<std::string>{"9004", "9005", "span 2",
                                            "9006"}));
  EXPECT_EQ(task_events_dropped_count(), 6u);
  EXPECT_EQ(task_events_recorded_count(), 10u);
  clear_task_events();
  EXPECT_EQ(task_events_dropped_count(), 0u);
  EXPECT_EQ(task_events_recorded_count(), 0u);
}

TEST(EventRing, FirstEventIsStampedAfterItsRingIsAllocated) {
  clear_task_events();
  // A large ring takes milliseconds to allocate and fill; the thread's
  // first event must be stamped after that, not before it.
  set_task_event_ring_capacity(std::size_t{1} << 19);
  set_task_events_enabled(true);
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::thread([&] {
    t0 = now_micros();
    record_task_event(TaskEventKind::kBegin, 9100);
    t1 = now_micros();
  }).join();
  set_task_events_enabled(false);
  set_task_event_ring_capacity(81920);
  std::vector<std::uint64_t> stamps;
  for (const TaskEvent& e : drain_task_events()) {
    if (e.kind == TaskEventKind::kBegin && e.task == 9100) {
      stamps.push_back(e.t_micros);
    }
  }
  clear_task_events();
  ASSERT_EQ(stamps.size(), 1u);
  const std::uint64_t stamp = stamps[0];
  EXPECT_LE(stamp, t1);
  // In the later half of [t0, t1]: the allocation lies before it.
  EXPECT_GE(2 * stamp, t0 + t1) << "t0 " << t0 << " stamp " << stamp
                                << " t1 " << t1;
}

TEST(Trace, NamesOfAnyLengthRoundTripThroughTheInternTable) {
  clear_task_events();
  set_task_events_enabled(true);
  const std::string longname(200, 'x');
  {
    // The name is built on the fly and dies before the span closes.
    Span span("obs_test_name", std::string(longname));
    span.arg("k", 3);
  }
  set_task_events_enabled(false);
  const std::vector<TaskEvent> events = drain_task_events();
  bool found = false;
  for (const TaskEvent& e : events) {
    if (e.kind != TaskEventKind::kSpan ||
        event_string(e.category) != "obs_test_name") {
      continue;
    }
    found = true;
    EXPECT_EQ(event_string(e.name), longname);
    EXPECT_EQ(event_string(e.arg_key), "k");
    EXPECT_EQ(e.b, 3u);
  }
  EXPECT_TRUE(found);
  EXPECT_NE(render_chrome_trace(events).find("\"" + longname + "\""),
            std::string::npos);
  EXPECT_EQ(event_string(0), "");
  clear_task_events();
}

TEST(Trace, ChromeRenderEscapesAndShapes) {
  clear_task_events();
  set_task_events_enabled(true);
  {
    Span span("cat", "quote\"back\\slash\x01");
    span.arg("items", 42);
  }
  set_task_events_enabled(false);
  std::vector<TaskEvent> spans;
  for (const TaskEvent& e : drain_task_events()) {
    if (e.kind == TaskEventKind::kSpan) spans.push_back(e);
  }
  clear_task_events();
  ASSERT_EQ(spans.size(), 1u);
  TaskEvent e = spans[0];
  e.t_micros = 10;
  e.a = 5;
  TaskEvent lifecycle;
  lifecycle.kind = TaskEventKind::kBegin;
  lifecycle.task = 77;
  const std::string json = render_chrome_trace({e, lifecycle});
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("quote\\\"back\\\\slash\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"items\":42}"), std::string::npos);
  // Only spans render as slices; lifecycle events reach the trace
  // through the reconstructed profile (render_task_trace_events).
  EXPECT_EQ(json.find("\"ph\":\"X\"", json.find("\"ph\":\"X\"") + 1),
            std::string::npos);
}

// ---- task-lifecycle events -------------------------------------------

TEST(TaskEvents, DisabledRecordsNothingAndAllocatorsStayMonotone) {
  set_task_events_enabled(false);
  clear_task_events();
  record_task_event(TaskEventKind::kSubmit, 424242);
  for (const TaskEvent& e : drain_task_events()) {
    EXPECT_NE(e.task, 424242u);
  }
  EXPECT_EQ(task_events_recorded_count(), 0u);
  const std::uint64_t a = next_task_id();
  const std::uint64_t b = next_task_id();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, a);
  EXPECT_GT(next_sweep_id(), 0u);
}

TEST(TaskEvents, DrainIsDeterministicAndPreservesPerThreadOrder) {
  clear_task_events();
  set_task_events_enabled(true);
  // The recording thread exits before the drain: its ring must survive
  // in the directory with every event intact.
  std::thread([] {
    for (std::uint64_t i = 0; i < 50; ++i) {
      record_task_event(TaskEventKind::kSubmit, 7000 + i);
    }
  }).join();
  set_task_events_enabled(false);
  const std::vector<TaskEvent> first = drain_task_events();
  const std::vector<TaskEvent> second = drain_task_events();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].task, second[i].task);
    EXPECT_EQ(first[i].tid, second[i].tid);
    EXPECT_EQ(first[i].seq, second[i].seq);
  }
  std::vector<std::uint64_t> mine;
  std::vector<std::uint32_t> tids;
  for (const TaskEvent& e : first) {
    if (e.task < 7000 || e.task >= 7050) continue;
    mine.push_back(e.task);
    tids.push_back(e.tid);
  }
  // (t, tid, seq) ordering keeps one thread's events in record order.
  ASSERT_EQ(mine.size(), 50u);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i], 7000 + i);
    EXPECT_EQ(tids[i], tids[0]);
  }
  clear_task_events();
}

TEST(TaskEvents, ShortLivedThreadsKeepDistinctTids) {
  clear_task_events();
  set_task_events_enabled(true);
  for (std::uint64_t t = 0; t < 3; ++t) {
    std::thread([t] {
      record_task_event(TaskEventKind::kEnd, 7700 + t);
    }).join();
  }
  set_task_events_enabled(false);
  std::vector<std::uint32_t> tids;
  for (const TaskEvent& e : drain_task_events()) {
    if (e.task >= 7700 && e.task < 7703) tids.push_back(e.tid);
  }
  ASSERT_EQ(tids.size(), 3u);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
  clear_task_events();
}

TEST(TaskEvents, DrainWhileRecordingIsSafe) {
  clear_task_events();
  set_task_events_enabled(true);
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      record_task_event(TaskEventKind::kBegin, 8000 + (i++ % 16));
    }
  });
  // Keep draining until the writer's events show up (it may still be
  // starting); every drained event must be well-formed mid-recording.
  std::size_t seen = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (seen == 0 && std::chrono::steady_clock::now() < deadline) {
    for (const TaskEvent& e : drain_task_events()) {
      if (e.task < 8000 || e.task >= 8016) continue;
      ++seen;
      EXPECT_LE(static_cast<unsigned>(e.kind),
                static_cast<unsigned>(TaskEventKind::kMergeEnd));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  set_task_events_enabled(false);
  EXPECT_GT(seen, 0u);
  clear_task_events();
}

// ---- pool + sweep lifecycles -----------------------------------------

TEST(TaskEvents, PoolLifecyclesPairSubmitPopBeginEnd) {
  set_task_events_enabled(false);
  {
    // Profiling off: no lifecycle id, the task still runs.
    support::ThreadPool off_pool(1);
    support::TaskGroup off_group(off_pool);
    std::atomic<int> ran{0};
    EXPECT_EQ(off_group.submit([&ran] { ran.fetch_add(1); }), 0u);
    off_group.wait();
    EXPECT_EQ(ran.load(), 1);
  }
  clear_task_events();
  set_task_events_enabled(true);
  std::vector<std::uint64_t> ids;
  {
    support::ThreadPool pool(2);
    support::TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t id =
          group.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      EXPECT_NE(id, 0u);
      ids.push_back(id);
    }
    group.wait();
    EXPECT_EQ(ran.load(), 16);
  }
  set_task_events_enabled(false);
  const std::vector<TaskEvent> events = drain_task_events();
  clear_task_events();
  // Ids are distinct and monotone in submission order.
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_GT(ids[i], ids[i - 1]);
  for (const std::uint64_t id : ids) {
    std::size_t submits = 0, begins = 0, ends = 0;
    for (const TaskEvent& e : events) {
      if (e.task != id) continue;
      switch (e.kind) {
        case TaskEventKind::kSubmit: ++submits; break;
        case TaskEventKind::kBegin: ++begins; break;
        case TaskEventKind::kEnd: ++ends; break;
        default: break;
      }
    }
    EXPECT_EQ(submits, 1u);
    // A task begins right after it is popped, so begins count pops.
    EXPECT_EQ(begins, 1u);
    EXPECT_EQ(ends, 1u);
  }
  const Profile profile = build_profile(events);
  std::size_t found = 0;
  for (const TaskProfile& t : profile.tasks) {
    if (std::find(ids.begin(), ids.end(), t.id) == ids.end()) continue;
    ++found;
    EXPECT_TRUE(t.complete());
    // kSubmit lands before the enqueue, so it never trails the begin
    // on the shared clock.
    EXPECT_LE(t.submit_t, t.begin_t);
    EXPECT_LE(t.begin_t, t.end_t);
  }
  EXPECT_EQ(found, ids.size());
}

TEST(TaskEvents, ParkIntervalsCloseAndHerdFactorIsFinite) {
  clear_task_events();
  set_task_events_enabled(true);
  {
    support::ThreadPool pool(2);
    support::TaskGroup group(pool);
    // One deliberately slow task: the external waiter reaches the cv
    // and parks while it runs, so at least one park interval closes.
    group.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    });
    group.wait();
  }
  set_task_events_enabled(false);
  const Profile profile = build_profile(drain_task_events());
  clear_task_events();
  EXPECT_GE(profile.parks.size(), 1u);
  for (const ParkInterval& p : profile.parks) {
    EXPECT_LE(p.begin_t, p.end_t);
  }
  const double herd = herd_factor(profile);
  EXPECT_GE(herd, 0.0);
  EXPECT_TRUE(std::isfinite(herd));
}

// ---- profile analyzer ------------------------------------------------

std::function<int(std::size_t)> busy_kernel() {
  return [](std::size_t i) {
    std::uint64_t x = i + 1;
    for (int k = 0; k < 50000; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    return static_cast<int>((x >> 32) & 0x3fffffff);
  };
}

TEST(Profile, SweepReconstructionAndCriticalPathBudget) {
  clear_task_events();
  set_task_events_enabled(true);
  std::vector<int> out;
  {
    support::ThreadPool pool(1);
    sweep::SweepConfig config;
    config.pool = &pool;
    config.chunk_size = 8;
    out = sweep::sweep_map<int>(64, busy_kernel(), config);
  }
  set_task_events_enabled(false);
  const Profile profile = build_profile(drain_task_events());
  clear_task_events();

  ASSERT_EQ(out.size(), 64u);
  EXPECT_EQ(profile.dropped, 0u);
  ASSERT_EQ(profile.sweeps.size(), 1u);
  const SweepProfile& sweep = profile.sweeps[0];
  EXPECT_EQ(sweep.chunks, 8u);
  EXPECT_EQ(sweep.items, 64u);
  ASSERT_GT(sweep.micros(), 0u);

  std::vector<std::uint64_t> chunks;
  for (const TaskProfile& t : profile.tasks) {
    if (!t.is_chunk) continue;
    EXPECT_EQ(t.sweep, sweep.id);
    EXPECT_TRUE(t.complete());
    chunks.push_back(t.chunk);
  }
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 8u);
  for (std::uint64_t c = 0; c < 8; ++c) EXPECT_EQ(chunks[c], c);
  ASSERT_EQ(profile.merges.size(), 8u);
  for (std::uint64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(profile.merges[c].sweep, sweep.id);
    EXPECT_EQ(profile.merges[c].chunk, c);
    EXPECT_NE(profile.merges[c].end_t, 0u);
  }

  const CriticalPath cp = critical_path(profile, sweep.id);
  EXPECT_EQ(cp.total_micros, sweep.micros());
  ASSERT_FALSE(cp.steps.empty());
  EXPECT_EQ(cp.steps.front().kind, "merge");
  EXPECT_EQ(cp.steps.back().kind, "task");
  // The stages partition the sweep wall; the telescoped sum deviates
  // only by clamped inversions (a merge can begin a hair before its
  // chunk's kEnd lands), far inside the 5% budget rdv_profile's strict
  // mode enforces.
  const double total = static_cast<double>(cp.total_micros);
  const double sum = static_cast<double>(cp.stage_sum());
  EXPECT_LE(std::abs(sum - total) / total, 0.05);
  EXPECT_GE(herd_factor(profile), 0.0);
}

/// Structural fingerprint of a profiled 1-thread sweep: ids normalized
/// to the first submitted task, everything timing-free.
struct SweepShape {
  std::vector<std::uint64_t> task_norm_ids;
  std::vector<std::uint64_t> task_chunks;
  std::vector<std::uint64_t> merge_chunks;
  std::uint64_t chunks = 0;
  std::uint64_t items = 0;
  std::size_t exec_tids = 0;
};

SweepShape one_thread_sweep_shape(std::vector<int>& out) {
  clear_task_events();
  set_task_events_enabled(true);
  {
    support::ThreadPool pool(1);
    sweep::SweepConfig config;
    config.pool = &pool;
    config.chunk_size = 8;
    const std::function<int(std::size_t)> fn = [](std::size_t i) {
      return static_cast<int>(i * 3 + 1);
    };
    out = sweep::sweep_map<int>(48, fn, config);
  }
  set_task_events_enabled(false);
  const Profile profile = build_profile(drain_task_events());
  clear_task_events();
  SweepShape shape;
  std::uint64_t min_id = 0;
  for (const TaskProfile& t : profile.tasks) {
    if (!t.is_chunk) continue;
    if (min_id == 0 || t.id < min_id) min_id = t.id;
  }
  std::vector<std::uint32_t> tids;
  for (const TaskProfile& t : profile.tasks) {
    if (!t.is_chunk) continue;
    shape.task_norm_ids.push_back(t.id - min_id);
    shape.task_chunks.push_back(t.chunk);
    tids.push_back(t.exec_tid);
  }
  std::sort(tids.begin(), tids.end());
  shape.exec_tids = static_cast<std::size_t>(
      std::unique(tids.begin(), tids.end()) - tids.begin());
  for (const MergeProfile& m : profile.merges) {
    shape.merge_chunks.push_back(m.chunk);
  }
  if (!profile.sweeps.empty()) {
    shape.chunks = profile.sweeps[0].chunks;
    shape.items = profile.sweeps[0].items;
  }
  return shape;
}

TEST(Profile, OneThreadRunsAreStructurallyDeterministic) {
  std::vector<int> out1;
  std::vector<int> out2;
  const SweepShape a = one_thread_sweep_shape(out1);
  const SweepShape b = one_thread_sweep_shape(out2);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(a.task_norm_ids, b.task_norm_ids);
  EXPECT_EQ(a.task_chunks, b.task_chunks);
  EXPECT_EQ(a.merge_chunks, b.merge_chunks);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.items, b.items);
  // A 1-thread pool executes every chunk on its one worker — one
  // executor tid, in both runs.
  EXPECT_EQ(a.exec_tids, 1u);
  EXPECT_EQ(b.exec_tids, 1u);
}

/// Hand-built profile with round-number timestamps, so every stage of
/// the critical path is checkable exactly: sweep [1000, 2000], chunk 0
/// [submit 1010, begin 1020, end 1500], chunk 1 [1012, 1030, 1400],
/// merges [1510,1530] and [1530,1540].
Profile sample_profile() {
  Profile profile;
  profile.events = 42;
  profile.dropped = 0;
  profile.t_min = 1000;
  profile.t_max = 2000;
  SweepProfile sweep;
  sweep.id = 5;
  sweep.chunks = 2;
  sweep.items = 2;
  sweep.tid = 0;
  sweep.begin_t = 1000;
  sweep.end_t = 2000;
  profile.sweeps.push_back(sweep);
  TaskProfile t0;
  t0.id = 11;
  t0.sweep = 5;
  t0.chunk = 0;
  t0.is_chunk = true;
  t0.submit_tid = 0;
  t0.exec_tid = 1;
  t0.submit_t = 1010;
  t0.begin_t = 1020;
  t0.end_t = 1500;
  TaskProfile t1 = t0;
  t1.id = 12;
  t1.chunk = 1;
  t1.submit_t = 1012;
  t1.begin_t = 1030;
  t1.end_t = 1400;
  profile.tasks = {t0, t1};
  MergeProfile m0;
  m0.sweep = 5;
  m0.chunk = 0;
  m0.tid = 0;
  m0.begin_t = 1510;
  m0.end_t = 1530;
  MergeProfile m1 = m0;
  m1.chunk = 1;
  m1.begin_t = 1530;
  m1.end_t = 1540;
  profile.merges = {m0, m1};
  profile.parks.push_back(ParkInterval{0, 1100, 1200});
  return profile;
}

TEST(Profile, CriticalPathStagesTelescopeExactly) {
  const Profile profile = sample_profile();
  const CriticalPath cp = critical_path(profile, 5);
  EXPECT_EQ(cp.total_micros, 1000u);
  EXPECT_EQ(cp.tail_micros, 460u);    // 2000 - last merge end 1540
  EXPECT_EQ(cp.merge_micros, 30u);    // both merges are on the path
  EXPECT_EQ(cp.stall_micros, 10u);    // merge 0 began 10us after task 0
  EXPECT_EQ(cp.exec_micros, 480u);    // binding chunk 0: 1020 -> 1500
  EXPECT_EQ(cp.queue_micros, 10u);    // 1010 -> 1020
  EXPECT_EQ(cp.schedule_micros, 10u); // sweep begin 1000 -> submit 1010
  EXPECT_EQ(cp.stage_sum(), cp.total_micros);
  ASSERT_EQ(cp.steps.size(), 3u);
  EXPECT_EQ(cp.steps[0].kind, "merge");
  EXPECT_EQ(cp.steps[0].chunk, 1u);
  EXPECT_EQ(cp.steps[1].kind, "merge");
  EXPECT_EQ(cp.steps[1].chunk, 0u);
  EXPECT_EQ(cp.steps[2].kind, "task");
  EXPECT_EQ(cp.steps[2].chunk, 0u);

  const CriticalPath unknown = critical_path(profile, 999);
  EXPECT_EQ(unknown.total_micros, 0u);
  EXPECT_TRUE(unknown.steps.empty());
}

// A task that waits on a nested sweep runs that sweep's chunks and
// merges on its own thread: their time counts once, as theirs.
TEST(Profile, NestedExecCountsOnceOnItsThread) {
  Profile profile = sample_profile();
  // Task 13 on thread 1 encloses chunk 1 (task 12: [1030, 1400]), a
  // park [1410, 1440] and a merge [1450, 1460] of a sweep it waits on,
  // and a stray task on thread 2 overlaps it without nesting.
  TaskProfile outer = profile.tasks[0];
  outer.id = 13;
  outer.is_chunk = false;
  outer.begin_t = 1025;
  outer.end_t = 1480;
  TaskProfile other = outer;
  other.id = 14;
  other.exec_tid = 2;
  profile.tasks.push_back(outer);
  profile.tasks.push_back(other);
  profile.tasks[0].exec_tid = 3;  // chunk 0 runs alone on thread 3
  MergeProfile inner;
  inner.sweep = 6;
  inner.tid = 1;
  inner.begin_t = 1450;
  inner.end_t = 1460;
  profile.merges.push_back(inner);
  profile.parks.push_back(ParkInterval{1, 1410, 1440});
  const auto busy = thread_busy_micros(profile);
  ASSERT_EQ(busy.size(), 4u);
  EXPECT_EQ(busy.at(0), 30u);   // the sweep's two merges
  EXPECT_EQ(busy.at(1), 425u);  // outer's [1025, 1480] less the park
  EXPECT_EQ(busy.at(2), 455u);
  EXPECT_EQ(busy.at(3), 480u);
  const std::string diff = render_profile_diff(profile, profile);
  // Task self times 480 + 370 + 45 + 455 us; 1.76 ms counted twice.
  EXPECT_NE(diff.find("1.35 ->"), std::string::npos) << diff;
}

// Nested sweeps on a 2-thread pool: every outer chunk waits on an inner
// sweep and runs inner chunks meanwhile, yet no thread is busy for
// longer than from its first execution's begin to its last one's end.
TEST(Profile, NestedSweepsKeepEveryThreadWithinItsWall) {
  clear_task_events();
  set_task_events_enabled(true);
  {
    support::ThreadPool pool(2);
    sweep::SweepConfig config;
    config.pool = &pool;
    config.chunk_size = 1;
    const std::function<int(std::size_t)> outer = [&](std::size_t i) {
      const std::vector<int> inner =
          sweep::sweep_map<int>(8, busy_kernel(), config);
      return inner[i % inner.size()];
    };
    (void)sweep::sweep_map<int>(4, outer, config);
  }
  set_task_events_enabled(false);
  const Profile profile = build_profile(drain_task_events());
  clear_task_events();
  ASSERT_EQ(profile.dropped, 0u);
  ASSERT_EQ(profile.sweeps.size(), 5u);
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> active;
  const auto extend = [&](std::uint32_t tid, std::uint64_t b, std::uint64_t e) {
    const auto it = active.try_emplace(tid, b, e).first;
    it->second.first = std::min(it->second.first, b);
    it->second.second = std::max(it->second.second, e);
  };
  for (const TaskProfile& t : profile.tasks) {
    if (t.complete()) extend(t.exec_tid, t.begin_t, t.end_t);
  }
  for (const MergeProfile& m : profile.merges) extend(m.tid, m.begin_t, m.end_t);
  std::size_t busy_threads = 0;
  for (const auto& [tid, micros] : thread_busy_micros(profile)) {
    const auto [first, last] = active.at(tid);
    EXPECT_LE(micros, last - first) << "tid " << tid;
    busy_threads += micros > 0 ? 1 : 0;
  }
  EXPECT_GE(busy_threads, 2u);
}

TEST(Profile, JsonRoundTripIsByteStable) {
  const Profile profile = sample_profile();
  const std::string json = render_profile_json(profile);
  Profile parsed;
  ASSERT_TRUE(parse_profile_json(json, &parsed));
  EXPECT_EQ(render_profile_json(parsed), json);
  EXPECT_EQ(parsed.events, 42u);
  EXPECT_EQ(parsed.t_max, 2000u);
  ASSERT_EQ(parsed.tasks.size(), 2u);
  EXPECT_TRUE(parsed.tasks[0].is_chunk);
  EXPECT_EQ(parsed.tasks[1].chunk, 1u);
  EXPECT_EQ(parsed.merges.size(), 2u);
  EXPECT_EQ(parsed.parks.size(), 1u);
  ASSERT_EQ(parsed.sweeps.size(), 1u);
  EXPECT_EQ(parsed.sweeps[0].items, 2u);
}

TEST(Profile, JsonParserIsStrict) {
  Profile out;
  EXPECT_FALSE(parse_profile_json("", &out));
  EXPECT_FALSE(parse_profile_json("{}", &out));
  EXPECT_FALSE(parse_profile_json("not json", &out));
  const std::string good = render_profile_json(sample_profile());
  EXPECT_FALSE(parse_profile_json(good.substr(0, good.size() - 2), &out));
  EXPECT_FALSE(parse_profile_json(good + "x", &out));
  std::string bad_format = good;
  const std::size_t at = bad_format.find("\"format\":2");
  ASSERT_NE(at, std::string::npos);
  bad_format.replace(at, 10, "\"format\":9");
  EXPECT_FALSE(parse_profile_json(bad_format, &out));
  // Format 1 carried per-task steal and dequeue fields.
  bad_format.replace(at, 10, "\"format\":1");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(parse_profile_json(bad_format, &out));
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "unsupported format 1"),
            std::string::npos);
}

TEST(Profile, ReportTopDiffAndTraceRendersCarryTheHeadlines) {
  const Profile profile = sample_profile();
  const std::string report = render_profile_report(profile);
  EXPECT_NE(report.find("critical path (stage sum"), std::string::npos);
  EXPECT_NE(report.find("queue latency (submit -> begin, log2 us):"),
            std::string::npos);
  EXPECT_NE(report.find("herd:"), std::string::npos);

  // Top is ranked by execution time: n=1 keeps chunk 0 (480us), cuts
  // chunk 1 (370us).
  const std::string top = render_profile_top(profile, 1);
  EXPECT_NE(top.find("task 11"), std::string::npos);
  EXPECT_EQ(top.find("task 12"), std::string::npos);

  const std::string diff = render_profile_diff(profile, profile);
  EXPECT_NE(diff.find("tasks executed"), std::string::npos);

  const std::string fragment = render_task_trace_events(profile);
  EXPECT_NE(fragment.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(fragment.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(fragment.find("\"ph\":\"f\""), std::string::npos);
  // The fragment splices into a well-formed Chrome trace.
  const std::string trace = render_chrome_trace({}, fragment);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find(fragment), std::string::npos);
}

// ---- snapshot JSON + the gate ----------------------------------------

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot snap;
  snap.counters["alpha.hits"] = 3;
  snap.counters["beta.misses"] = 0;
  snap.gauges["depth"] = -4;
  HistogramSnapshot hist;
  hist.count = 2;
  hist.sum = 300;
  hist.buckets[8] = 2;
  snap.histograms["exp.t1.wall_micros"] = hist;
  return snap;
}

TEST(MetricsJson, RoundTripIsByteStable) {
  const MetricsSnapshot snap = sample_snapshot();
  const std::string json = render_metrics_json(snap);
  const MetricsSnapshot parsed = parse_metrics_json(json);
  EXPECT_EQ(parsed.counters, snap.counters);
  EXPECT_EQ(parsed.gauges, snap.gauges);
  ASSERT_EQ(parsed.histograms.count("exp.t1.wall_micros"), 1u);
  EXPECT_EQ(parsed.histograms.at("exp.t1.wall_micros").sum, 300u);
  // Render(parse(render(x))) == render(x): byte-stable for diffing.
  EXPECT_EQ(render_metrics_json(parsed), json);
}

TEST(MetricsJson, ParserIsStrict) {
  EXPECT_THROW((void)parse_metrics_json(""), std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json("{}"), std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json("not json"), std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json(R"({"format":99,"counters":{},)"
                                        R"("gauges":{},"histograms":{}})"),
               std::runtime_error);
  const std::string good = render_metrics_json(sample_snapshot());
  EXPECT_THROW((void)parse_metrics_json(good.substr(0, good.size() - 2)),
               std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json(good + "x"), std::runtime_error);
}

// The full uint64 counter and int64 gauge ranges render and parse back
// exactly, INT64_MIN included (no negation of the signed minimum).
TEST(MetricsJson, IntegersRoundTripAcrossTheirFullRange) {
  MetricsSnapshot snap;
  snap.counters["above_int64"] = std::uint64_t{1} << 63;
  snap.counters["max"] = UINT64_MAX;
  snap.gauges["max"] = INT64_MAX;
  snap.gauges["min"] = INT64_MIN;
  const std::string json = render_metrics_json(snap);
  const MetricsSnapshot parsed = parse_metrics_json(json);
  EXPECT_EQ(parsed.counters, snap.counters);
  EXPECT_EQ(parsed.gauges, snap.gauges);
  EXPECT_EQ(render_metrics_json(parsed), json);
}

// A value past its type's range is an error, not a wrapped number.
TEST(MetricsJson, OutOfRangeIntegersAreRejected) {
  const auto with = [](const std::string& counter, const std::string& gauge) {
    return R"({"format":1,"counters":{"a":)" + counter +
           R"(},"gauges":{"g":)" + gauge + R"(},"histograms":{}})";
  };
  EXPECT_NO_THROW((void)parse_metrics_json(with("0", "0")));
  EXPECT_THROW((void)parse_metrics_json(with("18446744073709551616", "0")),
               std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json(with("18446744073709551617", "0")),
               std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json(with("-1", "0")),
               std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json(with("0", "9223372036854775808")),
               std::runtime_error);
  EXPECT_THROW((void)parse_metrics_json(with("0", "-9223372036854775809")),
               std::runtime_error);
}

TEST(Diff, PassesWithinBandFailsBeyond) {
  MetricsSnapshot base = sample_snapshot();
  MetricsSnapshot current = sample_snapshot();
  // Identical snapshots never regress.
  EXPECT_EQ(diff_snapshots(base, current).regressions, 0u);
  // 30% slower: beyond a 25% band, within a 50% one.
  current.histograms["exp.t1.wall_micros"].sum = 390;
  DiffOptions strict;
  strict.tolerance = 0.25;
  const DiffReport bad = diff_snapshots(base, current, strict);
  EXPECT_EQ(bad.regressions, 1u);
  ASSERT_FALSE(bad.lines.empty());
  EXPECT_NE(bad.lines[0].find("REGRESSION"), std::string::npos);
  DiffOptions loose;
  loose.tolerance = 0.5;
  EXPECT_EQ(diff_snapshots(base, current, loose).regressions, 0u);
  // Below the noise floor nothing regresses, however slow relatively.
  strict.min_micros = 1000;
  EXPECT_EQ(diff_snapshots(base, current, strict).regressions, 0u);
}

TEST(Diff, MissingSeriesIsReportedNotFailed) {
  const MetricsSnapshot base = sample_snapshot();
  MetricsSnapshot current = sample_snapshot();
  current.histograms.clear();
  const DiffReport report = diff_snapshots(base, current);
  EXPECT_EQ(report.regressions, 0u);
  bool missing = false;
  for (const std::string& line : report.lines) {
    if (line.find("MISSING") != std::string::npos) missing = true;
  }
  EXPECT_TRUE(missing);
}

/// History snapshot carrying just the gated series, with mean sum/count.
MetricsSnapshot snapshot_with_wall(std::uint64_t count, std::uint64_t sum) {
  MetricsSnapshot snap;
  HistogramSnapshot hist;
  hist.count = count;
  hist.sum = sum;
  hist.buckets[8] = count;
  snap.histograms["exp.t1.wall_micros"] = hist;
  return snap;
}

TEST(Diff, HistoryTightensTheBandForStableSeries) {
  const MetricsSnapshot base = sample_snapshot();      // mean 150us
  MetricsSnapshot current = sample_snapshot();
  current.histograms["exp.t1.wall_micros"].sum = 224;  // mean 112us

  // No history: the flat band vs the (slow) baseline passes 112 easily.
  EXPECT_EQ(diff_snapshots_with_history(base, current, {}).regressions, 0u);

  // Five stable runs at mean 100: the variance band collapses to
  // mu + mu*min_band_frac = 105, and the same 112 is a regression the
  // flat band would wave through.
  const std::vector<MetricsSnapshot> stable(5, snapshot_with_wall(2, 200));
  const DiffReport tight =
      diff_snapshots_with_history(base, current, stable);
  EXPECT_EQ(tight.regressions, 1u);
  bool noted = false;
  for (const std::string& line : tight.lines) {
    if (line.find("history n=5") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);

  // A noisy history widens its own band: means 80..120 give sigma
  // ~12.6us, so the 3-sigma band (~138us) absorbs the same 112.
  const std::vector<MetricsSnapshot> noisy = {
      snapshot_with_wall(2, 160), snapshot_with_wall(2, 200),
      snapshot_with_wall(2, 240), snapshot_with_wall(2, 200),
      snapshot_with_wall(2, 200)};
  EXPECT_EQ(diff_snapshots_with_history(base, current, noisy).regressions,
            0u);
}

TEST(Diff, ThinHistoryFallsBackToTheFlatBand) {
  const MetricsSnapshot base = sample_snapshot();
  MetricsSnapshot current = sample_snapshot();
  current.histograms["exp.t1.wall_micros"].sum = 224;
  // Two runs are below the default min_history_runs of three: the gate
  // must fall back to the flat band (and say so) instead of trusting a
  // two-point distribution.
  const std::vector<MetricsSnapshot> thin(2, snapshot_with_wall(2, 200));
  const DiffReport report =
      diff_snapshots_with_history(base, current, thin);
  EXPECT_EQ(report.regressions, 0u);
  bool noted = false;
  for (const std::string& line : report.lines) {
    if (line.find("thin history n=2") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(Diff, LoadSnapshotDirSkipsCorruptEntriesAndMissingDirs) {
  char dir_template[] = "/tmp/rdv_obs_hist_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  const std::string good = render_metrics_json(sample_snapshot());
  std::ofstream(dir + "/a.json") << good;
  std::ofstream(dir + "/b.json") << good;
  std::ofstream(dir + "/c.json") << "not a snapshot";
  std::ofstream(dir + "/ignored.txt") << good;
  const std::vector<MetricsSnapshot> history = load_snapshot_dir(dir);
  EXPECT_EQ(history.size(), 2u);  // c.json skipped, .txt never considered
  for (const MetricsSnapshot& snap : history) {
    EXPECT_EQ(snap.counters.at("alpha.hits"), 3u);
  }
  EXPECT_TRUE(load_snapshot_dir(dir + "/no/such/dir").empty());
  ::unlink((dir + "/a.json").c_str());
  ::unlink((dir + "/b.json").c_str());
  ::unlink((dir + "/c.json").c_str());
  ::unlink((dir + "/ignored.txt").c_str());
  ::rmdir(dir.c_str());
}

TEST(Assertions, ResolveCountersGaugesAndHistogramProjections) {
  const MetricsSnapshot snap = sample_snapshot();
  EXPECT_TRUE(check_assertion(snap, "alpha.hits==3").ok);
  EXPECT_TRUE(check_assertion(snap, "alpha.hits>=3").ok);
  EXPECT_TRUE(check_assertion(snap, "alpha.hits<=3").ok);
  EXPECT_TRUE(check_assertion(snap, "alpha.hits!=2").ok);
  EXPECT_TRUE(check_assertion(snap, "beta.misses==0").ok);
  EXPECT_FALSE(check_assertion(snap, "alpha.hits<3").ok);
  EXPECT_FALSE(check_assertion(snap, "alpha.hits>3").ok);
  EXPECT_TRUE(check_assertion(snap, "depth==-4").ok);
  EXPECT_TRUE(check_assertion(snap, "exp.t1.wall_micros.count==2").ok);
  EXPECT_TRUE(check_assertion(snap, "exp.t1.wall_micros.sum==300").ok);
  // Missing names and malformed expressions fail with a message, never
  // pass silently.
  EXPECT_FALSE(check_assertion(snap, "no.such.series==0").ok);
  EXPECT_FALSE(check_assertion(snap, "alpha.hits").ok);
  EXPECT_FALSE(check_assertion(snap, "alpha.hits==").ok);
  EXPECT_FALSE(check_assertion(snap, "").ok);
}

// ---- end-to-end: sidecars never change primary output ----------------

/// Runs exp::run_main with stdout redirected to a temp file; returns
/// the captured bytes.
std::string run_capturing_stdout(const std::vector<const char*>& argv,
                                 int& exit_code) {
  std::fflush(stdout);
  const int saved = ::dup(STDOUT_FILENO);
  EXPECT_GE(saved, 0);
  char path[] = "/tmp/rdv_obs_stdout_XXXXXX";
  const int fd = ::mkstemp(path);
  EXPECT_GE(fd, 0);
  ::dup2(fd, STDOUT_FILENO);
  exit_code = exp::run_main(static_cast<int>(argv.size()), argv.data());
  std::fflush(stdout);
  ::dup2(saved, STDOUT_FILENO);
  ::close(saved);
  ::close(fd);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ::unlink(path);
  return buffer.str();
}

TEST(EndToEnd, PrimaryStdoutIsByteIdenticalWithSidecarsOn) {
  const std::string metrics_path = "/tmp/rdv_obs_test_metrics.json";
  const std::string trace_path = "/tmp/rdv_obs_test_trace.json";
  const std::string metrics_flag = "--metrics-out=" + metrics_path;
  const std::string trace_flag = "--trace-out=" + trace_path;

  int plain_rc = -1;
  const std::string plain = run_capturing_stdout(
      {"rdv_bench", "t1_shrink_families", "--smoke"}, plain_rc);
  int sidecar_rc = -1;
  const std::string sidecar = run_capturing_stdout(
      {"rdv_bench", "t1_shrink_families", "--smoke", metrics_flag.c_str(),
       trace_flag.c_str()},
      sidecar_rc);
  set_task_events_enabled(false);

  EXPECT_EQ(plain_rc, 0);
  EXPECT_EQ(sidecar_rc, 0);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, sidecar);

  // The metrics sidecar parses strictly and carries the pool, sweep,
  // cache, store, and per-experiment series the gate consumes.
  std::ifstream min(metrics_path, std::ios::binary);
  ASSERT_TRUE(min.good());
  std::ostringstream mbuf;
  mbuf << min.rdbuf();
  const MetricsSnapshot snap = parse_metrics_json(mbuf.str());
  EXPECT_EQ(snap.counters.count("pool.submits"), 1u);
  EXPECT_EQ(snap.counters.count("sweep.chunks"), 1u);
  EXPECT_EQ(snap.counters.count("cache.view_classes.hits"), 1u);
  EXPECT_EQ(snap.counters.count("store.view_classes.hits"), 1u);
  EXPECT_EQ(snap.counters.count("uxs.corpus_verifications"), 1u);
  EXPECT_EQ(
      snap.histograms.count("exp.t1_shrink_families.wall_micros"), 1u);
  EXPECT_GE(
      snap.histograms.at("exp.t1_shrink_families.wall_micros").count, 1u);
  EXPECT_EQ(snap.counters.at("obs.events_dropped"), 0u);
  EXPECT_GT(snap.counters.at("obs.events_recorded"), 0u);

  // The trace sidecar is a Chrome-trace JSON with experiment spans.
  std::ifstream tin(trace_path, std::ios::binary);
  ASSERT_TRUE(tin.good());
  std::ostringstream tbuf;
  tbuf << tin.rdbuf();
  const std::string trace = tbuf.str();
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"t1_shrink_families\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"exp.case\""), std::string::npos);

  ::unlink(metrics_path.c_str());
  ::unlink(trace_path.c_str());
  clear_task_events();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// Checks that a Chrome trace records each moment of `profile` once:
/// one X slice per completed sweep, executed task, merge and park, and
/// none of the span slices that used to duplicate them. With
/// `same_drain` false the profile comes from a later drain, which may
/// hold a task end or park that landed after the trace was written, so
/// tasks and parks are checked as at-most-once.
void expect_one_slice_per_moment(const std::string& trace,
                                 const Profile& profile, bool same_drain) {
  EXPECT_EQ(count_of(trace, "{\"name\":\"map\","), 0u);
  EXPECT_EQ(count_of(trace, "{\"name\":\"chunk\","), 0u);
  EXPECT_EQ(count_of(trace, "{\"name\":\"merge\",\"cat\":\"sweep\""), 0u);
  EXPECT_EQ(count_of(trace, "\"park.wait\""), 0u);

  std::size_t sweeps = 0;
  for (const SweepProfile& sp : profile.sweeps) {
    if (sp.end_t == 0) continue;
    ++sweeps;
    EXPECT_EQ(count_of(trace, "{\"name\":\"sweep " + std::to_string(sp.id) +
                                  "\",\"cat\":\"sweep\",\"ph\":\"X\""),
              1u);
  }
  std::size_t merges = 0;
  for (const MergeProfile& m : profile.merges) {
    if (m.end_t == 0) continue;
    ++merges;
    EXPECT_EQ(count_of(trace, "{\"name\":\"merge " + std::to_string(m.sweep) +
                                  ":" + std::to_string(m.chunk) +
                                  "\",\"cat\":\"sweep\",\"ph\":\"X\""),
              1u);
  }
  EXPECT_GT(sweeps, 0u);
  EXPECT_EQ(count_of(trace, "\"cat\":\"sweep\",\"ph\":\"X\""),
            sweeps + merges);

  std::size_t tasks = 0;
  for (const TaskProfile& t : profile.tasks) {
    if (t.begin_t == 0 || t.end_t == 0) continue;
    ++tasks;
    const std::size_t slices = count_of(
        trace, "\"args\":{\"task\":" + std::to_string(t.id) + "}}");
    if (same_drain) {
      EXPECT_EQ(slices, 1u) << "task " << t.id;
    } else {
      EXPECT_LE(slices, 1u) << "task " << t.id;
    }
  }
  EXPECT_GT(tasks, 0u);
  const std::size_t task_slices =
      count_of(trace, "\"cat\":\"task\",\"ph\":\"X\"");
  const std::size_t park_slices =
      count_of(trace, "{\"name\":\"park\",\"cat\":\"pool\",\"ph\":\"X\"");
  if (same_drain) {
    EXPECT_EQ(task_slices, tasks);
    EXPECT_EQ(park_slices, profile.parks.size());
  } else {
    EXPECT_LE(task_slices, tasks);
    EXPECT_LE(park_slices, profile.parks.size());
  }
}

TEST(EndToEnd, ProfileSidecarKeepsStdoutByteIdenticalAndStitchesFlows) {
  const std::string profile_path = "/tmp/rdv_obs_test_profile.json";
  const std::string trace_path = "/tmp/rdv_obs_test_profile_trace.json";
  const std::string profile_flag = "--profile-out=" + profile_path;
  const std::string trace_flag = "--trace-out=" + trace_path;

  int plain_rc = -1;
  const std::string plain = run_capturing_stdout(
      {"rdv_bench", "t1_shrink_families", "--smoke"}, plain_rc);
  int profiled_rc = -1;
  const std::string profiled = run_capturing_stdout(
      {"rdv_bench", "t1_shrink_families", "--smoke", profile_flag.c_str(),
       trace_flag.c_str()},
      profiled_rc);
  set_task_events_enabled(false);

  EXPECT_EQ(plain_rc, 0);
  EXPECT_EQ(profiled_rc, 0);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, profiled);

  // The profile sidecar parses strictly and reconstructs the smoke
  // run's sweeps with zero ring drops.
  Profile profile;
  ASSERT_TRUE(parse_profile_json(read_file(profile_path), &profile));
  EXPECT_EQ(profile.dropped, 0u);
  EXPECT_GE(profile.sweeps.size(), 1u);
  EXPECT_FALSE(profile.tasks.empty());
  bool chunk_seen = false;
  for (const TaskProfile& t : profile.tasks) chunk_seen |= t.is_chunk;
  EXPECT_TRUE(chunk_seen);

  // Both sidecars come from one drain: the trace carries the span
  // slices, the task flow arrows, and exactly one slice per moment of
  // the profile written next to it.
  const std::string trace = read_file(trace_path);
  EXPECT_NE(trace.find("\"cat\":\"exp.case\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  expect_one_slice_per_moment(trace, profile, /*same_drain=*/true);

  ::unlink(profile_path.c_str());
  ::unlink(trace_path.c_str());
  clear_task_events();
}

TEST(EndToEnd, TraceOnlyRunCarriesFlowsAndOneSlicePerMoment) {
  const std::string trace_path = "/tmp/rdv_obs_test_trace_only.json";
  const std::string trace_flag = "--trace-out=" + trace_path;
  clear_task_events();
  int rc = -1;
  (void)run_capturing_stdout(
      {"rdv_bench", "t1_shrink_families", "--smoke", trace_flag.c_str()},
      rc);
  set_task_events_enabled(false);
  EXPECT_EQ(rc, 0);

  // --trace-out alone turns the one switch on, so the lifecycle events
  // behind the flow arrows are recorded without --profile-out.
  const std::string trace = read_file(trace_path);
  EXPECT_NE(trace.find("\"cat\":\"flow\",\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  expect_one_slice_per_moment(trace, build_profile(drain_task_events()),
                              /*same_drain=*/false);

  ::unlink(trace_path.c_str());
  clear_task_events();
}

// A sign or an out-of-range count is a usage error (exit 2), caught
// before any pool is built: "-1" once wrapped to 2^64 - 1 workers.
TEST(EndToEnd, ThreadCountsOutsideOneTo1024AreUsageErrors) {
  for (const char* threads : {"-1", "0"}) {
    SCOPED_TRACE(threads);
    int rc = -1;
    const std::string out = run_capturing_stdout(
        {"rdv_bench", "t1_shrink_families", "--smoke", "--threads", threads},
        rc);
    EXPECT_EQ(rc, 2);
    EXPECT_TRUE(out.empty());
  }
}

// The counters CI asserts ==0 are registered when their subsystem
// loads, not at their first bump, so a run that never bumps them still
// carries them at 0. t6 simulates on Q-hat alone: after a reset it
// computes no view classes, Shrink table or corpus UXS.
TEST(EndToEnd, CiAssertedCountersAppearInTheSnapshotAtZero) {
  const std::string metrics_path = "/tmp/rdv_obs_test_zero_metrics.json";
  const std::string metrics_flag = "--metrics-out=" + metrics_path;
  Registry::instance().reset_for_tests();
  int rc = -1;
  (void)run_capturing_stdout(
      {"rdv_bench", "t6_lower_bound_qhat", "--smoke", metrics_flag.c_str()},
      rc);
  EXPECT_EQ(rc, 0);
  const MetricsSnapshot snap = parse_metrics_json(read_file(metrics_path));
  for (const char* name :
       {"views.refine_naive", "views.shrink_pair_bfs",
        "views.shrink_distance_rows", "views.shrink_all_pairs_computes",
        "views.refine_worklist_computes", "uxs.corpus_verifications"}) {
    SCOPED_TRACE(name);
    ASSERT_EQ(snap.counters.count(name), 1u);
    EXPECT_EQ(snap.counters.at(name), 0u);
  }
  ::unlink(metrics_path.c_str());
}

}  // namespace
}  // namespace rdv::obs
