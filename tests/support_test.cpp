#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/bench_json.hpp"
#include "support/env.hpp"
#include "support/map_cells.hpp"
#include "support/saturating.hpp"
#include "support/splitmix.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace rdv::support {
namespace {

// Every table size and cell count around the 16-cell blocks of the
// shuffle path, at every offset: the same cells as one lookup each.
TEST(MapCells, MatchesOneLookupPerCell) {
  SplitMix64 rng(7);
  std::vector<std::uint8_t> src(80);
  for (std::size_t size = 1; size <= 20; ++size) {
    std::vector<std::uint8_t> table(size);
    for (std::uint8_t& t : table) t = static_cast<std::uint8_t>(rng.next());
    for (std::uint8_t& c : src) c = static_cast<std::uint8_t>(rng.next() % size);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t count = 0; offset + count <= src.size(); count += 3) {
        std::vector<std::uint8_t> dst(count + 1, 0xab);
        map_cells<std::uint8_t>(src.data() + offset, dst.data(), count, table);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(dst[i], table[src[offset + i]]) << size << " " << i;
        }
        EXPECT_EQ(dst[count], 0xab);
      }
    }
  }
  const std::vector<std::uint16_t> wide{3, 1, 2, 0};
  const std::vector<std::uint16_t> cells{0, 1, 2, 3, 3};
  std::vector<std::uint16_t> out(cells.size());
  map_cells<std::uint16_t>(cells.data(), out.data(), cells.size(), wide);
  EXPECT_EQ(out, (std::vector<std::uint16_t>{3, 1, 2, 0, 0}));
}

TEST(Saturating, AddSaturates) {
  EXPECT_EQ(sat_add(2, 3), 5u);
  EXPECT_EQ(sat_add(kRoundInfinity, 0), kRoundInfinity);
  EXPECT_EQ(sat_add(kRoundInfinity, 1), kRoundInfinity);
  EXPECT_EQ(sat_add(kRoundInfinity - 1, 1), kRoundInfinity);
  EXPECT_EQ(sat_add(kRoundInfinity - 1, 2), kRoundInfinity);
}

TEST(Saturating, MulSaturates) {
  EXPECT_EQ(sat_mul(6, 7), 42u);
  EXPECT_EQ(sat_mul(0, kRoundInfinity), 0u);
  EXPECT_EQ(sat_mul(kRoundInfinity, 2), kRoundInfinity);
  EXPECT_EQ(sat_mul(std::uint64_t{1} << 33, std::uint64_t{1} << 33),
            kRoundInfinity);
}

TEST(Saturating, PowExactAndSaturating) {
  EXPECT_EQ(sat_pow(3, 0), 1u);
  EXPECT_EQ(sat_pow(3, 4), 81u);
  EXPECT_EQ(sat_pow(1, 1000000), 1u);
  EXPECT_EQ(sat_pow(2, 63), std::uint64_t{1} << 63);
  EXPECT_EQ(sat_pow(2, 64), kRoundInfinity);
  EXPECT_EQ(sat_pow(10, 25), kRoundInfinity);
}

TEST(Saturating, SubClampsAtZero) {
  EXPECT_EQ(sat_sub(5, 3), 2u);
  EXPECT_EQ(sat_sub(3, 5), 0u);
}

TEST(Saturating, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2u);
  EXPECT_EQ(ceil_div(11, 5), 3u);
  EXPECT_EQ(ceil_div(1, 7), 1u);
}

TEST(Saturating, BitsFor) {
  EXPECT_EQ(bits_for(0), 0u);
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 2u);
  EXPECT_EQ(bits_for(255), 8u);
  EXPECT_EQ(bits_for(256), 9u);
}

TEST(SplitMix, KnownAnswer) {
  SplitMix64 rng(0);
  EXPECT_EQ(rng.next(), 0xE220A8397B1DCDAFULL);
  // The state advances by the golden-gamma increment per draw.
  EXPECT_EQ(rng.state(), 0x9E3779B97F4A7C15ULL);
}

TEST(SplitMix, Deterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix, NextBelowInRangeAndCoversValues) {
  SplitMix64 rng(7);
  bool seen[5] = {};
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.next_below(5);
    ASSERT_LT(v, 5u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(TaskGroup, RunsAllTasksAndWaits) {
  ThreadPool pool(3);
  TaskGroup group(pool);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    group.submit([&count] { count.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(group.pending(), 0u);
}

TEST(TaskGroup, WaitOnEmptyGroupReturnsImmediately) {
  ThreadPool pool(1);
  TaskGroup group(pool);
  group.wait();
  EXPECT_EQ(group.pending(), 0u);
}

TEST(TaskGroup, ReusableAcrossBatches) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      group.submit([&count] { count.fetch_add(1); });
    }
    group.wait();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

// The per-sweep completion-tracking contract (ROADMAP): waiting on one
// group must NOT wait for the rest of the pool. Group B parks a task on
// a gate; group A's wait() still returns — a wait for the whole pool
// would deadlock here.
TEST(TaskGroup, WaitDoesNotWaitForOtherGroupsTasks) {
  ThreadPool pool(2);
  TaskGroup blocked(pool);
  TaskGroup quick(pool);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  blocked.submit([opened] { opened.wait(); });
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    quick.submit([&count] { count.fetch_add(1); });
  }
  quick.wait();
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(quick.pending(), 0u);
  gate.set_value();
  blocked.wait();
  EXPECT_EQ(blocked.pending(), 0u);
}

// THE nested-sweep deadlock regression (ISSUE 5 tentpole): a pool task
// that constructs a TaskGroup and waits on sub-tasks submitted to the
// SAME pool. With a parking wait and one worker, the worker blocks on
// tasks only it could run — pre-fix this hung forever; the
// work-assisting wait has the worker execute its own sub-tasks.
TEST(TaskGroup, NestedWaitInsideOneThreadPoolCompletes) {
  ThreadPool pool(1);
  std::atomic<int> inner_sum{0};
  std::atomic<bool> outer_done{false};
  TaskGroup outer(pool);
  outer.submit([&] {
    TaskGroup inner(pool);
    for (int i = 0; i < 8; ++i) {
      inner.submit([&inner_sum] { inner_sum.fetch_add(1); });
    }
    inner.wait();
    // Everything the outer task waited on finished before it resumed.
    EXPECT_EQ(inner_sum.load(), 8);
    outer_done.store(true);
  });
  outer.wait();
  EXPECT_TRUE(outer_done.load());
  EXPECT_EQ(outer.pending(), 0u);
}

// Three levels of nesting on a one-worker pool: outer case -> inner
// sweep -> innermost chunk group, the shape of a t2 case whose
// kernel sweeps (and whose kernel's kernel sweeps again).
TEST(TaskGroup, DeeplyNestedWaitsOnOneThread) {
  ThreadPool pool(1);
  std::atomic<int> leaves{0};
  TaskGroup outer(pool);
  for (int o = 0; o < 3; ++o) {
    outer.submit([&pool, &leaves] {
      TaskGroup mid(pool);
      for (int m = 0; m < 3; ++m) {
        mid.submit([&pool, &leaves] {
          TaskGroup inner(pool);
          for (int i = 0; i < 3; ++i) {
            inner.submit([&leaves] { leaves.fetch_add(1); });
          }
          inner.wait();
        });
      }
      mid.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaves.load(), 27);
}

// Oversubscription stress (run under TSan in CI): many more
// simultaneously-waiting groups than workers, every worker blocked in
// a nested wait at once, plus an external waiter. Completion proves no
// schedule loses tasks and no nesting pattern deadlocks.
TEST(TaskGroup, OversubscribedNestedGroupsStress) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  TaskGroup outer(pool);
  for (int o = 0; o < 16; ++o) {
    outer.submit([&pool, &inner_total] {
      TaskGroup inner(pool);
      for (int i = 0; i < 16; ++i) {
        inner.submit([&inner_total] { inner_total.fetch_add(1); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_total.load(), 16 * 16);
  EXPECT_EQ(outer.pending(), 0u);
}

// Tasks a worker submits do not wait for that worker: while it is
// blocked on a gate (not a work-assisting wait), the other workers run
// them.
TEST(ThreadPool, TasksOfABlockedWorkerRunOnOtherWorkers) {
  ThreadPool pool(4);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> started{0};
  std::atomic<int> count{0};
  TaskGroup group(pool);
  group.submit([&pool, &started, &count, opened] {
    TaskGroup batch(pool);
    for (int i = 0; i < 32; ++i) {
      batch.submit([&started, &count, opened] {
        started.fetch_add(1);
        opened.wait();
        count.fetch_add(1);
      });
    }
    // The submitter blocks on the gate, so until the gate opens only
    // the other workers can run the batch.
    opened.wait();
    batch.wait();
  });
  // Three tasks start while the submitting worker is blocked, observed
  // before the gate is released.
  while (started.load() < 3) std::this_thread::yield();
  gate.set_value();
  group.wait();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ParkAndWakeupCountsAdvance) {
  ThreadPool pool(2);
  // Idle workers scan the (empty) queues once and park; poll until
  // both have (timing-tolerant, bounded).
  for (int i = 0; i < 5000 && pool.park_count() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(pool.park_count(), 2u);

  TaskGroup group(pool);
  std::atomic<int> ran{0};
  group.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  group.wait();
  EXPECT_EQ(ran.load(), 1);
  for (int i = 0; i < 5000 && pool.wakeup_count() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(pool.wakeup_count(), 1u);
  // Every wakeup was preceded by its park (read wakeups first: a
  // concurrent park may land between the two loads, never a wakeup
  // without one).
  const std::uint64_t wakeups = pool.wakeup_count();
  EXPECT_GE(pool.park_count(), wakeups);
}

TEST(Table, MarkdownShape) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(md.find("| 333 | 4  |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column_count(), 2u);
}

TEST(Table, Csv) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

// Regression: add_row used to validate only via assert, so a
// mismatched row silently indexed out of bounds in NDEBUG builds.
TEST(Table, AddRowRejectsCellCountMismatch) {
  Table t({"x", "y"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, JsonShapeAndEscaping) {
  Table t({"x", "y"});
  t.add_row({"a\"b", "line\nbreak"});
  t.add_row({"back\\slash", "\ttab"});
  EXPECT_EQ(t.to_json(),
            "{\"headers\": [\"x\", \"y\"], \"rows\": [\n"
            "  [\"a\\\"b\", \"line\\nbreak\"],\n"
            "  [\"back\\\\slash\", \"\\ttab\"]\n"
            "]}\n");
  EXPECT_EQ(Table({"only"}).to_json(),
            "{\"headers\": [\"only\"], \"rows\": []}\n");
}

TEST(Env, FlagAndSizeParsing) {
  ASSERT_EQ(setenv("RDV_TEST_ENV", "", 1), 0);
  EXPECT_FALSE(env_flag("RDV_TEST_ENV"));
  ASSERT_EQ(setenv("RDV_TEST_ENV", "0", 1), 0);
  EXPECT_FALSE(env_flag("RDV_TEST_ENV"));
  ASSERT_EQ(setenv("RDV_TEST_ENV", "yes", 1), 0);
  EXPECT_TRUE(env_flag("RDV_TEST_ENV"));
  EXPECT_EQ(env_string("RDV_TEST_ENV"), "yes");
  ASSERT_EQ(unsetenv("RDV_TEST_ENV"), 0);
  EXPECT_FALSE(env_flag("RDV_TEST_ENV"));
  EXPECT_EQ(env_string("RDV_TEST_ENV"), "");
}

TEST(Env, StoreAndCensusKnobs) {
  ASSERT_EQ(setenv("RDV_STORE_DIR", "/tmp/rdv-store-x", 1), 0);
  ASSERT_EQ(setenv("RDV_STORE_SALT", "salt-x", 1), 0);
  ASSERT_EQ(setenv("RDV_STORE_READONLY", "1", 1), 0);
  ASSERT_EQ(setenv("REPRO_CENSUS", "1", 1), 0);
  EXPECT_EQ(rdv_store_dir(), "/tmp/rdv-store-x");
  EXPECT_EQ(rdv_store_salt(), "salt-x");
  EXPECT_TRUE(rdv_store_readonly());
  EXPECT_TRUE(repro_census());
  // Same strict-"1" contract as REPRO_FULL.
  ASSERT_EQ(setenv("REPRO_CENSUS", "true", 1), 0);
  EXPECT_FALSE(repro_census());
  ASSERT_EQ(unsetenv("RDV_STORE_DIR"), 0);
  ASSERT_EQ(unsetenv("RDV_STORE_SALT"), 0);
  ASSERT_EQ(unsetenv("RDV_STORE_READONLY"), 0);
  ASSERT_EQ(unsetenv("REPRO_CENSUS"), 0);
  EXPECT_EQ(rdv_store_dir(), "");
  EXPECT_EQ(rdv_store_salt(), "");
  EXPECT_FALSE(rdv_store_readonly());
  EXPECT_FALSE(repro_census());
}

TEST(BenchJson, UpdateReplacesOwnLineAndPreservesOthers) {
  const std::string path = ::testing::TempDir() + "bench_json_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(update_bench_json(path, "micro_sweep",
                                "{\"bench\":\"micro_sweep\",\"v\":1}"));
  ASSERT_TRUE(update_bench_json(path, "rdv_bench",
                                "{\"bench\":\"rdv_bench\",\"v\":2}"));
  // Re-emitting one bench replaces only its own line.
  ASSERT_TRUE(update_bench_json(path, "micro_sweep",
                                "{\"bench\":\"micro_sweep\",\"v\":3}"));
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"bench\":\"rdv_bench\",\"v\":2}");
  EXPECT_EQ(lines[1], "{\"bench\":\"micro_sweep\",\"v\":3}");
  std::remove(path.c_str());
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_rounds(17), "17");
  EXPECT_EQ(format_rounds(kRoundInfinity), "inf");
  EXPECT_EQ(format_double(1.005, 1), "1.0");
}

}  // namespace
}  // namespace rdv::support
