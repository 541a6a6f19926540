#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fstream>
#include <iterator>

#include "cache/artifact_cache.hpp"
#include "exp/scenarios/scenarios.hpp"
#include "store/result_log.hpp"
#include "support/thread_pool.hpp"
#include "views/shrink.hpp"

namespace rdv::exp {
namespace {

/// Full rendered output of one run: every emission format plus notes,
/// so a difference anywhere (cells, schema, commentary) is caught.
/// Detail records are part of the output too: their encoded bytes are
/// what the result log frames.
std::string render(const Experiment& e, const ExpContext& ctx) {
  const ExpOutput output = run_experiment(e, ctx);
  std::string out = output.table.to_markdown() + output.table.to_csv() +
                    output.table.to_json();
  for (const std::string& note : output.notes) out += note + "\n";
  for (const store::ResultRecord& detail : output.details) {
    out += store::encode_result_record(detail);
  }
  return out;
}

TEST(Registry, BuiltinRegistersEveryPaperExperiment) {
  const Registry& registry = builtin_registry();
  EXPECT_GE(registry.size(), 12u);
  const char* ids[] = {
      "t1_shrink_families",     "t2_feasibility_characterization",
      "t3_symm_rv_time",        "t4_asymm_rv_time",
      "t5_universal_time",      "t6_lower_bound_qhat",
      "t7_infeasible_stics",    "t8_uxs_ablation",
      "t9_label_ablation",      "t10_optimal_crossover",
      "t11_randomized_baseline", "f1_qhat_construction",
      "c1_random_census",       "c2_implicit_census"};
  for (const char* id : ids) {
    const Experiment* e = registry.find(id);
    ASSERT_NE(e, nullptr) << id;
    EXPECT_EQ(e->id, id);
    EXPECT_FALSE(e->title.empty()) << id;
    EXPECT_FALSE(e->headers.empty()) << id;
    EXPECT_FALSE(e->axes.empty()) << id;
    EXPECT_FALSE(e->tags.empty()) << id;
  }
}

TEST(Registry, MatchFiltersByIdTitleAndTag) {
  const Registry& registry = builtin_registry();
  EXPECT_EQ(registry.match("").size(), registry.size());
  // Tag filter: both Q-hat experiments carry the "qhat" tag.
  const auto qhat = registry.match("qhat");
  EXPECT_GE(qhat.size(), 2u);
  // Id filter is a substring match.
  const auto t1 = registry.match("t11_");
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_EQ(t1[0]->id, "t11_randomized_baseline");
  EXPECT_TRUE(registry.match("no-such-experiment").empty());
}

TEST(Registry, RejectsDuplicateAndMalformedRegistrations) {
  Registry registry;
  Experiment e;
  e.id = "dup";
  e.headers = {"x"};
  e.cases = [](const ExpContext&) { return std::vector<CaseFn>{}; };
  registry.add(e);
  EXPECT_THROW(registry.add(e), std::invalid_argument);
  Experiment no_id = e;
  no_id.id.clear();
  EXPECT_THROW(registry.add(no_id), std::invalid_argument);
  Experiment no_cases;
  no_cases.id = "no-cases";
  no_cases.headers = {"x"};
  EXPECT_THROW(registry.add(no_cases), std::invalid_argument);
}

TEST(RunExperiment, MergesRowsInCaseOrderAndSkipsEmpty) {
  Experiment e;
  e.id = "synthetic";
  e.headers = {"i"};
  e.cases = [](const ExpContext&) {
    std::vector<CaseFn> fns;
    for (std::size_t i = 0; i < 64; ++i) {
      fns.push_back([i](const ExpContext&) {
        // Every third case produces no row.
        if (i % 3 == 2) return std::vector<std::string>{};
        return std::vector<std::string>{std::to_string(i)};
      });
    }
    return fns;
  };
  support::ThreadPool pool(4);
  ExpContext ctx;
  ctx.sweep.pool = &pool;
  const ExpOutput output = run_experiment(e, ctx);
  EXPECT_EQ(output.items_total, 64u);
  // Declined (empty) rows are not "produced".
  ASSERT_EQ(output.table.row_count(), 64u - 64u / 3);
  // Rows come out in case order although cases ran on 4 threads.
  std::string expected;
  for (std::size_t i = 0; i < 64; ++i) {
    if (i % 3 != 2) expected += std::to_string(i) + "\n";
  }
  std::string csv = output.table.to_csv();
  EXPECT_EQ(csv, "i\n" + expected);
  // No case here returns a detail record.
  EXPECT_TRUE(output.details.empty());

  // Detail records merge by case index too: case i sleeps (k - i) ms,
  // so on 4 threads the cases finish roughly in reverse, yet the
  // details come out in case order. Case 1 returns a row but no detail.
  constexpr std::size_t k = 8;
  Experiment reversed;
  reversed.id = "reversed";
  reversed.headers = {"i"};
  reversed.cases = [](const ExpContext&) {
    std::vector<CaseFn> fns;
    for (std::size_t i = 0; i < k; ++i) {
      fns.push_back([i](const ExpContext&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(k - i));
        CaseOutput out({std::to_string(i)});
        if (i != 1) {
          out.detail.emplace();
          out.detail->experiment_id = "reversed/" + std::to_string(i);
        }
        return out;
      });
    }
    return fns;
  };
  const ExpOutput reversed_output = run_experiment(reversed, ctx);
  EXPECT_EQ(reversed_output.table.row_count(), k);
  ASSERT_EQ(reversed_output.details.size(), k - 1);
  std::vector<std::string> ids;
  for (const store::ResultRecord& detail : reversed_output.details) {
    ids.push_back(detail.experiment_id);
  }
  std::vector<std::string> expected_ids;
  for (std::size_t i = 0; i < k; ++i) {
    if (i != 1) expected_ids.push_back("reversed/" + std::to_string(i));
  }
  EXPECT_EQ(ids, expected_ids);
}

/// The acceptance bar for the registry port: every registered
/// experiment's rendered output is byte-identical at 1 vs N threads
/// (including an oversubscribed 16-thread pool driving the pipelined
/// scheduler with tiny chunks, so inner sweeps span many wave slots —
/// and with every case on the pool, t2's nested sweeps included)
/// and with the artifact cache enabled and disabled — the same
/// contract cache_test.cpp pins for raw sweeps.
TEST(ExpDeterminism, ByteIdenticalAcrossThreadsChunksAndCacheConfigs) {
  cache::CacheConfig off;
  off.enabled = false;
  struct Schedule {
    std::size_t threads;
    std::size_t chunk;  // 0 = the derived grain
  };
  const Schedule schedules[] = {{1, 0}, {4, 0}, {16, 2}};
  for (const Experiment& e : builtin_registry().all()) {
    SCOPED_TRACE(e.id);
    std::vector<std::string> outputs;
    for (const Schedule& schedule : schedules) {
      for (const cache::CacheConfig& config : {cache::CacheConfig{}, off}) {
        cache::ArtifactCache cache(config);
        support::ThreadPool pool(schedule.threads);
        ExpContext ctx;
        ctx.scale = Scale::kSmoke;
        ctx.sweep.pool = &pool;
        ctx.sweep.cache = &cache;
        if (schedule.chunk != 0) ctx.sweep.chunk_size = schedule.chunk;
        outputs.push_back(render(e, ctx));
      }
    }
    ASSERT_EQ(outputs.size(), 6u);
    for (std::size_t i = 1; i < outputs.size(); ++i) {
      EXPECT_EQ(outputs[0], outputs[i]) << "variant " << i;
    }
  }
}

/// The census acceptance bar: detail records reach the result log
/// byte-identically at every thread count (run_experiment merges them
/// in case order, and they carry no wall-clock), one per case, ahead
/// of the summary record, and the log reads back through the strict
/// reader.
TEST(ExpCensusStreaming, LogBytesIdenticalAcrossThreadCounts) {
  const char* census_ids[] = {"c1_random_census", "c2_implicit_census"};
  for (const char* id : census_ids) {
    SCOPED_TRACE(id);
    const Experiment* e = builtin_registry().find(id);
    ASSERT_NE(e, nullptr);
    std::vector<std::string> logs;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string path = ::testing::TempDir() + "census_stream_" +
                               std::string(id) + "_t" +
                               std::to_string(threads) + ".rdvl";
      cache::ArtifactCache cache;
      support::ThreadPool pool(threads);
      ExpContext ctx;
      ctx.scale = Scale::kQuick;
      ctx.sweep.pool = &pool;
      ctx.sweep.cache = &cache;
      const ExpOutput output = run_experiment(*e, ctx);
      EXPECT_GE(output.table.row_count(), 1u);
      // One detail per case; every census case produces a row.
      EXPECT_EQ(output.details.size(), output.items_total);
      EXPECT_EQ(output.details.size(), output.table.row_count());
      {
        store::ResultLogWriter writer(path);
        ASSERT_TRUE(writer.ok());
        for (const store::ResultRecord& detail : output.details) {
          writer.append(detail);
        }
        store::ResultRecord summary;
        summary.experiment_id = e->id;
        summary.scale = scale_name(ctx.scale);
        summary.items_total = output.items_total;
        summary.items_produced = output.table.row_count();
        summary.headers = output.table.headers();
        summary.rows = output.table.rows();
        writer.append(summary);
        ASSERT_TRUE(writer.ok());
      }
      const std::vector<store::ResultRecord> read =
          store::read_result_log(path);
      ASSERT_EQ(read.size(), output.details.size() + 1);
      for (std::size_t i = 0; i < output.details.size(); ++i) {
        EXPECT_EQ(store::encode_result_record(read[i]),
                  store::encode_result_record(output.details[i]));
      }
      EXPECT_EQ(read.back().experiment_id, e->id);
      std::ifstream in(path, std::ios::binary);
      logs.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
      std::filesystem::remove(path);
    }
    ASSERT_EQ(logs.size(), 2u);
    EXPECT_FALSE(logs[0].empty());
    EXPECT_EQ(logs[0], logs[1]);
  }
}

TEST(ExpCensusStreaming, CensusPathNeverRunsPerPairBfs) {
  const Experiment* e = builtin_registry().find("c1_random_census");
  ASSERT_NE(e, nullptr);
  cache::ArtifactCache cache;
  support::ThreadPool pool(2);
  ExpContext ctx;
  ctx.scale = Scale::kSmoke;
  ctx.sweep.pool = &pool;
  ctx.sweep.cache = &cache;
  const std::uint64_t pair_before = views::shrink_pair_bfs_count();
  const std::uint64_t batch_before = views::shrink_all_pairs_compute_count();
  const ExpOutput output = run_experiment(*e, ctx);
  EXPECT_GE(output.table.row_count(), 1u);
  EXPECT_EQ(views::shrink_pair_bfs_count(), pair_before);
  EXPECT_GT(views::shrink_all_pairs_compute_count(), batch_before);
}

// Also pins the one Shrink source: no experiment may fall back to the
// per-pair product BFS; every Shrink comes from the all-pairs table.
TEST(ExpSmoke, EveryExperimentProducesRowsAtSmokeScale) {
  support::ThreadPool pool(2);
  for (const Experiment& e : builtin_registry().all()) {
    SCOPED_TRACE(e.id);
    ExpContext ctx;
    ctx.scale = Scale::kSmoke;
    ctx.sweep.pool = &pool;
    const std::uint64_t pair_before = views::shrink_pair_bfs_count();
    const ExpOutput output = run_experiment(e, ctx);
    EXPECT_GE(output.table.row_count(), 1u);
    EXPECT_EQ(output.table.column_count(), e.headers.size());
    EXPECT_EQ(views::shrink_pair_bfs_count(), pair_before);
  }
}

// A disk-full short write must be reported as a failure, not a
// successfully emitted path: write_file's success is the stream state
// AFTER the flush. /dev/full opens fine and fails on write — exactly
// the ENOSPC shape — so use it where the platform provides it.
TEST(Emit, WriteFileReportsShortWritesAndUnwritablePaths) {
  const std::string ok_path = ::testing::TempDir() + "write_file_ok.txt";
  EXPECT_TRUE(write_file(ok_path, "contents\n"));
  // Unwritable: open fails (directory does not exist).
  EXPECT_FALSE(write_file("/no/such/dir/out.csv", "x"));
  // Exhausted device: open succeeds, the write itself is short.
  std::error_code ec;
  if (std::filesystem::exists("/dev/full", ec) && !ec) {
    EXPECT_FALSE(write_file("/dev/full", "does not fit"));
  }
  std::remove(ok_path.c_str());
}

TEST(Emit, CheckCountsFilesOnlyWhenFlushedClean) {
  const Experiment* e = builtin_registry().find("f1_qhat_construction");
  ASSERT_NE(e, nullptr);
  ExpContext ctx;
  ctx.scale = Scale::kSmoke;
  const ExpOutput output = run_experiment(*e, ctx);
  EmitOptions options;
  options.markdown = false;
  options.csv_dir = "/no/such/dir";  // both writes fail at open
  options.json_dir = "/no/such/dir";
  EXPECT_TRUE(emit(*e, output, options).empty());
}

TEST(Emit, WritesCsvAndJsonFiles) {
  const Experiment* e = builtin_registry().find("f1_qhat_construction");
  ASSERT_NE(e, nullptr);
  ExpContext ctx;
  ctx.scale = Scale::kSmoke;
  const ExpOutput output = run_experiment(*e, ctx);
  EmitOptions options;
  options.markdown = false;
  options.csv_dir = ::testing::TempDir();
  options.json_dir = ::testing::TempDir();
  const std::vector<std::string> written = emit(*e, output, options);
  ASSERT_EQ(written.size(), 2u);
  EXPECT_NE(written[0].find("f1_qhat_construction.csv"), std::string::npos);
  EXPECT_NE(written[1].find("f1_qhat_construction.json"),
            std::string::npos);
}

}  // namespace
}  // namespace rdv::exp
