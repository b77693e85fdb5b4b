// Robustness contract of the wall-clock datapath (PR 9 tentpole):
// deadlines produce honest partials (whole partitions only, named
// remainders), injected faults are quarantined and reported, the fault
// plan is deterministic run-to-run, and a mid-batch teardown neither
// hangs nor leaks.  DESIGN.md §14 states the contract; this file is its
// engine-level proof.  The property sweep here is the acceptance bar:
// over seeds x thread counts x fault plans, every answer either
// byte-matches the sequential oracle or is explicitly flagged with the
// expiry/fault reason.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/fault_hooks.hpp"
#include "exec/host_clock.hpp"
#include "exec/parallel_engine.hpp"
#include "exec/wall_clock.hpp"
#include "geo/geohash.hpp"
#include "workload/workload.hpp"

namespace stash {
namespace {

using exec::BatchReport;
using exec::ExecConfig;
using exec::ExecOptions;
using exec::FaultHooks;
using exec::InjectedFault;
using exec::ParallelQueryEngine;
using workload::QueryGroup;
using workload::WorkloadConfig;
using workload::WorkloadGenerator;

StashConfig graph_config() {
  StashConfig config;
  config.max_cells = 10'000'000;  // no eviction unless a test forces it
  return config;
}

ExecConfig exec_config(std::size_t threads, FaultHooks faults = {}) {
  ExecConfig config;
  config.threads = threads;
  config.queue_capacity = 256;  // large enough that nothing sheds inline
  config.faults = faults;
  return config;
}

std::vector<AggregationQuery> seeded_mix(std::uint64_t seed) {
  WorkloadConfig wc;
  wc.seed = seed;
  WorkloadGenerator gen(wc);
  auto queries = gen.throughput_workload(QueryGroup::County, 2, 2, 0.25);
  const auto dicing =
      gen.iterative_dicing(QueryGroup::State, 2, /*descending=*/true);
  queries.insert(queries.end(), dicing.begin(), dicing.end());
  return queries;
}

class ExecRobustnessTest : public ::testing::Test {
 protected:
  AggregationQuery state_query() const {
    // Wide enough to span several partitions — the honest-partial
    // contract only bites with > 1 partition in the batch.
    return {{36.0, 40.0, -102.0, -94.0},
            TemporalBin(TemporalRes::Day, 2015, 2, 2).range(),
            {5, TemporalRes::Day}};
  }

  std::shared_ptr<const NamGenerator> gen_ = std::make_shared<NamGenerator>();
  GalileoStore store_{gen_};
};

// ---------------------------------------------------------------------------
// Deadlines: honest partials.
// ---------------------------------------------------------------------------

TEST_F(ExecRobustnessTest, ExpiredDeadlineReturnsOnlyWholePartitions) {
  const auto query = state_query();

  StashGraph seq_graph(graph_config());
  QueryEngine seq(seq_graph, store_);

  StashGraph par_graph(graph_config());
  ParallelQueryEngine par(par_graph, store_, exec_config(2));

  // A deadline already in the past: the submitter cancels before parking,
  // so whatever completed is a race — the contract under test is that the
  // answer covers exactly the partitions NOT named incomplete, and each
  // covered partition matches the oracle byte-for-byte.
  ExecOptions options;
  options.deadline_ns = 1;  // epoch + 1ns: expired long ago
  BatchReport report;
  const Evaluation got = par.evaluate(query, EvalMode::Cached, options, report);

  EXPECT_TRUE(report.deadline_exceeded);
  EXPECT_EQ(report.chunks_total, report.chunks_completed +
                                     report.chunks_cancelled +
                                     report.chunks_failed);
  if (!report.complete()) {
    EXPECT_FALSE(report.incomplete_partitions.empty());
  }

  // Reassemble the expected partial from the oracle: only the partitions
  // the report vouches for.
  const std::set<std::string> incomplete(report.incomplete_partitions.begin(),
                                         report.incomplete_partitions.end());
  CellSummaryMap expected;
  for (const auto& partition : geohash::covering(query.area, store_.partition_prefix_length())) {
    if (incomplete.count(partition) != 0) continue;
    const Evaluation want = seq.evaluate_partition(partition, query);
    for (const auto& [key, summary] : want.cells) {
      auto [it, inserted] = expected.try_emplace(key, summary);
      if (!inserted) it->second.merge(summary);
    }
  }
  EXPECT_EQ(exec::answer_digest(got.cells, 0),
            exec::answer_digest(expected, 0));

  const exec::ExecStats stats = par.exec_stats();
  EXPECT_GE(stats.deadline_exceeded, 1u);
}

TEST_F(ExecRobustnessTest, DeadlineWithStalledWorkersReturnsPromptly) {
  // Stall every chunk hard: a full run would burn chunks x stall-spins of
  // CPU.  The deadline must cut that short — the submitter returns within
  // the deadline plus scheduling slack, and the un-run chunks show up as
  // cancelled, not as latency.
  FaultHooks faults;
  faults.seed = 7;
  faults.worker_stall_rate = 1.0;
  faults.worker_stall_spins = 20'000'000;

  StashGraph graph(graph_config());
  ParallelQueryEngine par(graph, store_, exec_config(2, faults));

  constexpr std::uint64_t kDeadlineMs = 20;
  ExecOptions options;
  const std::uint64_t start = exec::host_now_ns();
  options.deadline_ns = start + kDeadlineMs * 1'000'000;
  BatchReport report;
  (void)par.evaluate(state_query(), EvalMode::Cached, options, report);
  const std::uint64_t elapsed_ms = (exec::host_now_ns() - start) / 1'000'000;

  EXPECT_TRUE(report.deadline_exceeded);
  EXPECT_GT(report.chunks_cancelled, 0u) << "deadline cancelled nothing";
  // Deadline + one watchdog tick (5ms default) + generous scheduler
  // slack; far below what running every stalled chunk would cost.
  EXPECT_LT(elapsed_ms, kDeadlineMs + 1000u);

  // Stragglers may still be mid-stall; the cooperative-cancel counter
  // settles once they probe the token.
  exec::ExecStats stats = par.exec_stats();
  const std::uint64_t poll_until = exec::host_now_ns() + 5'000'000'000ull;
  while (stats.cancelled_chunks == 0 && exec::host_now_ns() < poll_until) {
    std::this_thread::yield();
    stats = par.exec_stats();
  }
  EXPECT_GE(stats.cancelled_chunks, 1u);
  EXPECT_GE(stats.deadline_exceeded, 1u);
}

// ---------------------------------------------------------------------------
// Fault quarantine.
// ---------------------------------------------------------------------------

TEST_F(ExecRobustnessTest, InjectedExceptionsAreQuarantinedAndReported) {
  FaultHooks faults;
  faults.seed = 42;
  faults.task_exception_rate = 1.0;  // every chunk throws

  StashGraph graph(graph_config());
  ParallelQueryEngine par(graph, store_, exec_config(2, faults));

  BatchReport report;
  const Evaluation got =
      par.evaluate(state_query(), EvalMode::Cached, {}, report);

  EXPECT_TRUE(got.cells.empty());  // no partition survived
  EXPECT_EQ(report.chunks_failed, report.chunks_total);
  EXPECT_FALSE(report.incomplete_partitions.empty());
  ASSERT_TRUE(report.first_error != nullptr);
  EXPECT_THROW(std::rethrow_exception(report.first_error), InjectedFault);
  EXPECT_EQ(par.exec_stats().task_exceptions, report.chunks_total);

  // The pool survived the quarantine: a clean follow-up run still works.
  ParallelQueryEngine clean(graph, store_, exec_config(2));
  BatchReport clean_report;
  (void)clean.evaluate(state_query(), EvalMode::Cached, {}, clean_report);
  EXPECT_TRUE(clean_report.complete());
}

TEST_F(ExecRobustnessTest, LegacyOverloadRethrowsInjectedFault) {
  FaultHooks faults;
  faults.seed = 42;
  faults.task_exception_rate = 1.0;

  StashGraph graph(graph_config());
  ParallelQueryEngine par(graph, store_, exec_config(2, faults));
  EXPECT_THROW((void)par.evaluate(state_query()), InjectedFault);
}

TEST_F(ExecRobustnessTest, FaultPlanIsDeterministicRunToRun) {
  // Decisions are a pure function of (seed, task_seq); task_seq is the
  // batch's base plus the chunk's index — so two fresh engines with the
  // same plan fail the exact same chunks, at any thread count.
  FaultHooks faults;
  faults.seed = 0xC0FFEE;
  faults.task_exception_rate = 0.4;

  std::vector<std::string> first_incomplete;
  std::size_t first_failed = 0;
  for (int run = 0; run < 2; ++run) {
    StashGraph graph(graph_config());
    ParallelQueryEngine par(graph, store_, exec_config(run == 0 ? 1 : 4,
                                                       faults));
    BatchReport report;
    (void)par.evaluate(state_query(), EvalMode::Cached, {}, report);
    if (run == 0) {
      first_incomplete = report.incomplete_partitions;
      first_failed = report.chunks_failed;
      EXPECT_GT(first_failed, 0u) << "rate 0.4 never fired; test is inert";
    } else {
      EXPECT_EQ(report.incomplete_partitions, first_incomplete);
      EXPECT_EQ(report.chunks_failed, first_failed);
    }
  }
}

// ---------------------------------------------------------------------------
// The acceptance sweep: seeds x threads x fault plans.  Every answer
// byte-matches the oracle or is explicitly flagged with its reason.
// ---------------------------------------------------------------------------

TEST_F(ExecRobustnessTest, PropertySweepAnswersMatchOracleOrAreFlagged) {
  struct Plan {
    const char* name;
    FaultHooks faults;
    bool lossless;  // plan cannot change any answer, only its timing
  };
  std::vector<Plan> plans;
  plans.push_back({"none", {}, true});
  {
    FaultHooks f;
    f.seed = 1;
    f.task_delay_rate = 0.5;
    f.task_delay_spins = 5'000;
    plans.push_back({"delay", f, true});
  }
  {
    FaultHooks f;
    f.seed = 2;
    f.task_exception_rate = 0.3;
    plans.push_back({"exceptions", f, false});
  }
  {
    FaultHooks f;
    f.seed = 3;
    f.worker_stall_rate = 0.25;
    f.worker_stall_spins = 200'000;  // long enough to reorder, not to wedge
    plans.push_back({"stalls", f, true});
  }

  for (const std::uint64_t seed : {0x5EEDull, 0xFACEull}) {
    const auto queries = seeded_mix(seed);

    // Oracle: per-query digests from the sequential engine (no absorbs —
    // faulted runs must not mutate shared state, so neither does the
    // oracle).
    StashGraph seq_graph(graph_config());
    QueryEngine seq(seq_graph, store_);
    std::vector<std::uint64_t> want;
    want.reserve(queries.size());
    for (const auto& q : queries)
      want.push_back(exec::answer_digest(seq.evaluate(q).cells, 0));

    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const Plan& plan : plans) {
        FaultHooks faults = plan.faults;
        faults.seed ^= seed;  // vary the fault pattern with the workload
        StashGraph par_graph(graph_config());
        ParallelQueryEngine par(par_graph, store_,
                                exec_config(threads, faults));
        for (std::size_t i = 0; i < queries.size(); ++i) {
          BatchReport report;
          const Evaluation got =
              par.evaluate(queries[i], EvalMode::Cached, {}, report);
          const std::string ctx = std::string("plan=") + plan.name +
                                  " seed=" + std::to_string(seed) +
                                  " threads=" + std::to_string(threads) +
                                  " query=" + std::to_string(i);
          if (report.complete()) {
            EXPECT_EQ(exec::answer_digest(got.cells, 0), want[i]) << ctx;
          } else {
            // Flagged: the report must carry the reason, not just be
            // silently short.
            EXPECT_GT(report.chunks_failed, 0u) << ctx;
            EXPECT_FALSE(report.incomplete_partitions.empty()) << ctx;
            EXPECT_TRUE(report.first_error != nullptr) << ctx;
          }
          if (plan.lossless) {
            EXPECT_TRUE(report.complete())
                << ctx << ": a delay/stall plan must not lose chunks";
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The streaming fold: a partition is folded chunk by chunk as its chunks
// settle, so one that fails late must be taken back out exactly.
// ---------------------------------------------------------------------------

void expect_same_breakdown(const EvalBreakdown& got,
                           const EvalBreakdown& want) {
  EXPECT_EQ(got.chunks_total, want.chunks_total);
  EXPECT_EQ(got.chunks_from_cache, want.chunks_from_cache);
  EXPECT_EQ(got.chunks_synthesized, want.chunks_synthesized);
  EXPECT_EQ(got.chunks_scanned, want.chunks_scanned);
  EXPECT_EQ(got.chunks_missing, want.chunks_missing);
  EXPECT_EQ(got.cache_probes, want.cache_probes);
  EXPECT_EQ(got.cells_from_cache, want.cells_from_cache);
  EXPECT_EQ(got.cells_synthesized, want.cells_synthesized);
  EXPECT_EQ(got.cells_scanned, want.cells_scanned);
  EXPECT_EQ(got.synthesis_merges, want.synthesis_merges);
  EXPECT_EQ(got.scan.blocks_touched, want.scan.blocks_touched);
  EXPECT_EQ(got.scan.records_scanned, want.scan.records_scanned);
  EXPECT_EQ(got.scan.bytes_read, want.scan.bytes_read);
  EXPECT_EQ(got.scan.blocks_corrupt, want.scan.blocks_corrupt);
}

TEST_F(ExecRobustnessTest, ThrowInAPartitionsLastChunkRollsBackItsFold) {
  // Two days, the first one rotted in the target partition: its chunks
  // carry cells, fetched contributions AND corrupt blocks, so the rollback
  // has every field to undo.
  const AggregationQuery query{
      {36.0, 40.0, -102.0, -94.0},
      {TemporalBin(TemporalRes::Day, 2015, 2, 2).range().begin,
       TemporalBin(TemporalRes::Day, 2015, 2, 3).range().end},
      {5, TemporalRes::Day}};
  const std::vector<std::string> partitions =
      geohash::covering(query.area, store_.partition_prefix_length());
  ASSERT_GT(partitions.size(), 2u);

  // Chunk index ranges in the engine's canonical batch order.
  StashGraph plan_graph(graph_config());
  const QueryEngine planner(plan_graph, store_);
  struct Range {
    std::string partition;
    std::size_t first = 0;
    std::size_t count = 0;
  };
  std::vector<Range> ranges;
  std::size_t total_chunks = 0;
  for (const auto& partition : partitions) {
    const auto plan = planner.plan_partition(partition, query);
    if (plan.empty) continue;
    ranges.push_back({partition, total_chunks, plan.chunks.size()});
    total_chunks += plan.chunks.size();
  }

  // A fault plan whose only throw is the last chunk of a multi-chunk
  // partition.  Decisions are a pure function of (seed, chunk index) in
  // a fresh engine, so this search is deterministic.
  FaultHooks faults;
  faults.task_exception_rate = 1.0 / static_cast<double>(total_chunks);
  std::optional<Range> target;
  for (std::uint64_t seed = 1; seed < 200'000 && !target; ++seed) {
    faults.seed = seed;
    std::vector<std::size_t> throws;
    for (std::size_t i = 0; i < total_chunks && throws.size() < 2; ++i)
      if (exec::fault_decision(faults, i).throw_exception) throws.push_back(i);
    if (throws.size() != 1) continue;
    for (const Range& r : ranges)
      if (r.count >= 2 && throws[0] == r.first + r.count - 1) target = r;
  }
  ASSERT_TRUE(target.has_value()) << "no seed isolates a last chunk";

  const BlockKey rotted{
      target->partition,
      TemporalBin(TemporalRes::Day, 2015, 2, 2).range().begin / 86400};
  GalileoStore seq_store{gen_};
  GalileoStore par_store{gen_};
  seq_store.rot_block(rotted);
  par_store.rot_block(rotted);

  // Oracle: the sequential answer of every partition but the target.
  StashGraph seq_graph(graph_config());
  QueryEngine seq(seq_graph, seq_store);
  const Evaluation whole_target =
      seq.evaluate_partition(target->partition, query);
  ASSERT_FALSE(whole_target.cells.empty());
  ASSERT_FALSE(whole_target.fetched.empty());
  ASSERT_FALSE(whole_target.corrupt_blocks.empty());
  Evaluation want;
  for (const auto& partition : partitions) {
    if (partition == target->partition) continue;
    Evaluation part = seq.evaluate_partition(partition, query);
    for (auto& [key, summary] : part.cells) want.cells.emplace(key, summary);
    want.breakdown += part.breakdown;
    want.touched_chunks.insert(want.touched_chunks.end(),
                               part.touched_chunks.begin(),
                               part.touched_chunks.end());
    for (auto& c : part.fetched) want.fetched.push_back(std::move(c));
    want.corrupt_blocks.insert(want.corrupt_blocks.end(),
                               part.corrupt_blocks.begin(),
                               part.corrupt_blocks.end());
  }

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StashGraph par_graph(graph_config());
    ParallelQueryEngine par(par_graph, par_store,
                            exec_config(threads, faults));
    BatchReport report;
    const Evaluation got = par.evaluate(query, EvalMode::Cached, {}, report);

    EXPECT_EQ(report.chunks_failed, 1u);
    EXPECT_EQ(report.chunks_completed, total_chunks - 1);
    EXPECT_EQ(report.incomplete_partitions,
              std::vector<std::string>{target->partition});
    EXPECT_EQ(exec::answer_digest(got.cells, 0),
              exec::answer_digest(want.cells, 0));
    EXPECT_EQ(got.cells.size(), want.cells.size());
    expect_same_breakdown(got.breakdown, want.breakdown);
    EXPECT_EQ(got.touched_chunks, want.touched_chunks);
    ASSERT_EQ(got.fetched.size(), want.fetched.size());
    for (std::size_t i = 0; i < got.fetched.size(); ++i) {
      EXPECT_EQ(got.fetched[i].chunk, want.fetched[i].chunk);
      EXPECT_EQ(got.fetched[i].days, want.fetched[i].days);
      EXPECT_EQ(got.fetched[i].cells.size(), want.fetched[i].cells.size());
    }
    EXPECT_EQ(got.corrupt_blocks, want.corrupt_blocks);
  }
}

TEST_F(ExecRobustnessTest, DeadlineMidBatchKeepsChunkCountsExact) {
  // Every chunk burns a little CPU first, so short deadlines fire with
  // chunks folded, running and unclaimed all at once.  Whatever the
  // timing, each chunk is counted exactly once and the answer is the
  // oracle's merge of exactly the partitions the report vouches for.
  FaultHooks faults;
  faults.seed = 11;
  faults.task_delay_rate = 1.0;
  faults.task_delay_spins = 50'000;
  const auto query = state_query();

  StashGraph seq_graph(graph_config());
  QueryEngine seq(seq_graph, store_);
  const auto partitions =
      geohash::covering(query.area, store_.partition_prefix_length());

  bool saw_mid_batch = false;
  for (const std::uint64_t budget_us : {200u, 500u, 1'000u, 2'000u, 5'000u}) {
    SCOPED_TRACE("budget_us=" + std::to_string(budget_us));
    StashGraph par_graph(graph_config());
    ParallelQueryEngine par(par_graph, store_, exec_config(2, faults));
    ExecOptions options;
    options.deadline_ns = exec::host_now_ns() + budget_us * 1'000;
    BatchReport report;
    const Evaluation got =
        par.evaluate(query, EvalMode::Cached, options, report);

    EXPECT_EQ(report.chunks_completed + report.chunks_cancelled +
                  report.chunks_failed,
              report.chunks_total);
    EXPECT_EQ(report.chunks_failed, 0u);
    if (!report.complete()) {
      EXPECT_TRUE(report.deadline_exceeded);
      EXPECT_FALSE(report.incomplete_partitions.empty());
    }
    if (report.chunks_completed > 0 && report.chunks_cancelled > 0)
      saw_mid_batch = true;

    const std::set<std::string> incomplete(
        report.incomplete_partitions.begin(),
        report.incomplete_partitions.end());
    CellSummaryMap expected;
    for (const auto& partition : partitions) {
      if (incomplete.count(partition) != 0) continue;
      for (auto& [key, summary] :
           seq.evaluate_partition(partition, query).cells)
        expected.emplace(key, summary);
    }
    EXPECT_EQ(exec::answer_digest(got.cells, 0),
              exec::answer_digest(expected, 0));
  }
  // Timing-dependent, so only reported: on a loaded host every budget
  // may expire before the first chunk or after the last.
  if (!saw_mid_batch) std::cout << "note: no budget expired mid-batch\n";
}

// ---------------------------------------------------------------------------
// Teardown during an in-flight batch.
// ---------------------------------------------------------------------------

TEST_F(ExecRobustnessTest, DestroyEngineWithStragglersInFlight) {
  // An expired deadline hands the batch back while chunks are still
  // queued or running; destroying the engine right then must join the
  // workers cleanly (pool_ is declared last) and free every outcome
  // (BatchState is shared_ptr-owned).  Leaks surface under the sanitizer
  // lane; a lifetime bug crashes right here.
  for (int round = 0; round < 5; ++round) {
    StashGraph graph(graph_config());
    FaultHooks faults;
    faults.seed = static_cast<std::uint64_t>(round);
    faults.task_delay_rate = 0.5;
    faults.task_delay_spins = 100'000;
    auto par = std::make_unique<ParallelQueryEngine>(graph, store_,
                                                     exec_config(2, faults));
    ExecOptions options;
    options.deadline_ns = 1;  // already expired
    BatchReport report;
    (void)par->evaluate(state_query(), EvalMode::Cached, options, report);
    par.reset();  // join with stragglers possibly mid-chunk
  }
}

}  // namespace
}  // namespace stash
