// Cluster wiring for the wall-clock execution mode (PR 8 tentpole): with
// exec_threads > 0 every node answers sub-queries on its WorkerPool, and
// the cluster must return exactly what the sim-only configuration does —
// same cells, same determinism across runs — while the exec counters
// surface in both exporters.

#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "common/civil_time.hpp"
#include "geo/geohash.hpp"
#include "obs/metrics.hpp"

namespace stash::cluster {
namespace {

AggregationQuery county_query() {
  return {{38.0, 38.6, -99.0, -97.8},
          TemporalBin(TemporalRes::Day, 2015, 2, 2).range(),
          {6, TemporalRes::Day}};
}

AggregationQuery state_query() {
  return {{36.0, 40.0, -102.0, -94.0},
          TemporalBin(TemporalRes::Day, 2015, 2, 2).range(),
          {6, TemporalRes::Day}};
}

ClusterConfig exec_config(std::size_t threads) {
  ClusterConfig config;
  config.num_nodes = 8;
  config.exec_threads = threads;
  config.exec_queue_capacity = 32;
  return config;
}

std::shared_ptr<const NamGenerator> shared_generator() {
  static auto gen = std::make_shared<const NamGenerator>();
  return gen;
}

TEST(ExecClusterTest, WallClockClusterMatchesSimOnlyCluster) {
  StashCluster sim_cluster(exec_config(0), shared_generator());
  StashCluster exec_cluster(exec_config(2), shared_generator());

  for (const auto& query : {county_query(), state_query()}) {
    const QueryStats want = sim_cluster.run_query(query);
    const QueryStats got = exec_cluster.run_query(query);
    EXPECT_EQ(got.result_cells, want.result_cells);
    EXPECT_EQ(got.breakdown.chunks_total, want.breakdown.chunks_total);
    EXPECT_EQ(got.breakdown.chunks_scanned, want.breakdown.chunks_scanned);
    EXPECT_EQ(got.breakdown.scan.records_scanned,
              want.breakdown.scan.records_scanned);
  }
}

TEST(ExecClusterTest, WallClockClusterIsDeterministicAcrossRuns) {
  const auto run = [] {
    StashCluster cluster(exec_config(3), shared_generator());
    const QueryStats cold = cluster.run_query(state_query());
    const QueryStats warm = cluster.run_query(state_query());
    return std::make_pair(cold.result_cells, warm.result_cells);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.first, a.second);  // warm repeat returns the same answer
}

TEST(ExecClusterTest, WarmQueriesStillSkipDiskWithWorkers) {
  StashCluster cluster(exec_config(2), shared_generator());
  const QueryStats cold = cluster.run_query(county_query());
  const QueryStats warm = cluster.run_query(county_query());
  EXPECT_EQ(warm.breakdown.scan.records_scanned, 0u);
  EXPECT_EQ(warm.breakdown.chunks_scanned, 0u);
  EXPECT_EQ(warm.result_cells, cold.result_cells);
}

TEST(ExecClusterTest, ExecCountersSurfaceInBothExporters) {
  StashCluster cluster(exec_config(2), shared_generator());
  cluster.run_query(county_query());

  const obs::MetricsSnapshot snap = cluster.metrics_registry().snapshot();
  const auto scalar = [&](const std::string& name) -> double {
    for (const auto& s : snap.scalars)
      if (s.name == name) return s.value;
    ADD_FAILURE() << "missing metric " << name;
    return -1.0;
  };
  EXPECT_GT(scalar("stash_exec_tasks_total"), 0.0);
  EXPECT_GE(scalar("stash_exec_steals_total"), 0.0);
  EXPECT_GE(scalar("stash_exec_parks_total"), 0.0);
  EXPECT_GE(scalar("stash_exec_wakeups_total"), 0.0);
  // PR 9 robustness counters: present (and zero on a healthy run).
  EXPECT_EQ(scalar("stash_exec_deadline_exceeded_total"), 0.0);
  EXPECT_EQ(scalar("stash_exec_cancelled_chunks_total"), 0.0);
  EXPECT_EQ(scalar("stash_exec_task_exceptions_total"), 0.0);
  EXPECT_EQ(scalar("stash_exec_watchdog_stalls_total"), 0.0);
  EXPECT_GE(scalar("stash_exec_submit_shed_total"), 0.0);
  EXPECT_EQ(scalar("stash_exec_workers"), 8.0 * 2.0);  // nodes x threads
  EXPECT_EQ(scalar("stash_exec_queue_depth"), 0.0);
  // Per-worker-slot breakdowns registered when exec is on.
  EXPECT_GE(scalar("stash_exec_worker0_tasks_total"), 0.0);
  EXPECT_GE(scalar("stash_exec_worker1_queue_depth"), 0.0);

  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE stash_exec_tasks_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE stash_exec_deadline_exceeded_total counter"),
            std::string::npos);
  const std::string json = obs::to_json(snap, cluster.loop().now());
  EXPECT_NE(json.find("\"stash_exec_tasks_total\":"), std::string::npos);
  EXPECT_NE(json.find("\"stash_exec_deadline_exceeded_total\":"),
            std::string::npos);
}

TEST(ExecClusterTest, SimOnlyClusterStillExportsZeroedExecCounters) {
  // The schema's required counters must exist even with exec disabled.
  StashCluster cluster(exec_config(0), shared_generator());
  cluster.run_query(county_query());
  const obs::MetricsSnapshot snap = cluster.metrics_registry().snapshot();
  bool tasks_found = false, worker_slot_found = false;
  for (const auto& s : snap.scalars) {
    if (s.name == "stash_exec_tasks_total") {
      tasks_found = true;
      EXPECT_EQ(s.value, 0.0);
    }
    // Per-slot metrics look like stash_exec_worker<digit>_... — distinct
    // from the always-registered stash_exec_workers gauge.
    constexpr const char* kSlotPrefix = "stash_exec_worker";
    if (s.name.rfind(kSlotPrefix, 0) == 0 &&
        s.name.size() > std::string(kSlotPrefix).size() &&
        std::isdigit(static_cast<unsigned char>(
            s.name[std::string(kSlotPrefix).size()])) != 0)
      worker_slot_found = true;
  }
  EXPECT_TRUE(tasks_found);
  EXPECT_FALSE(worker_slot_found);  // per-slot metrics only when enabled
  // The PR 9 robustness counters are schema-required too: they must exist,
  // zeroed, even with exec disabled.
  for (const char* name :
       {"stash_exec_deadline_exceeded_total", "stash_exec_cancelled_chunks_total",
        "stash_exec_task_exceptions_total", "stash_exec_watchdog_stalls_total",
        "stash_exec_submit_shed_total"}) {
    bool found = false;
    for (const auto& s : snap.scalars) {
      if (s.name == name) {
        found = true;
        EXPECT_EQ(s.value, 0.0) << name;
      }
    }
    EXPECT_TRUE(found) << "missing schema-required counter " << name;
  }
}

TEST(ExecClusterTest, ExecDeadlineDegradesInsteadOfHanging) {
  // Every chunk stalls well past a 1 ms exec deadline, so every partition
  // evaluation comes back partial.  The cluster must route that through
  // the PR 4 pushback taxonomy — degraded cached-ancestor answers where
  // resident, retries and honest holes otherwise — and never hang.
  ClusterConfig config = exec_config(2);
  config.exec_deadline_ms = 1;
  config.exec_faults.seed = 0x9E0;
  config.exec_faults.worker_stall_rate = 1.0;
  StashCluster cluster(config, shared_generator());

  const QueryStats stats = cluster.run_query(state_query());
  EXPECT_GT(stats.shed_subqueries, 0u);
  EXPECT_TRUE(stats.degraded || stats.partial || stats.retries > 0);

  const obs::MetricsSnapshot snap = cluster.metrics_registry().snapshot();
  double deadline_exceeded = -1.0;
  for (const auto& s : snap.scalars)
    if (s.name == "stash_exec_deadline_exceeded_total")
      deadline_exceeded = s.value;
  EXPECT_GT(deadline_exceeded, 0.0);
}

TEST(ExecClusterTest, ExecChaosExceptionsAreQuarantinedAndCounted) {
  // Exception rate 1.0: every chunk throws InjectedFault.  The pool must
  // survive (quarantine, never std::terminate), the partitions all flag
  // partial, and the counter surfaces the injected failures.
  ClusterConfig config = exec_config(2);
  config.exec_faults.seed = 0xFA11;
  config.exec_faults.task_exception_rate = 1.0;
  StashCluster cluster(config, shared_generator());

  const QueryStats stats = cluster.run_query(county_query());
  EXPECT_TRUE(stats.degraded || stats.partial);

  const obs::MetricsSnapshot snap = cluster.metrics_registry().snapshot();
  double exceptions = -1.0;
  for (const auto& s : snap.scalars)
    if (s.name == "stash_exec_task_exceptions_total") exceptions = s.value;
  EXPECT_GT(exceptions, 0.0);
}

TEST(ExecClusterTest, NodeCrashAndRestartKeepWorkersCoherent) {
  // wipe_node clears the graph the workers read through; a post-restart
  // query must still complete with the same answer as a fresh cluster.
  ClusterConfig config = exec_config(2);
  sim::CrashEvent crash;
  crash.node = 3;
  crash.at = 5 * sim::kMillisecond;
  crash.restart_at = 10 * sim::kMillisecond;
  config.fault_plan.crashes.push_back(crash);
  config.subquery_timeout = 20 * sim::kMillisecond;
  StashCluster cluster(config, shared_generator());

  StashCluster reference(exec_config(2), shared_generator());
  const QueryStats want = reference.run_query(state_query());

  (void)cluster.run_query(state_query());  // rides through the crash window
  cluster.loop().run_until(20 * sim::kMillisecond);
  const QueryStats after = cluster.run_query(state_query());
  EXPECT_EQ(after.result_cells, want.result_cells);
}

TEST(ExecClusterTest, StragglersPastDeadlineNeverRaceGraphOrStoreWrites) {
  // A 1 ms exec deadline over delayed chunk tasks: batches expire with
  // chunks still running, and those stragglers keep reading the node's
  // graph and the shared block table after the submitter has returned.
  // Meanwhile the sim crashes and wipes a node, re-warms it by recovery,
  // rots, scrubs and repairs a block, and invalidates it on ingest.  Every
  // one of those writes must take the engines' writer locks — TSan (the
  // exec-chaos lane) flags any that does not.
  ClusterConfig config = exec_config(2);
  config.exec_deadline_ms = 1;
  config.exec_faults.seed = 0x57A6;
  config.exec_faults.task_delay_rate = 0.5;
  config.exec_faults.task_delay_spins = 200'000;
  config.recovery = true;
  sim::CrashEvent crash;
  crash.node = 3;
  crash.at = 5 * sim::kMillisecond;
  crash.restart_at = 10 * sim::kMillisecond;
  config.fault_plan.crashes.push_back(crash);
  config.subquery_timeout = 20 * sim::kMillisecond;
  StashCluster cluster(config, shared_generator());

  StashCluster reference(exec_config(2), shared_generator());
  const QueryStats want = reference.run_query(state_query());

  const std::string partition = geohash::encode({38.3, -98.4}, 2);
  const std::int64_t day =
      TemporalBin(TemporalRes::Day, 2015, 2, 2).range().begin / 86400;
  for (int round = 0; round < 4; ++round) {
    (void)cluster.run_query(state_query());
    cluster.rot_block(partition, day);
    cluster.scrub_now();
    (void)cluster.ingest_update(partition, day);
    cluster.loop().run_until(cluster.loop().now() + 5 * sim::kMillisecond);
  }
  const QueryStats last = cluster.run_query(state_query());
  EXPECT_LE(last.result_cells, want.result_cells);
  const AuditReport audit = cluster.audit_all();
  EXPECT_TRUE(audit.ok()) << audit.to_string();

  const obs::MetricsSnapshot snap = cluster.metrics_registry().snapshot();
  double cancelled = -1.0;
  for (const auto& sc : snap.scalars)
    if (sc.name == "stash_exec_cancelled_chunks_total") cancelled = sc.value;
  EXPECT_GT(cancelled, 0.0);  // the deadline did leave stragglers behind
}

}  // namespace
}  // namespace stash::cluster
