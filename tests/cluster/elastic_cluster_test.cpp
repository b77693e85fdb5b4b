// Elastic membership: live scale-out/scale-in with
// fault-tolerant ring rebalancing.  The properties under test:
//
//   * epoch-versioned ownership — after quiescence every partition has
//     exactly one serving owner, drawn from the installed ring;
//   * warm handoff — the old owner keeps serving until the new owner has
//     pulled the partition; the flip is atomic (queries racing it are
//     answered by whichever side holds the handoff, never neither);
//   * fault tolerance — a joiner crashing mid-transfer reverts the join, a
//     leaver crashing mid-drain is covered by successor failover, and a
//     partition during the transfer only delays the rebalance;
//   * honesty — every answer is byte-equal to a fixed-size control cluster
//     or explicitly flagged partial/degraded, across a seed sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/civil_time.hpp"
#include "dht/partitioner.hpp"
#include "workload/workload.hpp"

namespace stash::cluster {
namespace {

using sim::kMillisecond;
using sim::kSecond;

std::shared_ptr<const NamGenerator> shared_generator() {
  static auto gen = std::make_shared<const NamGenerator>();
  return gen;
}

AggregationQuery county_query() {
  return {{38.0, 38.6, -99.0, -97.8},
          {unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 3})},
          {6, TemporalRes::Day}};
}

AggregationQuery wide_query() {
  AggregationQuery q = county_query();
  q.area = q.area.scaled(16.0);
  return q;
}

std::vector<AggregationQuery> burst_around(const AggregationQuery& base,
                                           std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AggregationQuery> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AggregationQuery q = base;
    q.area = base.area.translated(0.1 * base.area.height() * rng.uniform(-1, 1),
                                  0.1 * base.area.width() * rng.uniform(-1, 1));
    out.push_back(q);
  }
  return out;
}

MembershipConfig fast_membership() {
  MembershipConfig m;
  m.probe_interval = 50 * sim::kMillisecond;
  m.probe_timeout = 5 * sim::kMillisecond;
  m.suspicion_timeout = 100 * sim::kMillisecond;
  return m;
}

/// Elastic config tuned to the test timescale: the watcher settles rings
/// within a few hundred simulated milliseconds.
ClusterConfig elastic_config(std::uint32_t num_nodes,
                             std::uint32_t max_nodes) {
  ClusterConfig config;
  config.num_nodes = num_nodes;
  config.max_nodes = max_nodes;
  config.membership = fast_membership();
  config.subquery_timeout = 50 * sim::kMillisecond;
  config.retry_backoff = 5 * sim::kMillisecond;
  config.ring_check_interval = 50 * kMillisecond;
  config.ring_stabilize_delay = 150 * kMillisecond;
  config.rebalance_transfer_deadline = 400 * kMillisecond;
  return config;
}

void expect_cells_equal(const CellSummaryMap& got, const CellSummaryMap& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (const auto& [key, summary] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << context << ": " << key.label();
    EXPECT_TRUE(summary.approx_equals(it->second))
        << context << ": " << key.label();
  }
}

/// Fixed-size control cluster: the oracle every elastic answer must match.
CellSummaryMap control_cells(const AggregationQuery& query) {
  ClusterConfig config;
  config.num_nodes = 16;
  config.mode = SystemMode::Basic;
  StashCluster cluster(config, shared_generator());
  CellSummaryMap cells;
  cluster.run_query(query, &cells);
  return cells;
}

std::vector<std::size_t> control_cell_counts(
    const std::vector<AggregationQuery>& queries) {
  ClusterConfig config;
  config.num_nodes = 16;
  config.mode = SystemMode::Basic;
  StashCluster cluster(config, shared_generator());
  std::vector<std::size_t> out;
  out.reserve(queries.size());
  for (const auto& q : queries) out.push_back(cluster.run_query(q).result_cells);
  return out;
}

/// Ring invariants after quiescence: members sorted/duplicate-free (via
/// audit_all), every partition's serving owner on the installed ring, and
/// successor chains enumerate the other members exactly once.
void expect_ring_invariants(const StashCluster& cluster,
                            const std::string& context) {
  const RingView& ring = cluster.ring();
  ASSERT_FALSE(ring.members.empty()) << context;
  for (const NodeId m : ring.members)
    EXPECT_LT(m, cluster.total_slots()) << context;

  // Exactly-one-owner: serving_owner is total over the keyspace and must
  // land on a ring member for every partition (no partition lost, and a
  // single authoritative owner means none is double-owned).
  ZeroHopDht keyspace(1, 2);
  std::size_t checked = 0;
  for (const auto& partition : keyspace.all_partitions()) {
    const NodeId owner = cluster.serving_owner(partition);
    EXPECT_TRUE(ring.contains(owner))
        << context << ": partition " << partition << " served by " << owner
        << " which is off-ring";
    ++checked;
  }
  EXPECT_EQ(checked, 1024u) << context;

  // Successor chains over the installed (possibly sparse) ring are
  // duplicate-free: k = 1..n-1 visits every other member exactly once.
  ZeroHopDht probe(1, 2);
  probe.install({.epoch = ring.epoch + 1, .members = ring.members});
  const std::uint32_t n = static_cast<std::uint32_t>(ring.members.size());
  for (const std::string partition : {"9q", "dn", "c2"}) {
    const NodeId owner = probe.node_for_partition(partition);
    std::set<NodeId> seen;
    for (std::uint32_t k = 1; k < n; ++k)
      seen.insert(probe.successor_for_partition(partition, k));
    EXPECT_EQ(seen.size(), n - 1) << context << ": " << partition;
    EXPECT_EQ(seen.count(owner), 0u) << context << ": " << partition;
  }
}

TEST(ElasticClusterTest, FixedSizeClusterHasNoElasticFootprint) {
  ClusterConfig config;
  config.num_nodes = 8;
  StashCluster cluster(config, shared_generator());
  cluster.run_query(county_query());
  EXPECT_EQ(cluster.ring().epoch, 0u);
  EXPECT_EQ(cluster.ring().members.size(), 8u);
  EXPECT_FALSE(cluster.rebalance_in_progress());
  const auto& m = cluster.metrics();
  EXPECT_EQ(m.rebalance_epoch_advances, 0u);
  EXPECT_EQ(m.rebalance_partitions_moved, 0u);
  EXPECT_EQ(m.rebalance_transfers_aborted, 0u);
  EXPECT_EQ(m.rebalance_ownership_reverts, 0u);
}

TEST(ElasticClusterTest, ScaleOutAdmitsStandbysAndMovesWarmPartitions) {
  StashCluster cluster(elastic_config(4, 6), shared_generator());
  cluster.run_query(wide_query());  // warm a broad footprint first
  const std::size_t warm_cells = cluster.total_cached_cells();
  ASSERT_GT(warm_cells, 0u);

  cluster.join_node(4);
  cluster.join_node(5);
  ASSERT_TRUE(cluster.run_until_stable(60 * kSecond));

  EXPECT_EQ(cluster.ring().members,
            (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  EXPECT_GE(cluster.ring().epoch, 1u);
  const auto& m = cluster.metrics();
  EXPECT_GE(m.rebalance_epoch_advances, 1u);
  EXPECT_GT(m.rebalance_partitions_moved, 0u);
  EXPECT_EQ(m.rebalance_ownership_reverts, 0u);

  expect_ring_invariants(cluster, "scale-out");
  EXPECT_TRUE(cluster.audit_all().ok());

  // Answers after the resize are exact.
  for (const auto& q : burst_around(county_query(), 5, 21)) {
    CellSummaryMap got;
    const auto stats = cluster.run_query(q, &got);
    EXPECT_FALSE(stats.partial);
    expect_cells_equal(got, control_cells(q), "scale-out answer");
  }
}

TEST(ElasticClusterTest, ScaleInDrainsBeforeLeaving) {
  StashCluster cluster(elastic_config(6, 6), shared_generator());
  cluster.run_query(wide_query());

  cluster.decommission_node(5);
  ASSERT_TRUE(cluster.run_until_stable(60 * kSecond));

  EXPECT_EQ(cluster.ring().members, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_GE(cluster.metrics().rebalance_epoch_advances, 1u);
  EXPECT_GT(cluster.metrics().rebalance_partitions_moved, 0u);
  expect_ring_invariants(cluster, "scale-in");
  EXPECT_TRUE(cluster.audit_all().ok());

  for (const auto& q : burst_around(county_query(), 5, 22)) {
    CellSummaryMap got;
    const auto stats = cluster.run_query(q, &got);
    EXPECT_FALSE(stats.partial);
    expect_cells_equal(got, control_cells(q), "scale-in answer");
  }
}

TEST(ElasticClusterTest, DecommissionGuardsTheLastMembers) {
  StashCluster cluster(elastic_config(2, 2), shared_generator());
  cluster.decommission_node(0);
  ASSERT_TRUE(cluster.run_until_stable(30 * kSecond));
  ASSERT_EQ(cluster.ring().members.size(), 1u);
  // Draining the sole remaining member is refused outright.
  cluster.decommission_node(cluster.ring().members[0]);
  EXPECT_FALSE(cluster.rebalance_in_progress());
  EXPECT_EQ(cluster.ring().members.size(), 1u);
  EXPECT_THROW(cluster.join_node(99), std::out_of_range);
  EXPECT_THROW(cluster.decommission_node(99), std::out_of_range);
}

TEST(ElasticClusterTest, QueriesRacingTheRebalanceAreAnsweredOrFlagged) {
  // Scale out *while* an open-loop burst is in flight: scripted joins land
  // mid-burst, so queries race epoch advances and handoff flips.
  ClusterConfig config = elastic_config(3, 5);
  config.fault_plan.joins.push_back({.node = 3, .at = 100 * kMillisecond});
  config.fault_plan.joins.push_back({.node = 4, .at = 400 * kMillisecond});
  StashCluster cluster(config, shared_generator());

  // 10ms apart: the 60-query burst spans 600ms, straddling both scripted
  // joins and the epoch advances + handoff flips they trigger.
  const auto burst = burst_around(county_query(), 60, 31);
  const auto stats = cluster.run_open_loop(burst, 10 * kMillisecond);
  ASSERT_TRUE(cluster.run_until_stable(60 * kSecond));

  const auto expected = control_cell_counts(burst);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (stats[i].partial || stats[i].degraded) continue;  // honestly flagged
    EXPECT_EQ(stats[i].result_cells, expected[i]) << "query " << i;
  }
  EXPECT_EQ(cluster.ring().members, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  expect_ring_invariants(cluster, "racing");
  EXPECT_TRUE(cluster.audit_all().ok());
}

TEST(ElasticClusterTest, JoinerCrashMidTransferRevertsOwnership) {
  // The joiner dies while its inbound transfers are in flight: the join is
  // reverted (old owners keep serving, the next epoch drops the corpse)
  // and no partition is ever routed to the dead node.
  ClusterConfig config = elastic_config(3, 4);
  config.fault_plan.joins.push_back({.node = 3, .at = 100 * kMillisecond});
  // Slow every hop into the joiner so its inbound transfers are provably
  // still in flight at the crash — without this the ms-scale transfers can
  // all flip before 450ms and node 3 dies as an *established* member
  // (which failover, not revert, would cover).
  config.fault_plan.links.push_back(
      {.to = 3, .extra_latency = 300 * kMillisecond});
  config.fault_plan.crashes.push_back(
      {.node = 3, .at = 450 * kMillisecond});  // mid-transfer
  StashCluster cluster(config, shared_generator());

  // 15ms apart: the burst spans 600ms, straddling the join, the slowed
  // transfers, and the crash-triggered revert.
  const auto burst = burst_around(county_query(), 40, 41);
  const auto stats = cluster.run_open_loop(burst, 15 * kMillisecond);
  ASSERT_TRUE(cluster.run_until_stable(60 * kSecond));

  // Quiesced ring must exclude the crashed joiner.
  EXPECT_EQ(cluster.ring().members, (std::vector<NodeId>{0, 1, 2}));
  expect_ring_invariants(cluster, "joiner-crash");
  EXPECT_TRUE(cluster.audit_all().ok());

  const auto expected = control_cell_counts(burst);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (stats[i].partial || stats[i].degraded) continue;
    EXPECT_EQ(stats[i].result_cells, expected[i]) << "query " << i;
  }
  // Post-quiescence queries are exact again.
  CellSummaryMap got;
  const auto after = cluster.run_query(county_query(), &got);
  EXPECT_FALSE(after.partial);
  expect_cells_equal(got, control_cells(county_query()), "post-revert");
}

TEST(ElasticClusterTest, AutoscaleGrowsUnderLoadAndShrinksWhenIdle) {
  ClusterConfig config = elastic_config(2, 4);
  // Slim servers so the heavy burst genuinely outruns service capacity:
  // one worker per node and a 2ms fixed cost per subquery mean 1000 qps
  // across 2 nodes piles up real queues.
  config.workers_per_node = 1;
  config.subquery_overhead = 2 * kMillisecond;
  config.autoscale.enabled = true;
  config.autoscale.eval_interval = 50 * kMillisecond;
  config.autoscale.high_queue = 3;
  config.autoscale.high_shed_delta = 4;
  config.autoscale.low_queue = 1;
  config.autoscale.hysteresis_ticks = 2;
  config.autoscale.cooldown = 500 * kMillisecond;
  config.autoscale.min_nodes = 2;
  StashCluster cluster(config, shared_generator());

  // Sustained overload on 2 nodes: queue high-water marks keep growing past
  // the high watermark for consecutive evaluation ticks, so the policy
  // admits standbys.
  const auto heavy = burst_around(county_query(), 300, 51);
  cluster.run_open_loop(heavy, 1 * kMillisecond);
  ASSERT_TRUE(cluster.run_until_stable(120 * kSecond));
  const std::size_t grown = cluster.ring().members.size();
  EXPECT_GT(grown, 2u) << "autoscaler never scaled out under overload";
  expect_ring_invariants(cluster, "autoscale-grown");
  EXPECT_TRUE(cluster.audit_all().ok());

  // A long idle trickle drives the low watermark: the policy drains nodes
  // back down, but never below min_nodes.
  // 500ms apart: 20 seconds of genuinely idle ticks between queries.
  const auto trickle = burst_around(county_query(), 40, 52);
  cluster.run_open_loop(trickle, 500 * kMillisecond);
  ASSERT_TRUE(cluster.run_until_stable(120 * kSecond));
  EXPECT_LT(cluster.ring().members.size(), grown)
      << "autoscaler never scaled in when idle";
  EXPECT_GE(cluster.ring().members.size(), 2u);
  expect_ring_invariants(cluster, "autoscale-shrunk");
  EXPECT_TRUE(cluster.audit_all().ok());

  // Answers stay exact through the full grow/shrink cycle.
  CellSummaryMap got;
  const auto stats = cluster.run_query(county_query(), &got);
  EXPECT_FALSE(stats.partial);
  expect_cells_equal(got, control_cells(county_query()), "autoscale answer");
}

// The property sweep: seeds x {scale-out, scale-in, autoscale} x {none,
// crash-mid-transfer, partition-mid-transfer, corrupted transfer frames}.
// Every combination must quiesce with a clean audit, exactly one live
// owner per partition, and answers byte-equal to the control cluster or
// honestly flagged.
enum class Scenario { kScaleOut, kScaleIn, kAutoscale };
enum class Adversity { kNone, kCrash, kPartition, kCorrupt };

/// Nodes that own, under ring `after`, a partition they did not own under
/// `before`: the receivers of that epoch change's transfer frames.
std::vector<NodeId> gaining_owners(std::vector<NodeId> before,
                                   std::vector<NodeId> after) {
  ZeroHopDht old_ring(1), new_ring(1);
  old_ring.install({.epoch = 1, .members = std::move(before)});
  new_ring.install({.epoch = 1, .members = std::move(after)});
  std::set<NodeId> out;
  for (const auto& partition : old_ring.all_partitions()) {
    const NodeId owner = new_ring.node_for_partition(partition);
    if (owner != old_ring.node_for_partition(partition)) out.insert(owner);
  }
  return {out.begin(), out.end()};
}

const char* name_of(Scenario s) {
  switch (s) {
    case Scenario::kScaleOut: return "scale-out";
    case Scenario::kScaleIn: return "scale-in";
    case Scenario::kAutoscale: return "autoscale";
  }
  return "?";
}
const char* name_of(Adversity a) {
  switch (a) {
    case Adversity::kNone: return "none";
    case Adversity::kCrash: return "crash";
    case Adversity::kPartition: return "partition";
    case Adversity::kCorrupt: return "corrupt";
  }
  return "?";
}

TEST(ElasticClusterTest, PropertySweepSeedsByScenarioByAdversity) {
  const auto county = burst_around(county_query(), 20, 61);
  const auto county_expected = control_cell_counts(county);
  // The corruption case needs complete warm chunks in many moving
  // partitions, so that transfer frames cross the corrupted links: a
  // continent-wide burst warms partitions on every node.
  AggregationQuery continent = county_query();
  continent.area = continent.area.scaled(64.0);
  const auto continent_burst = burst_around(continent, 20, 61);
  const auto continent_expected = control_cell_counts(continent_burst);

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const Scenario scenario :
         {Scenario::kScaleOut, Scenario::kScaleIn, Scenario::kAutoscale}) {
      for (const Adversity adversity :
           {Adversity::kNone, Adversity::kCrash, Adversity::kPartition,
            Adversity::kCorrupt}) {
        const std::string context = std::string(name_of(scenario)) + "/" +
                                    name_of(adversity) + "/seed" +
                                    std::to_string(seed);
        ClusterConfig config = elastic_config(3, 5);
        config.fault_plan.seed = seed;
        // `mover` is the node whose membership changes — and the one the
        // adversity targets mid-transfer.
        NodeId mover = 0;
        // The nodes that receive moved partitions in the first epoch
        // change (the rebalance frame leg's receivers).
        std::vector<NodeId> new_owners;
        switch (scenario) {
          case Scenario::kScaleOut:
            mover = 3;
            new_owners = gaining_owners({0, 1, 2}, {0, 1, 2, 3});
            config.fault_plan.joins.push_back(
                {.node = mover, .at = 100 * kMillisecond});
            break;
          case Scenario::kScaleIn:
            mover = 2;
            new_owners = gaining_owners({0, 1, 2}, {0, 1});
            config.fault_plan.decommissions.push_back(
                {.node = mover, .at = 100 * kMillisecond});
            break;
          case Scenario::kAutoscale:
            mover = 1;  // an established member weathers the adversity
            new_owners = gaining_owners({0, 1, 2}, {0, 1, 2, 3});
            config.autoscale.enabled = true;
            config.autoscale.eval_interval = 50 * kMillisecond;
            config.autoscale.high_queue = 3;
            config.autoscale.hysteresis_ticks = 2;
            config.autoscale.cooldown = 500 * kMillisecond;
            config.autoscale.min_nodes = 2;
            break;
        }
        switch (adversity) {
          case Adversity::kNone:
            break;
          case Adversity::kCrash:
            config.fault_plan.crashes.push_back(
                {.node = mover, .at = 500 * kMillisecond});
            break;
          case Adversity::kPartition: {
            std::vector<std::uint32_t> rest = {sim::kFrontendNode};
            for (NodeId n = 0; n < 5; ++n)
              if (n != mover) rest.push_back(n);
            config.fault_plan.partitions.push_back(
                {.groups = {{mover}, rest},
                 .at = 300 * kMillisecond,
                 .heal_at = 900 * kMillisecond});
            break;
          }
          case Adversity::kCorrupt:
            // Bit-flips and tears on every link to and from the new
            // owners: transfer frames are rejected by checksum, NACKed and
            // redelivered, or poisoned and retried until the move flips.
            for (const NodeId n : new_owners) {
              config.fault_plan.links.push_back({.from = n,
                                                 .corrupt_probability = 0.5,
                                                 .truncate_probability = 0.5});
              config.fault_plan.links.push_back({.to = n,
                                                 .corrupt_probability = 0.5,
                                                 .truncate_probability = 0.5});
            }
            break;
        }

        const bool corrupt = adversity == Adversity::kCorrupt;
        const auto& queries = corrupt ? continent_burst : county;
        const auto& expected = corrupt ? continent_expected : county_expected;
        StashCluster cluster(config, shared_generator());
        const auto stats = cluster.run_open_loop(queries, 25 * kMillisecond);
        ASSERT_TRUE(cluster.run_until_stable(120 * kSecond)) << context;

        // Zero partitions lost or double-owned; ring well-formed.
        expect_ring_invariants(cluster, context);
        const auto report = cluster.audit_all();
        EXPECT_TRUE(report.ok()) << context << "\n" << report.to_string();

        // Every racing answer byte-equal to the control, or honestly
        // flagged partial/degraded.
        for (std::size_t i = 0; i < queries.size(); ++i) {
          if (stats[i].partial || stats[i].degraded) continue;
          EXPECT_EQ(stats[i].result_cells, expected[i])
              << context << " query " << i;
        }

        // Post-quiescence, answers are exact everywhere (a crashed
        // *established* member may still be down, which can only surface
        // as an honest partial, never a wrong answer).
        CellSummaryMap got;
        const auto after = cluster.run_query(queries[0], &got);
        if (!after.partial && !after.degraded)
          expect_cells_equal(got, control_cells(queries[0]), context);

        // Counter sanity: flips never exceed planned moves, epochs moved
        // whenever partitions did.
        const auto& m = cluster.metrics();
        if (m.rebalance_partitions_moved > 0) {
          EXPECT_GE(m.rebalance_epoch_advances, 1u) << context;
        }

        if (corrupt) {
          // Corruption only slows the transfers: every move flipped (warm
          // or cold), so each partition is served by its ring owner.
          EXPECT_GT(m.rebalance_partitions_moved, 0u) << context;
          EXPECT_GT(m.frame_integrity_failures, 0u) << context;
          ZeroHopDht ring_owner(1, 2);
          ring_owner.install({.epoch = cluster.ring().epoch + 1,
                              .members = cluster.ring().members});
          for (const auto& partition : ring_owner.all_partitions())
            EXPECT_EQ(cluster.serving_owner(partition),
                      ring_owner.node_for_partition(partition))
                << context << ": partition " << partition << " never flipped";
        }
      }
    }
  }
}

}  // namespace
}  // namespace stash::cluster
