#include "cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "common/codec.hpp"
#include "exec/host_clock.hpp"

namespace stash::cluster {

namespace {
constexpr sim::SimTime kNeverSuspected =
    std::numeric_limits<sim::SimTime>::min();
constexpr std::size_t kAckBytes = 64;  // Ack / NACK / Replication Response
// Warm-chunk transfer bounds (anti-entropy recovery, scrubber, rebalance).
constexpr std::size_t kRecoveryPeers = 3;      // digest peers per round
constexpr std::size_t kMaxPulledChunks = 512;  // chunks per digest exchange
constexpr int kRebalanceMaxAttempts = 3;       // per move, then flip cold
}  // namespace

StashCluster::Node::Node(NodeId node_id, const StashConfig& stash_config,
                         const GalileoStore& store, sim::EventLoop& loop,
                         const sim::SimServer::Config& server_config,
                         std::uint64_t seed)
    : id(node_id),
      graph(stash_config),
      guest_graph(stash_config),
      engine(graph, store),
      guest_engine(guest_graph, store),
      server(loop, server_config),
      maintenance(loop, 1),  // the paper's "separate thread" for population
      last_handoff(std::numeric_limits<sim::SimTime>::min() / 2),
      last_handoff_attempt(std::numeric_limits<sim::SimTime>::min() / 2),
      rng(seed) {}

Evaluation StashCluster::Node::evaluate(std::string_view partition,
                                        const AggregationQuery& query,
                                        EvalMode mode,
                                        const exec::ExecOptions& options,
                                        exec::BatchReport* report) const {
  if (!exec_engine) return engine.evaluate_partition(partition, query, mode);
  if (report == nullptr)
    return exec_engine->evaluate_partition(partition, query, mode);
  return exec_engine->evaluate_partition(partition, query, mode, options,
                                         *report);
}

template <typename Fn>
void StashCluster::mutate_store(Fn&& mutate, std::size_t from) {
  if (config_.exec_threads == 0 || from == nodes_.size()) {
    mutate(store_);
    return;
  }
  nodes_[from]->mutate_graph(
      [&](StashGraph&) { mutate_store(std::forward<Fn>(mutate), from + 1); });
}

StashCluster::Counters::Counters(obs::MetricsRegistry& reg)
    : queries_completed(reg.counter("stash_queries_completed_total",
                                    "Queries completed (including partial)")),
      subqueries_processed(reg.counter("stash_subqueries_processed_total",
                                       "Subqueries executed by node servers")),
      handoffs_initiated(reg.counter("stash_handoffs_initiated_total",
                                     "Hotspot handoff rounds started")),
      cliques_replicated(reg.counter("stash_cliques_replicated_total",
                                     "Cliques installed on helper nodes")),
      cells_replicated(reg.counter("stash_cells_replicated_total",
                                   "Cells shipped in replication payloads")),
      distress_rejections(reg.counter("stash_distress_rejections_total",
                                      "Distress requests NACKed or abandoned")),
      reroutes(reg.counter("stash_reroutes_total",
                           "Subqueries rerouted to a guest helper")),
      guest_fallbacks(reg.counter(
          "stash_guest_fallbacks_total",
          "Guest-served subqueries that fell back to the owner")),
      maintenance_tasks(reg.counter("stash_maintenance_tasks_total",
                                    "Background graph-population tasks run")),
      maintenance_time_us(reg.counter(
          "stash_maintenance_time_us_total",
          "Simulated microseconds spent in background maintenance")),
      node_crashes(reg.counter("stash_node_crashes_total",
                               "Node crashes (scripted or forced)")),
      node_restarts(reg.counter("stash_node_restarts_total", "Node restarts")),
      messages_dropped(reg.counter("stash_messages_dropped_total",
                                   "Messages lost by fault injection")),
      timeouts_fired(reg.counter("stash_timeouts_total",
                                 "Subquery and handoff timeouts fired")),
      handoff_timeouts(reg.counter("stash_handoff_timeouts_total",
                                   "Handoff watchdog expirations")),
      subquery_retries(reg.counter("stash_subquery_retries_total",
                                   "Subquery retry attempts issued")),
      failovers(reg.counter("stash_failovers_total",
                            "Subqueries served by a DHT successor")),
      failed_subqueries(reg.counter("stash_failed_subqueries_total",
                                    "Subqueries that exhausted every attempt")),
      partial_queries(reg.counter("stash_partial_queries_total",
                                  "Queries completed with missing partitions")),
      subqueries_shed(reg.counter(
          "stash_subqueries_shed_total",
          "Subquery jobs rejected by node admission control")),
      subqueries_expired(reg.counter(
          "stash_subqueries_expired_total",
          "Subquery jobs whose deadline expired in a node queue")),
      degraded_subqueries(reg.counter(
          "stash_degraded_subqueries_total",
          "Subqueries answered from a cached coarser ancestor level")),
      degraded_queries(reg.counter(
          "stash_degraded_queries_total",
          "Queries completed with at least one degraded partition")),
      deadline_cut_subqueries(reg.counter(
          "stash_deadline_cut_subqueries_total",
          "Subqueries cut off when their query deadline fired")),
      deadline_cut_queries(reg.counter(
          "stash_deadline_cut_queries_total",
          "Queries finalized by the deadline timer")),
      retries_suppressed(reg.counter(
          "stash_retries_suppressed_total",
          "Retries denied by an exhausted per-query retry budget")),
      digests_exchanged(reg.counter(
          "stash_digests_exchanged_total",
          "PLM digests received by recovering nodes (anti-entropy)")),
      chunks_rewarmed(reg.counter(
          "stash_chunks_rewarmed_total",
          "Complete chunks pulled back into a rejoining node's cache")),
      cells_rewarmed(reg.counter(
          "stash_cells_rewarmed_total",
          "Cells carried by anti-entropy re-warm payloads")),
      recoveries(reg.counter("stash_recoveries_total",
                             "Anti-entropy recovery rounds started")),
      frame_integrity_failures(reg.counter(
          "stash_frame_integrity_failures_total",
          "Wire frames rejected by magic/length/checksum validation")),
      messages_redelivered(reg.counter(
          "stash_messages_redelivered_total",
          "Corrupt frames NACKed and retransmitted from the sender")),
      poison_messages(reg.counter(
          "stash_poison_messages_total",
          "Frames still corrupt after the redelivery budget (dropped)")),
      corrupt_queries(reg.counter(
          "stash_corrupt_queries_total",
          "Queries flagged partial because a scanned block failed its "
          "checksum")),
      scrub_cycles(reg.counter("stash_scrub_cycles_total",
                               "Background scrubber passes run")),
      scrub_repairs(reg.counter(
          "stash_scrub_repairs_total",
          "Quarantined blocks rewritten from pristine data by the scrubber")),
      replica_divergences(reg.counter(
          "stash_replica_divergences_total",
          "Cached chunks dropped and re-pulled after an anti-entropy digest "
          "mismatch")),
      rebalance_partitions_moved(reg.counter(
          "stash_rebalance_partitions_moved_total",
          "Partition ownership flips completed by ring rebalancing")),
      rebalance_transfers_aborted(reg.counter(
          "stash_rebalance_transfers_aborted_total",
          "Warm rebalance transfer attempts that timed out or failed")),
      rebalance_ownership_reverts(reg.counter(
          "stash_rebalance_ownership_reverts_total",
          "Rebalance moves reverted to the old owner (target died mid-join)")),
      rebalance_epoch_advances(reg.counter(
          "stash_rebalance_epoch_advances_total",
          "Membership ring epochs installed by the front-end")) {}

StashCluster::StashCluster(ClusterConfig config,
                           std::shared_ptr<const NamGenerator> generator)
    : config_(config),
      dht_(config.num_nodes, config.partition_prefix_length),
      // Slots beyond num_nodes are elastic standbys: addressable by the
      // fault plan and the network, but outside the ring until they join.
      fault_(config.fault_plan, std::max(config.num_nodes, config.max_nodes)),
      generator_(std::move(generator)),
      store_(generator_, config.partition_prefix_length),
      suspect_until_(std::max(config.num_nodes, config.max_nodes),
                     kNeverSuspected),
      last_recovery_(std::max(config.num_nodes, config.max_nodes),
                     std::numeric_limits<sim::SimTime>::min() / 2),
      frontend_rng_(config.seed ^ 0x46524f4e54ULL),
      tracer_(config.tracing, config.trace_capacity),
      counters_(registry_),
      query_latency_us_(registry_.histogram(
          "stash_query_latency_us", "End-to-end query latency (simulated us)",
          obs::latency_buckets_us())),
      subquery_service_us_(registry_.histogram(
          "stash_subquery_service_us",
          "Per-subquery server service time (simulated us)",
          obs::latency_buckets_us())),
      maintenance_service_us_(registry_.histogram(
          "stash_maintenance_service_us",
          "Background maintenance task duration (simulated us)",
          obs::latency_buckets_us())) {
  if (!generator_) throw std::invalid_argument("StashCluster: null generator");
  if (config_.max_nodes != 0 && config_.max_nodes < config_.num_nodes)
    throw std::invalid_argument("StashCluster: max_nodes < num_nodes");
  const std::uint32_t slots = std::max(config_.num_nodes, config_.max_nodes);
  elastic_ = config_.max_nodes > config_.num_nodes ||
             !config_.fault_plan.joins.empty() ||
             !config_.fault_plan.decommissions.empty() ||
             config_.autoscale.enabled;
  store_.set_verify_checksums(config_.verify_checksums);
  // Validate scripted bit-rot targets eagerly: a bad partition key should
  // fail construction, not throw from inside the event loop at fire time.
  for (const auto& event : config_.fault_plan.bitrot) {
    if (event.partition.size() !=
        static_cast<std::size_t>(config_.partition_prefix_length))
      throw std::invalid_argument(
          "StashCluster: bit-rot partition key length != partition prefix");
    if (!geohash::is_valid(event.partition))
      throw std::invalid_argument(
          "StashCluster: bit-rot partition is not a valid geohash");
  }
  nodes_.reserve(slots);
  const sim::SimServer::Config server_config{
      config_.workers_per_node, config_.queue_limit, config_.admission_policy};
  for (NodeId id = 0; id < slots; ++id)
    nodes_.push_back(std::make_unique<Node>(id, config_.stash, store_, loop_,
                                            server_config,
                                            config_.seed ^ mix64(id)));
  if (config_.exec_threads > 0) {
    // Wall-clock datapath: every node shards its chunk work across a real
    // thread pool.  Answers stay byte-identical to the inline engine, so
    // the sim remains deterministic for a fixed seed.
    exec::ExecConfig exec_config;
    exec_config.threads = config_.exec_threads;
    exec_config.queue_capacity = config_.exec_queue_capacity;
    exec_config.faults = config_.exec_faults;
    for (auto& node : nodes_)
      node->exec_engine = std::make_unique<exec::ParallelQueryEngine>(
          node->graph, store_, exec_config);
  }
  // Gossip rides the normal (faulty) message path as background traffic:
  // subject to the same drops/partitions/latency as queries, but never
  // keeping run-to-quiescence alive.
  membership_ = std::make_unique<GossipMembership>(
      config_.membership, slots, loop_,
      [this](std::uint32_t from, std::uint32_t to, std::size_t bytes,
             std::function<void()> deliver) {
        send_message(from, to, bytes, std::move(deliver), /*background=*/true);
      },
      [this](std::uint32_t node) { return fault_.alive(node); },
      /*initial_members=*/config_.num_nodes);
  membership_->set_state_handler(
      [this](std::uint32_t observer, std::uint32_t node, MemberState state) {
        // Stale-replica fix: the moment a node's own view declares a peer
        // dead (or learns it left), routing entries pointing at that peer
        // are invalidated, so no subquery is ever forwarded to a host known
        // to be gone.
        if ((state == MemberState::kDead || state == MemberState::kLeft) &&
            observer != sim::kFrontendNode && fault_.alive(observer))
          nodes_[observer]->routing.drop_helper(node);
      });
  register_callback_metrics();
  // Crash wipes volatile state only — the Galileo store survives, so any
  // node (the owner after restart, or a failover successor) can rebuild
  // answers from disk.  This is the paper's volatile-cache/durable-store
  // split made executable.
  fault_.set_crash_handler([this](std::uint32_t id) {
    wipe_node(id);
    membership_->reset_view(id);  // its beliefs were volatile state too
    counters_.node_crashes.inc();
    if (elastic_) handle_elastic_crash(id);
  });
  fault_.set_restart_handler([this](std::uint32_t id) {
    counters_.node_restarts.inc();
    // Rejoin with a bumped incarnation: overrides any rumor of this
    // node's death everywhere it has spread.
    membership_->announce(id);
    if (config_.recovery) start_recovery(id);
  });
  fault_.set_heal_handler([this](const sim::PartitionEvent& event) {
    // Every healed node re-announces for fast view convergence; the
    // groups cut off from the front-end additionally re-warm their caches
    // from the replicas that served their partitions meanwhile.
    for (const auto& group : event.groups) {
      const bool had_frontend =
          std::find(group.begin(), group.end(), sim::kFrontendNode) !=
          group.end();
      for (const std::uint32_t id : group) {
        if (id == sim::kFrontendNode || !fault_.alive(id)) continue;
        membership_->announce(id);
        if (config_.recovery && !had_frontend) start_recovery(id);
      }
    }
  });
  fault_.set_bitrot_handler([this](const sim::BitRotEvent& event) {
    mutate_store([&](GalileoStore& store) {
      store.rot_block(BlockKey{event.partition, event.day});
    });
  });
  fault_.set_join_handler([this](std::uint32_t id) { join_node(id); });
  fault_.set_decommission_handler(
      [this](std::uint32_t id) { decommission_node(id); });
  fault_.arm(loop_);
  membership_->start();
  // Ring watcher + autoscaler run only when something elastic can happen,
  // so fixed-size runs stay bit-identical to the pre-elastic cluster.
  if (elastic_) ensure_elastic();
  // Background scrubber: detect -> quarantine -> repair without waiting
  // for a query to trip over the rot.  Background scheduling means an idle
  // cluster still quiesces.
  if (config_.scrub_interval > 0)
    loop_.schedule_background(config_.scrub_interval,
                              [this] { scrub_tick(/*reschedule=*/true); });
}

void StashCluster::rot_block(const std::string& partition, std::int64_t day) {
  mutate_store(
      [&](GalileoStore& store) { store.rot_block(BlockKey{partition, day}); });
}

void StashCluster::scrub_now() { scrub_tick(/*reschedule=*/false); }

void StashCluster::scrub_tick(bool reschedule) {
  counters_.scrub_cycles.inc();
  // Storage pass: verify the block table, then rewrite every quarantined
  // block from pristine data.  (The store is generative, so a repair is an
  // exact rewrite — no replica round-trip to model for durable blocks.)
  store_.scrub();
  for (const BlockKey& block : store_.quarantine_list())
    mutate_store([&](GalileoStore& store) {
      if (store.repair_block(block)) counters_.scrub_repairs.inc();
    });
  // Cache pass: walk one node's chunk digests per tick (round-robin)
  // against its ring successors over the anti-entropy path.  A cached
  // replica whose digest disagrees with its peers' is dropped and
  // re-pulled there, not trusted.
  const auto& members = dht_.ring().members;
  if (!members.empty()) {
    const NodeId id = members[scrub_cursor_ % members.size()];
    scrub_cursor_ =
        static_cast<std::uint32_t>((scrub_cursor_ + 1) % members.size());
    if (fault_.alive(id)) start_recovery(id);
  }
  if (reschedule && config_.scrub_interval > 0)
    loop_.schedule_background(config_.scrub_interval,
                              [this] { scrub_tick(/*reschedule=*/true); });
}

void StashCluster::register_callback_metrics() {
  using obs::MetricKind;
  registry_.callback("stash_cached_cells",
                     "Cells resident in local graphs across all nodes",
                     MetricKind::Gauge, [this] {
                       return static_cast<double>(total_cached_cells());
                     });
  registry_.callback("stash_guest_cells",
                     "Cells resident in guest graphs across all nodes",
                     MetricKind::Gauge, [this] {
                       return static_cast<double>(total_guest_cells());
                     });
  registry_.callback("stash_pending_queries",
                     "Queries in flight at the front-end", MetricKind::Gauge,
                     [this] { return static_cast<double>(pending_.size()); });
  registry_.callback("stash_server_queue_length",
                     "Requests queued across all node servers",
                     MetricKind::Gauge, [this] {
                       std::size_t total = 0;
                       for (const auto& node : nodes_)
                         total += node->server.queue_length();
                       return static_cast<double>(total);
                     });
  registry_.callback("stash_server_busy_workers",
                     "Busy workers across all node servers", MetricKind::Gauge,
                     [this] {
                       double total = 0.0;
                       for (const auto& node : nodes_)
                         total += node->server.busy_workers();
                       return total;
                     });
  registry_.callback("stash_server_completed_jobs_total",
                     "Jobs completed across all node servers",
                     MetricKind::Counter, [this] {
                       std::uint64_t total = 0;
                       for (const auto& node : nodes_)
                         total += node->server.completed_jobs();
                       return static_cast<double>(total);
                     });
  registry_.callback("stash_server_queue_wait_us_total",
                     "Virtual time jobs spent queued before dispatch",
                     MetricKind::Counter, [this] {
                       sim::SimTime total = 0;
                       for (const auto& node : nodes_)
                         total += node->server.total_queue_wait();
                       return static_cast<double>(total);
                     });
  registry_.callback("stash_server_peak_queue_length",
                     "Worst pending-queue depth seen on any node server",
                     MetricKind::Gauge, [this] {
                       std::size_t peak = 0;
                       for (const auto& node : nodes_)
                         peak = std::max(peak, node->server.peak_queue_length());
                       return static_cast<double>(peak);
                     });
  registry_.callback("stash_server_jobs_shed_total",
                     "Jobs shed by admission control across all node servers",
                     MetricKind::Counter, [this] {
                       std::uint64_t total = 0;
                       for (const auto& node : nodes_)
                         total += node->server.shed_jobs();
                       return static_cast<double>(total);
                     });
  registry_.callback("stash_server_jobs_expired_total",
                     "Jobs whose deadline expired while queued, all servers",
                     MetricKind::Counter, [this] {
                       std::uint64_t total = 0;
                       for (const auto& node : nodes_)
                         total += node->server.expired_jobs();
                       return static_cast<double>(total);
                     });
  registry_.callback("stash_server_jobs_dropped_total",
                     "Jobs wiped by server resets (crashes), all servers",
                     MetricKind::Counter, [this] {
                       std::uint64_t total = 0;
                       for (const auto& node : nodes_)
                         total += node->server.dropped_jobs() +
                                  node->maintenance.dropped_jobs();
                       return static_cast<double>(total);
                     });
  // Per-node graph counters (core/graph.hpp Stats), summed over local and
  // guest graphs at snapshot time.  Stats are lifetime-cumulative and
  // survive clear(), so crash wipes do not make these go backwards.
  const auto graph_stat = [this](std::uint64_t StashGraph::Stats::*field) {
    std::uint64_t total = 0;
    for (const auto& node : nodes_) {
      total += node->graph.stats().*field;
      total += node->guest_graph.stats().*field;
    }
    return static_cast<double>(total);
  };
  registry_.callback(
      "stash_graph_cells_absorbed_total",
      "Cells merged into node graphs (local + guest)", MetricKind::Counter,
      [graph_stat] { return graph_stat(&StashGraph::Stats::cells_absorbed); });
  registry_.callback(
      "stash_graph_cells_evicted_total",
      "Cells evicted by freshness pressure (local + guest)",
      MetricKind::Counter,
      [graph_stat] { return graph_stat(&StashGraph::Stats::cells_evicted); });
  registry_.callback(
      "stash_graph_cells_purged_total",
      "Cells dropped by TTL purges (local + guest)", MetricKind::Counter,
      [graph_stat] { return graph_stat(&StashGraph::Stats::cells_purged); });
  registry_.callback(
      "stash_graph_eviction_passes_total",
      "Eviction passes that dropped at least one chunk", MetricKind::Counter,
      [graph_stat] { return graph_stat(&StashGraph::Stats::eviction_passes); });
  registry_.callback(
      "stash_graph_freshness_touches_total",
      "Chunk freshness updates (accessed + dispersed)", MetricKind::Counter,
      [graph_stat] {
        return graph_stat(&StashGraph::Stats::freshness_touches);
      });
  registry_.callback(
      "stash_graph_chunks_invalidated_total",
      "Chunks dropped by real-time update invalidation", MetricKind::Counter,
      [graph_stat] {
        return graph_stat(&StashGraph::Stats::chunks_invalidated);
      });
  // Membership + partition counters read straight from the gossip and
  // fault-injection stats at snapshot time.
  registry_.callback("stash_gossip_probes_total",
                     "SWIM probe pings sent by all observers",
                     MetricKind::Counter, [this] {
                       return static_cast<double>(
                           membership_->stats().probes_sent);
                     });
  registry_.callback("stash_false_suspicions_total",
                     "Suspected members later refuted alive",
                     MetricKind::Counter, [this] {
                       return static_cast<double>(
                           membership_->stats().false_suspicions);
                     });
  registry_.callback("stash_partitions_observed_total",
                     "Network partitions activated by the fault plan",
                     MetricKind::Counter, [this] {
                       return static_cast<double>(
                           fault_.stats().partitions_observed);
                     });
  // Elastic membership gauges: the installed ring, read at snapshot time.
  registry_.callback("stash_ring_epoch",
                     "Epoch of the installed membership ring",
                     MetricKind::Gauge, [this] {
                       return static_cast<double>(dht_.epoch());
                     });
  registry_.callback("stash_ring_members",
                     "Members in the installed membership ring",
                     MetricKind::Gauge, [this] {
                       return static_cast<double>(dht_.num_nodes());
                     });
  registry_.callback("stash_rebalance_moves_inflight",
                     "Partition handoffs currently mid-transfer",
                     MetricKind::Gauge, [this] {
                       return static_cast<double>(moves_.size());
                     });
  // Integrity counters read straight from the store and fault-injection
  // stats at snapshot time (same pattern as the membership counters).
  registry_.callback("stash_integrity_checksum_failures_total",
                     "Storage scans that hit a block failing its checksum",
                     MetricKind::Counter, [this] {
                       return static_cast<double>(
                           store_.integrity().checksum_failures);
                     });
  registry_.callback("stash_blocks_quarantined_total",
                     "Distinct storage blocks quarantined after failing "
                     "verification",
                     MetricKind::Counter, [this] {
                       return static_cast<double>(
                           store_.integrity().blocks_quarantined);
                     });
  registry_.callback("stash_blocks_repaired_total",
                     "Quarantined or rotted blocks rewritten from pristine "
                     "data",
                     MetricKind::Counter, [this] {
                       return static_cast<double>(
                           store_.integrity().blocks_repaired);
                     });
  registry_.callback("stash_bitrot_injected_total",
                     "Storage bit-rot events fired by the fault plan",
                     MetricKind::Counter, [this] {
                       return static_cast<double>(
                           fault_.stats().bitrot_injected);
                     });
  registry_.callback("stash_messages_corrupted_total",
                     "In-flight messages bit-flipped by fault injection",
                     MetricKind::Counter, [this] {
                       return static_cast<double>(
                           fault_.stats().messages_corrupted);
                     });
  registry_.callback("stash_messages_truncated_total",
                     "In-flight messages torn short by fault injection",
                     MetricKind::Counter, [this] {
                       return static_cast<double>(
                           fault_.stats().messages_truncated);
                     });
  // Wall-clock exec pool activity, summed across nodes.  The aggregates
  // are always registered (0 with exec disabled — schema-required); the
  // per-worker breakdowns only exist when pools do.
  const auto exec_total = [this](auto get) {
    double total = 0;
    for (const auto& node : nodes_)
      if (node->exec_engine)
        total += static_cast<double>(get(*node->exec_engine));
    return total;
  };
  const auto exec_sum =
      [exec_total](std::uint64_t concurrency::WorkerStats::* field) {
        return exec_total([field](const exec::ParallelQueryEngine& e) {
          return e.total_stats().*field;
        });
      };
  registry_.callback(
      "stash_exec_tasks_total", "Chunk tasks executed by wall-clock workers",
      MetricKind::Counter,
      [exec_sum] { return exec_sum(&concurrency::WorkerStats::executed); });
  registry_.callback(
      "stash_exec_steals_total",
      "Chunk tasks stolen from another worker's ring", MetricKind::Counter,
      [exec_sum] { return exec_sum(&concurrency::WorkerStats::stolen); });
  registry_.callback(
      "stash_exec_parks_total", "Times a wall-clock worker parked idle",
      MetricKind::Counter,
      [exec_sum] { return exec_sum(&concurrency::WorkerStats::parks); });
  registry_.callback(
      "stash_exec_wakeups_total", "Times a parked worker was woken",
      MetricKind::Counter,
      [exec_sum] { return exec_sum(&concurrency::WorkerStats::wakeups); });
  // Wall-clock robustness counters (DESIGN.md §14), also schema-required.
  const auto exec_stat_sum =
      [exec_total](std::uint64_t exec::ExecStats::* field) {
        return exec_total([field](const exec::ParallelQueryEngine& e) {
          return e.exec_stats().*field;
        });
      };
  registry_.callback(
      "stash_exec_deadline_exceeded_total",
      "Wall-clock evaluate calls that hit their deadline", MetricKind::Counter,
      [exec_stat_sum] {
        return exec_stat_sum(&exec::ExecStats::deadline_exceeded);
      });
  registry_.callback(
      "stash_exec_cancelled_chunks_total",
      "Chunk tasks cancelled cooperatively after a deadline or shutdown",
      MetricKind::Counter, [exec_stat_sum] {
        return exec_stat_sum(&exec::ExecStats::cancelled_chunks);
      });
  registry_.callback(
      "stash_exec_task_exceptions_total",
      "Chunk tasks that threw and were quarantined", MetricKind::Counter,
      [exec_stat_sum, exec_sum] {
        // Engine-recorded chunk failures plus anything the pool caught
        // from tasks submitted outside a batch.
        return exec_stat_sum(&exec::ExecStats::task_exceptions) +
               exec_sum(&concurrency::WorkerStats::task_exceptions);
      });
  registry_.callback(
      "stash_exec_watchdog_stalls_total",
      "Stuck-worker detections by the exec watchdog", MetricKind::Counter,
      [exec_sum] {
        return exec_sum(&concurrency::WorkerStats::watchdog_stalls);
      });
  registry_.callback(
      "stash_exec_submit_shed_total",
      "Chunk submissions shed to inline execution (all rings full)",
      MetricKind::Counter, [exec_sum] {
        return exec_sum(&concurrency::WorkerStats::submit_shed);
      });
  registry_.callback(
      "stash_exec_queue_depth",
      "Queued-but-unexecuted chunk tasks across all exec rings",
      MetricKind::Gauge, [exec_total] {
        return exec_total(
            [](const exec::ParallelQueryEngine& e) { return e.queue_depth(); });
      });
  registry_.callback(
      "stash_exec_workers", "Wall-clock worker threads across all nodes",
      MetricKind::Gauge, [exec_total] {
        return exec_total(
            [](const exec::ParallelQueryEngine& e) { return e.worker_count(); });
      });
  // Per-worker-slot queue depth and steal counters (summed over nodes at
  // the same slot index) — both exporters render these like any metric.
  if (config_.exec_threads > 0) {
    const std::size_t slots = nodes_.empty()
                                  ? 0
                                  : nodes_.front()->exec_engine->worker_count();
    for (std::size_t i = 0; i < slots; ++i) {
      const std::string suffix = std::to_string(i);
      registry_.callback(
          "stash_exec_worker" + suffix + "_tasks_total",
          "Chunk tasks executed by worker slot " + suffix + " (all nodes)",
          MetricKind::Counter, [exec_total, i] {
            return exec_total([i](const exec::ParallelQueryEngine& e) {
              return e.worker_stats(i).executed;
            });
          });
      registry_.callback(
          "stash_exec_worker" + suffix + "_steals_total",
          "Chunk tasks stolen by worker slot " + suffix + " (all nodes)",
          MetricKind::Counter, [exec_total, i] {
            return exec_total([i](const exec::ParallelQueryEngine& e) {
              return e.worker_stats(i).stolen;
            });
          });
      registry_.callback(
          "stash_exec_worker" + suffix + "_queue_depth",
          "Queued chunk tasks in worker slot " + suffix + "'s rings "
          "(all nodes)",
          MetricKind::Gauge, [exec_total, i] {
            return exec_total([i](const exec::ParallelQueryEngine& e) {
              return e.worker_queue_depth(i);
            });
          });
    }
  }
}

ClusterMetrics StashCluster::metrics() const {
  ClusterMetrics m;
  m.queries_completed = counters_.queries_completed.value();
  m.subqueries_processed = counters_.subqueries_processed.value();
  m.handoffs_initiated = counters_.handoffs_initiated.value();
  m.cliques_replicated = counters_.cliques_replicated.value();
  m.cells_replicated = counters_.cells_replicated.value();
  m.distress_rejections = counters_.distress_rejections.value();
  m.reroutes = counters_.reroutes.value();
  m.guest_fallbacks = counters_.guest_fallbacks.value();
  m.maintenance_tasks = counters_.maintenance_tasks.value();
  m.total_maintenance_time =
      static_cast<sim::SimTime>(counters_.maintenance_time_us.value());
  m.node_crashes = counters_.node_crashes.value();
  m.node_restarts = counters_.node_restarts.value();
  m.messages_dropped = counters_.messages_dropped.value();
  m.timeouts_fired = counters_.timeouts_fired.value();
  m.handoff_timeouts = counters_.handoff_timeouts.value();
  m.subquery_retries = counters_.subquery_retries.value();
  m.failovers = counters_.failovers.value();
  m.failed_subqueries = counters_.failed_subqueries.value();
  m.partial_queries = counters_.partial_queries.value();
  m.subqueries_shed = counters_.subqueries_shed.value();
  m.subqueries_expired = counters_.subqueries_expired.value();
  m.degraded_subqueries = counters_.degraded_subqueries.value();
  m.degraded_queries = counters_.degraded_queries.value();
  m.deadline_cut_subqueries = counters_.deadline_cut_subqueries.value();
  m.deadline_cut_queries = counters_.deadline_cut_queries.value();
  m.retries_suppressed = counters_.retries_suppressed.value();
  m.gossip_probes = membership_->stats().probes_sent;
  m.false_suspicions = membership_->stats().false_suspicions;
  m.partitions_observed = fault_.stats().partitions_observed;
  m.digests_exchanged = counters_.digests_exchanged.value();
  m.chunks_rewarmed = counters_.chunks_rewarmed.value();
  m.cells_rewarmed = counters_.cells_rewarmed.value();
  m.recoveries = counters_.recoveries.value();
  m.integrity_checksum_failures = store_.integrity().checksum_failures;
  m.blocks_quarantined = store_.integrity().blocks_quarantined;
  m.blocks_repaired = store_.integrity().blocks_repaired;
  m.frame_integrity_failures = counters_.frame_integrity_failures.value();
  m.messages_redelivered = counters_.messages_redelivered.value();
  m.poison_messages = counters_.poison_messages.value();
  m.messages_corrupted = fault_.stats().messages_corrupted;
  m.messages_truncated = fault_.stats().messages_truncated;
  m.corrupt_queries = counters_.corrupt_queries.value();
  m.scrub_cycles = counters_.scrub_cycles.value();
  m.scrub_repairs = counters_.scrub_repairs.value();
  m.replica_divergences = counters_.replica_divergences.value();
  m.rebalance_partitions_moved = counters_.rebalance_partitions_moved.value();
  m.rebalance_transfers_aborted =
      counters_.rebalance_transfers_aborted.value();
  m.rebalance_ownership_reverts =
      counters_.rebalance_ownership_reverts.value();
  m.rebalance_epoch_advances = counters_.rebalance_epoch_advances.value();
  return m;
}

void StashCluster::wipe_node(NodeId id) {
  Node& node = *nodes_[id];
  node.mutate_graph([](StashGraph& graph) { graph.clear(); });
  node.guest_graph.clear();
  node.routing.clear();
  node.server.reset();
  node.maintenance.reset();
  node.last_handoff = std::numeric_limits<sim::SimTime>::min() / 2;
  node.last_handoff_attempt = std::numeric_limits<sim::SimTime>::min() / 2;
}

void StashCluster::crash_node(NodeId id) { fault_.force_crash(id); }

void StashCluster::restart_node(NodeId id) { fault_.force_restart(id); }

bool StashCluster::reachable(NodeId id) const {
  return membership_->usable(sim::kFrontendNode, id) && !suspected(id);
}

void StashCluster::recover_node(NodeId id) {
  if (id >= nodes_.size())
    throw std::out_of_range("StashCluster::recover_node: bad node id");
  start_recovery(id);
}

std::vector<StashCluster::DigestEntry> StashCluster::warm_digest(
    NodeId holder, const std::vector<std::string>& partitions) const {
  std::vector<DigestEntry> out;
  const Node& node = *nodes_[holder];
  const auto covers = [&](const std::string& prefix) {
    for (const auto& p : partitions) {
      const bool hit = prefix.size() >= p.size()
                           ? prefix.compare(0, p.size(), p) == 0
                           : p.compare(0, prefix.size(), prefix) == 0;
      if (hit) return true;
    }
    return false;
  };
  std::set<std::pair<int, ChunkKey>> seen;
  const auto collect = [&](const StashGraph& graph) {
    for (int lvl = 0; lvl < kNumLevels; ++lvl) {
      const Resolution res = resolution_of_level(lvl);
      graph.for_each_chunk(
          res, [&](const ChunkKey& key, const StashGraph::ChunkData&) {
            if (!covers(key.prefix_str())) return;
            if (!graph.chunk_complete(res, key)) return;
            if (!seen.insert({lvl, key}).second) return;
            // Content-covering digest (PLM bitmap + Cell contents, both on
            // the shared integrity checksum): a mismatch detects a rotted
            // or diverged replica, not just different coverage.
            out.push_back({res, key, graph.chunk_digest(res, key)});
          });
    }
  };
  collect(node.graph);
  collect(node.guest_graph);
  return out;
}

std::optional<std::vector<ChunkContribution>> StashCluster::decode_or_poison(
    const codec::Buffer& verified) {
  try {
    return codec::decode_replication_payload(verified);
  } catch (const std::exception&) {
    // Checksum-valid but structurally bad: a sender-side encoding bug, not
    // line noise.  Quarantine (drop), never absorb garbage.
    counters_.poison_messages.inc();
    return std::nullopt;
  }
}

void StashCluster::pull_warm_chunks(NodeId to, NodeId donor,
                                    std::optional<std::string> partition,
                                    bool background,
                                    std::function<bool()> current,
                                    std::function<void()> done) {
  const auto stale = [current = std::move(current)] {
    return current && !current();
  };
  // Digest Request: receiver -> donor.  The scope is resolved on arrival,
  // against the ring the donor sees then.
  send_message(
      to, donor, config_.request_bytes,
      [=, this] {
        const auto digest = std::make_shared<std::vector<DigestEntry>>(
            warm_digest(donor, partition
                                   ? std::vector<std::string>{*partition}
                                   : dht_.partitions_of(to)));
        // Digest Response: one (level, chunk, bitmap-hash) triple per entry.
        const std::size_t bytes = config_.request_bytes + 24 * digest->size();
        send_message(
            donor, to, bytes,
            [=, this] {
              if (stale()) return;
              counters_.digests_exchanged.inc();
              Node& local = *nodes_[to];
              // Diff against the local graph's content digests.  Pull a
              // chunk this node does not hold at all; when BOTH sides hold
              // it complete but the digests disagree, the local copy
              // diverged or rotted — quarantine it (drop) and re-pull,
              // never trust it.  A locally partial chunk is left alone:
              // absorb's idempotence guard would reject the overlapping
              // days anyway.
              auto wanted = std::make_shared<
                  std::vector<std::pair<Resolution, ChunkKey>>>();
              for (const auto& entry : *digest) {
                if (wanted->size() >= kMaxPulledChunks) break;
                const std::uint64_t local_hash =
                    local.graph.chunk_digest(entry.res, entry.chunk);
                if (local_hash == entry.hash) continue;  // same content
                if (local_hash != 0) {
                  if (!local.graph.chunk_complete(entry.res, entry.chunk))
                    continue;  // partial: skip
                  local.mutate_graph([&](StashGraph& graph) {
                    graph.drop_chunk(entry.res, entry.chunk);
                  });
                  counters_.replica_divergences.inc();
                }
                wanted->emplace_back(entry.res, entry.chunk);
              }
              if (wanted->empty()) {
                // Nothing warm to pull (cold scope, or already in sync).
                if (done) done();
                return;
              }
              // Chunk Pull Request: names exactly the missing complete
              // chunks.
              const std::size_t req_bytes =
                  config_.request_bytes + 16 * wanted->size();
              send_message(
                  to, donor, req_bytes,
                  [=, this] {
                    if (stale()) return;
                    Node& holder = *nodes_[donor];
                    auto payload = chunk_payload(holder.graph, *wanted);
                    std::set<std::pair<int, ChunkKey>> shipped;
                    for (const auto& c : payload)
                      shipped.insert({level_index(c.res), c.chunk});
                    std::vector<std::pair<Resolution, ChunkKey>> rest;
                    for (const auto& [res, chunk] : *wanted)
                      if (!shipped.contains({level_index(res), chunk}))
                        rest.emplace_back(res, chunk);
                    for (auto& c : chunk_payload(holder.guest_graph, rest))
                      payload.push_back(std::move(c));
                    if (payload.empty()) {
                      // The donor lost the chunks since its digest: an
                      // empty Ack tells a waiting receiver it is over.
                      if (done)
                        send_message(
                            donor, to, kAckBytes,
                            [=] {
                              if (!stale()) done();
                            },
                            background);
                      return;
                    }
                    // The shipment rides the checksummed Replication frame
                    // path (same wire format as hotspot handoff): a
                    // corrupted transfer is detected and redelivered
                    // instead of poisoning the receiver's cache.
                    send_frame(
                        donor, to, codec::encode_replication_frame(payload),
                        [=, this](codec::Buffer&& verified) {
                          if (stale()) return;
                          const auto contributions =
                              decode_or_poison(verified);
                          if (!contributions) return;
                          Node& receiver = *nodes_[to];
                          std::uint64_t chunks = 0, cells = 0;
                          receiver.mutate_graph([&](StashGraph& graph) {
                            for (const auto& c : *contributions) {
                              if (graph.absorb(c, loop_.now()) == 0) continue;
                              ++chunks;
                              cells += c.cells.size();
                            }
                          });
                          counters_.chunks_rewarmed.inc(chunks);
                          counters_.cells_rewarmed.inc(cells);
                          if (done) done();
                        },
                        background, config_.max_redeliveries);
                  },
                  background);
            },
            background);
      },
      background);
}

void StashCluster::start_recovery(NodeId id) {
  if (!config_.recovery || !fault_.alive(id)) return;
  if (loop_.now() - last_recovery_[id] < config_.recovery_cooldown) return;
  last_recovery_[id] = loop_.now();
  counters_.recoveries.inc();
  Node& node = *nodes_[id];
  // Routing hygiene first: entries pointing at peers this node's own view
  // does not consider alive are invalidated before any query can follow
  // them into a black hole.
  for (NodeId peer = 0; peer < nodes_.size(); ++peer)
    if (peer != id && !membership_->usable(id, peer))
      node.routing.drop_helper(peer);
  // Digest peers: the first kRecoveryPeers nodes along this node's ring
  // successor chain.  Whichever of them the front-end failed over to
  // served (and cached) this node's partitions while it was gone; the
  // rejoining node cannot know which — front-end reachability during the
  // outage is not reconstructible — so it asks the whole bracket.  The
  // bracket is deliberately NOT filtered through this node's own gossip
  // view: right after a heal that view still calls the other side dead,
  // and those are exactly the replica holders.  A digest request to a
  // truly dead peer just goes unanswered — recovery is fire-and-forget.
  // Successors come from the installed ring, so recovery keeps working
  // across epoch changes (a decommissioned slot is simply never a peer).
  std::vector<NodeId> peers;
  const std::size_t ring_size = dht_.ring().members.size();
  for (std::uint32_t k = 0;
       k + 1 < ring_size && peers.size() < kRecoveryPeers; ++k) {
    const NodeId peer = dht_.successor_of_node(id, k);
    if (peer != id) peers.push_back(peer);
  }
  for (const NodeId peer : peers)
    pull_warm_chunks(id, peer, std::nullopt, /*background=*/false,
                     /*current=*/{}, /*done=*/{});
}

// --- elastic membership & ring rebalancing -------------------------------
//
// Ownership is the epoch-versioned ring in the DHT plus the handoff
// records in moves_: a partition with a live Move is answered by its OLD
// owner (Move::from); erasing the record is the atomic flip to the ring
// owner.  The front-end drives everything — it watches its own gossip
// view, advances the epoch only after the desired member set holds stable,
// plans one Move per partition whose serving owner changes, and the new
// owners pull warm state from live donors over the same digest/pull/
// checksummed-frame path anti-entropy recovery uses.  All of it is
// background traffic: a run-to-quiescence test that never scales sees a
// bit-identical cluster.

NodeId StashCluster::serving_owner(const std::string& partition) const {
  const auto it = moves_.find(partition);
  return it != moves_.end() ? it->second.from
                            : dht_.node_for_partition(partition);
}

bool StashCluster::move_current(const std::string& partition,
                                std::uint64_t epoch, int attempt) const {
  const auto it = moves_.find(partition);
  return it != moves_.end() && it->second.epoch == epoch &&
         it->second.attempt == attempt;
}

bool StashCluster::rebalance_in_progress() const {
  if (!moves_.empty() || !joining_.empty() || !leaving_.empty()) return true;
  return elastic_ && desired_ring_members() != dht_.ring().members;
}

bool StashCluster::run_until_stable(sim::SimTime max_wait) {
  const sim::SimTime deadline = loop_.now() + max_wait;
  const sim::SimTime step =
      std::max<sim::SimTime>(config_.ring_check_interval, 1);
  while (loop_.now() < deadline) {
    if (!rebalance_in_progress()) return true;
    loop_.run_for(std::min(step, deadline - loop_.now()));
  }
  return !rebalance_in_progress();
}

void StashCluster::ensure_elastic() {
  if (elastic_armed_) return;
  elastic_armed_ = true;
  elastic_ = true;
  ring_candidate_ = dht_.ring().members;
  ring_candidate_since_ = loop_.now();
  loop_.schedule_background(config_.ring_check_interval,
                            [this] { ring_watch_tick(); });
  if (config_.autoscale.enabled)
    loop_.schedule_background(config_.autoscale.eval_interval,
                              [this] { autoscale_tick(); });
}

void StashCluster::join_node(NodeId id) {
  if (id >= nodes_.size())
    throw std::out_of_range("StashCluster::join_node: bad node id");
  if (membership_->is_registered(id)) return;  // member or already joining
  if (!fault_.alive(id)) return;  // a dead standby cannot announce itself
  ensure_elastic();  // programmatic scaling arms the watcher lazily
  joining_.insert(id);
  membership_->join(id);
}

void StashCluster::decommission_node(NodeId id) {
  if (id >= nodes_.size())
    throw std::out_of_range("StashCluster::decommission_node: bad node id");
  if (!membership_->is_registered(id)) return;  // standby or already left
  if (leaving_.contains(id) || joining_.contains(id)) return;
  if (!dht_.ring().contains(id)) {
    // Registered but never made it into an epoch (join still converging):
    // it owns nothing, so it can leave immediately.
    membership_->leave(id);
    return;
  }
  // Never drain the last serving member.
  if (dht_.ring().members.size() <= leaving_.size() + 1) return;
  ensure_elastic();  // programmatic scaling arms the watcher lazily
  leaving_.insert(id);  // keeps serving until its last outbound move flips
}

std::vector<NodeId> StashCluster::desired_ring_members() const {
  std::vector<NodeId> out;
  for (const NodeId m : dht_.ring().members) {
    if (leaving_.contains(m)) continue;
    // A deregistered ring member is a reverted joiner: it died before its
    // inbound transfers completed, so the next epoch drops it.  (Crashed
    // *established* members stay — failover covers them, and only an
    // explicit decommission removes a member.)
    if (!membership_->is_registered(m)) continue;
    out.push_back(m);
  }
  for (const NodeId j : joining_) {
    if (dht_.ring().contains(j)) continue;
    if (!membership_->is_registered(j)) continue;
    // Admit a joiner only once the front-end's own view believes it alive
    // (the stabilize window then debounces the rest of the convergence).
    if (membership_->state(sim::kFrontendNode, j) != MemberState::kAlive)
      continue;
    out.push_back(j);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void StashCluster::ring_watch_tick() {
  loop_.schedule_background(config_.ring_check_interval,
                            [this] { ring_watch_tick(); });
  std::vector<NodeId> desired = desired_ring_members();
  if (desired == dht_.ring().members || desired.empty()) {
    ring_candidate_ = dht_.ring().members;
    ring_candidate_since_ = loop_.now();
    return;
  }
  if (desired != ring_candidate_) {
    // New candidate: start the stability clock.
    ring_candidate_ = std::move(desired);
    ring_candidate_since_ = loop_.now();
    return;
  }
  if (loop_.now() - ring_candidate_since_ < config_.ring_stabilize_delay)
    return;
  advance_epoch(std::move(desired));
  ring_candidate_ = dht_.ring().members;
  ring_candidate_since_ = loop_.now();
}

void StashCluster::advance_epoch(std::vector<NodeId> members) {
  // Who answers each partition under the OUTGOING epoch + handoffs?  That
  // node keeps answering through the transition: it becomes Move::from
  // wherever ownership shifts.
  std::vector<std::pair<std::string, NodeId>> serving;
  dht_.for_each_partition([&](std::string_view p) {
    std::string key(p);
    NodeId owner = serving_owner(key);
    serving.emplace_back(std::move(key), owner);
  });
  // Supersede in-flight moves: their (epoch, attempt) tags go stale, so
  // every outstanding transfer continuation drops itself on arrival.
  for (auto& [partition, move] : moves_)
    if (move.deadline_timer != 0) loop_.cancel(move.deadline_timer);
  RingView next;
  next.epoch = dht_.epoch() + 1;
  next.members = std::move(members);
  dht_.install(std::move(next));
  counters_.rebalance_epoch_advances.inc();
  std::unordered_map<std::string, Move> planned;
  for (auto& [partition, old_owner] : serving) {
    const NodeId new_owner = dht_.node_for_partition(partition);
    if (new_owner == old_owner) continue;
    Move move;
    move.from = old_owner;
    move.to = new_owner;
    move.epoch = dht_.epoch();
    planned.emplace(partition, move);
  }
  moves_ = std::move(planned);
  for (const auto& [partition, move] : moves_) start_move(partition);
  // A leaver that owned nothing (or whose every move was superseded into
  // a no-op) finishes right away; likewise a joiner with no inbound moves
  // is fully admitted.
  for (auto it = joining_.begin(); it != joining_.end();) {
    const NodeId j = *it;
    bool inbound = false;
    for (const auto& [p, m] : moves_)
      if (m.to == j) {
        inbound = true;
        break;
      }
    if (dht_.ring().contains(j) && !inbound)
      it = joining_.erase(it);
    else
      ++it;
  }
  const std::vector<NodeId> leavers(leaving_.begin(), leaving_.end());
  for (const NodeId l : leavers) maybe_finish_decommission(l);
}

void StashCluster::start_move(const std::string& partition) {
  const auto it = moves_.find(partition);
  if (it == moves_.end()) return;
  Move& move = it->second;
  const std::uint64_t epoch = move.epoch;
  const int attempt = move.attempt;
  const NodeId to = move.to;
  // Retry budget + deadline bound every attempt: a wedged transfer can
  // stall routing for at most max_attempts * transfer_deadline before the
  // partition flips cold.
  move.deadline_timer = loop_.schedule_background_cancellable(
      config_.rebalance_transfer_deadline,
      [this, partition, epoch, attempt] {
        on_move_deadline(partition, epoch, attempt);
      });
  // Donor: the serving owner while it lives; a dead donor fails over to
  // any live ring member (complete cached chunks are content-digested, so
  // any holder is equivalent — and a cold donor just answers "nothing").
  NodeId donor = move.from;
  if (!fault_.alive(donor) || donor == to) {
    donor = to;
    for (const NodeId m : dht_.ring().members)
      if (m != to && fault_.alive(m)) {
        donor = m;
        break;
      }
  }
  if (donor == to || !fault_.alive(to)) return;  // deadline path owns this
  // Kickoff: front-end -> new owner, which then pulls the partition's warm
  // chunks from the donor and reports done.  Every hop but the digest
  // request drops itself once this (epoch, attempt) is superseded.
  send_message(
      sim::kFrontendNode, to, config_.request_bytes,
      [this, partition, epoch, attempt, donor, to] {
        if (!move_current(partition, epoch, attempt)) return;
        pull_warm_chunks(
            to, donor, partition, /*background=*/true,
            [this, partition, epoch, attempt] {
              return move_current(partition, epoch, attempt);
            },
            [this, partition, epoch, attempt, to] {
              send_message(
                  to, sim::kFrontendNode, kAckBytes,
                  [this, partition, epoch, attempt] {
                    complete_move(partition, epoch, attempt);
                  },
                  /*background=*/true);
            });
      },
      /*background=*/true);
}

void StashCluster::on_move_deadline(const std::string& partition,
                                    std::uint64_t epoch, int attempt) {
  if (!move_current(partition, epoch, attempt)) return;
  Move& move = moves_.find(partition)->second;
  move.deadline_timer = 0;
  counters_.rebalance_transfers_aborted.inc();
  // A deregistered target is a reverting joiner: hold the handoff (old
  // owner keeps serving) until the watcher advances the epoch past it.
  if (!membership_->is_registered(move.to)) return;
  if (move.attempt + 1 < kRebalanceMaxAttempts) {
    ++move.attempt;
    start_move(partition);
    return;
  }
  // Attempts exhausted: flip cold.  The ring owner answers from durable
  // storage (never wrong, just unwarmed) and rebuilds warmth on demand.
  flip_move(partition);
}

void StashCluster::complete_move(const std::string& partition,
                                 std::uint64_t epoch, int attempt) {
  if (!move_current(partition, epoch, attempt)) return;
  flip_move(partition);
}

void StashCluster::flip_move(const std::string& partition) {
  const auto it = moves_.find(partition);
  if (it == moves_.end()) return;
  const Move move = it->second;
  if (move.deadline_timer != 0) loop_.cancel(move.deadline_timer);
  moves_.erase(it);  // THE flip: routing now reads the installed ring
  counters_.rebalance_partitions_moved.inc();
  if (joining_.contains(move.to)) {
    bool inbound = false;
    for (const auto& [p, m] : moves_)
      if (m.to == move.to) {
        inbound = true;
        break;
      }
    if (!inbound) joining_.erase(move.to);  // fully admitted
  }
  if (leaving_.contains(move.from)) maybe_finish_decommission(move.from);
}

void StashCluster::maybe_finish_decommission(NodeId id) {
  if (!leaving_.contains(id)) return;
  if (dht_.ring().contains(id)) return;  // epoch has not moved past it yet
  for (const auto& [p, m] : moves_)
    if (m.from == id) return;  // still draining
  leaving_.erase(id);
  // Explicit departure rumor (kLeft out-bids dead): even observers that
  // watched it crash mid-drain converge to "left", never probe it again.
  membership_->leave(id);
  wipe_node(id);
  // Routing hygiene cluster-wide: nobody reroutes to a departed member.
  for (const auto& node : nodes_)
    if (node->id != id && fault_.alive(node->id))
      node->routing.drop_helper(id);
}

void StashCluster::handle_elastic_crash(NodeId id) {
  if (!joining_.contains(id)) return;
  // A joiner died before its handoffs completed: the join is reverted, not
  // failed over.  Deregistering drops it from the desired member set, so
  // the watcher advances the epoch without it; until then the in-flight
  // Move records keep the old owners serving (that IS the revert — routing
  // never pointed at the dead joiner).  Timers are silenced so the
  // deadline path cannot flip a partition cold onto a corpse.
  joining_.erase(id);
  membership_->leave(id);
  for (auto& [partition, move] : moves_) {
    if (move.to != id) continue;
    if (move.deadline_timer != 0) {
      loop_.cancel(move.deadline_timer);
      move.deadline_timer = 0;
    }
    counters_.rebalance_ownership_reverts.inc();
  }
}

void StashCluster::autoscale_tick() {
  loop_.schedule_background(config_.autoscale.eval_interval,
                            [this] { autoscale_tick(); });
  const AutoscalePolicy& policy = config_.autoscale;
  // PR-3 signals: worst queue depth seen across serving members since the
  // previous tick (the high-water mark, so sub-interval bursts count — an
  // instantaneous sample at the tick would miss every queue that built and
  // drained between evaluations), and admission-control sheds since the
  // previous tick.
  std::size_t peak = 0, high_water = 0;
  for (const NodeId m : dht_.ring().members) {
    peak = std::max(peak, nodes_[m]->server.queue_length());
    high_water = std::max(high_water, nodes_[m]->server.peak_queue_length());
  }
  const bool queue_spiked =
      high_water > autoscale_prev_peak_ && high_water >= policy.high_queue;
  autoscale_prev_peak_ = std::max(autoscale_prev_peak_, high_water);
  std::uint64_t shed = 0;
  for (const auto& node : nodes_) shed += node->server.shed_jobs();
  const std::uint64_t shed_delta =
      shed >= autoscale_prev_shed_ ? shed - autoscale_prev_shed_ : 0;
  autoscale_prev_shed_ = shed;
  const bool hot = queue_spiked || shed_delta >= policy.high_shed_delta;
  const bool cold =
      !queue_spiked && peak <= policy.low_queue && shed_delta == 0;
  autoscale_high_ticks_ = hot ? autoscale_high_ticks_ + 1 : 0;
  autoscale_low_ticks_ = cold ? autoscale_low_ticks_ + 1 : 0;
  if (loop_.now() - autoscale_last_action_ < policy.cooldown) return;
  if (rebalance_in_progress()) return;  // let the current move land first
  if (autoscale_high_ticks_ >= policy.hysteresis_ticks) {
    // Scale out: admit the lowest live standby slot.
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (membership_->is_registered(id) || !fault_.alive(id)) continue;
      join_node(id);
      autoscale_last_action_ = loop_.now();
      autoscale_high_ticks_ = 0;
      return;
    }
    return;
  }
  if (autoscale_low_ticks_ >= policy.hysteresis_ticks &&
      dht_.ring().members.size() > policy.min_nodes) {
    // Scale in: drain the highest member back to standby.
    decommission_node(dht_.ring().members.back());
    autoscale_last_action_ = loop_.now();
    autoscale_low_ticks_ = 0;
  }
}

bool StashCluster::suspected(NodeId id) const {
  return suspect_until_[id] > loop_.now();
}

bool StashCluster::node_suspected(NodeId id) const {
  if (id >= suspect_until_.size())
    throw std::out_of_range("StashCluster::node_suspected: bad node id");
  return suspected(id);
}

void StashCluster::suspect(NodeId id) {
  suspect_until_[id] = loop_.now() + config_.suspect_ttl;
}

void StashCluster::absolve(NodeId id) { suspect_until_[id] = kNeverSuspected; }

void StashCluster::send_message(std::uint32_t from, std::uint32_t to,
                                std::size_t bytes,
                                std::function<void()> deliver,
                                bool background) {
  ++messages_sent_;
  if (fault_.should_drop(from, to)) {
    counters_.messages_dropped.inc();
    return;
  }
  const sim::SimTime delay =
      config_.cost.net_transfer(bytes) + fault_.extra_latency(from, to);
  auto action = [this, to, deliver = std::move(deliver)] {
    // A message addressed to a node that died in flight is simply lost;
    // the sender's timeout is the only notification it will ever get.
    if (!fault_.alive(to)) return;
    deliver();
  };
  if (background)
    loop_.schedule_background(delay, std::move(action));
  else
    loop_.schedule(delay, std::move(action));
}

void StashCluster::send_frame(
    std::uint32_t from, std::uint32_t to, std::vector<std::uint8_t> frame,
    std::function<void(std::vector<std::uint8_t>&&)> deliver, bool background,
    int redeliveries_left) {
  // Tamper dice roll at send time (the event loop guarantees a
  // deterministic call order); the tamper mutates a wire copy so a NACKed
  // frame can be retransmitted from the sender's pristine bytes.
  const sim::Tamper tamper = fault_.should_tamper(from, to);
  std::vector<std::uint8_t> wire = frame;
  sim::apply_tamper(tamper, wire);
  const std::size_t bytes = wire.size() + config_.request_bytes;
  send_message(
      from, to, bytes,
      [this, from, to, frame = std::move(frame), wire = std::move(wire),
       deliver = std::move(deliver), background,
       redeliveries_left]() mutable {
        codec::Buffer payload;
        try {
          payload = codec::decode_frame(wire);
        } catch (const codec::IntegrityError&) {
          counters_.frame_integrity_failures.inc();
          if (redeliveries_left <= 0) {
            // Poison message: still corrupt after the redelivery budget.
            // Dropped and counted — never parsed, never crashes, never
            // silently absorbed.
            counters_.poison_messages.inc();
            return;
          }
          counters_.messages_redelivered.inc();
          // NACK back to the sender, which retransmits its pristine copy;
          // the resend is a fresh physical message with fresh dice.
          send_message(
              to, from, kAckBytes,
              [this, from, to, frame = std::move(frame),
               deliver = std::move(deliver), background, redeliveries_left] {
                send_frame(from, to, std::move(frame), std::move(deliver),
                           background, redeliveries_left - 1);
              },
              background);
          return;
        }
        deliver(std::move(payload));
      },
      background);
}

sim::SimTime StashCluster::service_time(const EvalBreakdown& b) const {
  const auto& cost = config_.cost;
  sim::SimTime t = config_.subquery_overhead;
  t += cost.cache_probes(b.cache_probes);
  t += static_cast<sim::SimTime>(b.scan.blocks_touched) * cost.disk_seek;
  t += cost.disk_stream(b.scan.bytes_read);
  t += cost.scan(b.scan.records_scanned);
  t += cost.merge(b.synthesis_merges);
  t += cost.merge(b.cells_from_cache + b.cells_scanned + b.cells_synthesized);
  return t;
}

void StashCluster::record_serve_spans(std::uint64_t query_id,
                                      obs::SpanId parent, NodeId node_id,
                                      const EvalBreakdown& b, bool guest) {
  if (!tracer_.enabled() || parent == obs::kNoSpan) return;
  const auto& cost = config_.cost;
  const sim::SimTime end = loop_.now();
  const sim::SimTime service = service_time(b);
  const obs::SpanId serve = tracer_.record_span(
      query_id, parent, guest ? "serve guest" : "serve", end - service, end);
  tracer_.tag(query_id, serve, "node", std::to_string(node_id));
  tracer_.tag(query_id, serve, "chunks_from_cache",
              std::to_string(b.chunks_from_cache));
  tracer_.tag(query_id, serve, "chunks_synthesized",
              std::to_string(b.chunks_synthesized));
  tracer_.tag(query_id, serve, "chunks_scanned",
              std::to_string(b.chunks_scanned));
  tracer_.tag(query_id, serve, "chunks_missing",
              std::to_string(b.chunks_missing));
  // The stages below replay service_time()'s decomposition term by term, so
  // the children partition [end - service, end] exactly (zero-cost stages
  // are elided — they would be zero-width anyway).
  sim::SimTime t = end - service;
  const auto stage = [&](const char* name, sim::SimTime dur) {
    if (dur <= 0) return;
    tracer_.record_span(query_id, serve, name, t, t + dur);
    t += dur;
  };
  stage("dispatch", config_.subquery_overhead);
  stage("cache_probe", cost.cache_probes(b.cache_probes));
  stage("disk",
        static_cast<sim::SimTime>(b.scan.blocks_touched) * cost.disk_seek +
            cost.disk_stream(b.scan.bytes_read) +
            cost.scan(b.scan.records_scanned));
  stage("rollup", cost.merge(b.synthesis_merges));
  // "cell_merge", not "merge": the front-end gather span owns that name.
  stage("cell_merge",
        cost.merge(b.cells_from_cache + b.cells_scanned + b.cells_synthesized));
}

sim::SimTime StashCluster::maintenance_time(const MaintenanceStats& m) const {
  const auto& cost = config_.cost;
  return cost.cell_inserts(m.cells_absorbed) +
         cost.freshness_updates(m.freshness_updates) +
         cost.cell_inserts(m.cells_evicted / 4);  // eviction is cheaper than insert
}

std::vector<ChunkKey> StashCluster::subquery_chunks(
    const AggregationQuery& query, const std::string& partition) const {
  std::vector<ChunkKey> out;
  const BoundingBox clipped = query.area.intersection(geohash::decode(partition));
  if (!clipped.valid()) return out;
  const int chunk_prec = chunk_spatial_precision(query.res.spatial,
                                                 config_.stash.chunk_precision);
  const auto bins = temporal_covering(query.time, query.res.temporal);
  for (const auto& prefix : geohash::covering(clipped, chunk_prec))
    for (const auto& bin : bins) out.emplace_back(prefix, bin);
  return out;
}

void StashCluster::submit(const AggregationQuery& query, RichCallback done) {
  submit_impl(query, nullptr, std::move(done));
}

void StashCluster::submit(const AggregationQuery& query, Callback done) {
  submit_impl(query, std::move(done), nullptr);
}

void StashCluster::submit_impl(const AggregationQuery& query, Callback done,
                               RichCallback done_rich) {
  if (!query.valid()) throw std::invalid_argument("StashCluster: invalid query");
  const std::uint64_t id = next_query_id_++;
  Pending pending;
  pending.query = query;
  pending.done = std::move(done);
  pending.done_rich = std::move(done_rich);
  pending.stats.query_id = id;
  pending.stats.submitted_at = loop_.now();
  pending.root_span = tracer_.start_trace(id, "query", loop_.now());
  pending.scatter_span =
      tracer_.start_span(id, pending.root_span, "scatter", loop_.now());
  if (config_.query_deadline > 0) {
    pending.deadline = loop_.now() + config_.query_deadline;
    pending.stats.deadline = pending.deadline;
    tracer_.tag(id, pending.root_span, "deadline_us",
                std::to_string(pending.deadline));
  }
  pending.retry_tokens = config_.retry_budget;
  const auto partitions =
      geohash::covering(query.area, config_.partition_prefix_length);
  pending.remaining = partitions.size();
  pending.stats.subqueries = partitions.size();
  pending.subqueries.reserve(partitions.size());
  pending.stats.coverage.reserve(partitions.size());
  for (const auto& partition : partitions) {
    Subquery sq;
    sq.partition = partition;
    pending.subqueries.push_back(std::move(sq));
    PartitionCoverage cov;
    cov.partition = partition;
    cov.served_res = query.res;
    pending.stats.coverage.push_back(std::move(cov));
  }
  pending_.emplace(id, std::move(pending));
  if (config_.query_deadline > 0) {
    pending_.find(id)->second.deadline_timer = loop_.schedule_cancellable(
        config_.query_deadline, [this, id] { on_query_deadline(id); });
  }
  for (std::size_t i = 0; i < partitions.size(); ++i) start_attempt(id, i);
  if (partitions.empty()) {
    // Degenerate covering: complete with an empty payload instead of
    // leaking a Pending entry that quiescence can never drain.
    pending_.find(id)->second.remaining = 1;
    complete_subquery(id);
  }
}

void StashCluster::start_attempt(std::uint64_t query_id, std::size_t idx) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  Subquery& sq = pending.subqueries[idx];
  if (sq.done) return;
  ++sq.attempts;
  const int attempt = sq.attempts;
  if (attempt == 1) {
    sq.span = tracer_.start_span(query_id, pending.scatter_span,
                                 "subquery " + sq.partition, loop_.now());
  }
  if (attempt > 1) {
    counters_.subquery_retries.inc();
    ++pending.stats.retries;
  }
  sq.forwarded_to.reset();

  // Handoff-aware routing: while a rebalance move is in flight the *old*
  // owner keeps answering; the instant the move flips, the ring owner
  // does.  A query racing the flip is answered by whichever side holds the
  // handoff — never neither.
  const NodeId owner = serving_owner(sq.partition);
  NodeId target = owner;
  if (config_.failover_to_successor && !reachable(owner)) {
    // The owner's partition lives on durable storage every node can reach,
    // so the next live ring successor re-scans it from disk.  Liveness is
    // the gossip view plus the timeout circuit breaker: a partitioned or
    // dead owner is routed around before paying a single timeout.
    const std::uint32_t ring_size =
        static_cast<std::uint32_t>(dht_.ring().members.size());
    // k = 0 is the ring owner itself — normally `owner`, but during a
    // handoff it is the pulling side, the best possible failover target.
    for (std::uint32_t k = 0; k < ring_size; ++k) {
      const NodeId candidate = dht_.successor_for_partition(sq.partition, k);
      if (candidate != owner && reachable(candidate)) {
        target = candidate;
        break;
      }
    }
  }
  if (target != owner) {
    counters_.failovers.inc();
    ++pending.stats.failovers;
  }
  sq.target = target;
  sq.attempt_span = tracer_.start_span(
      query_id, sq.span, "attempt " + std::to_string(attempt), loop_.now());
  tracer_.tag(query_id, sq.attempt_span, "target", std::to_string(target));
  if (target != owner)
    tracer_.tag(query_id, sq.attempt_span, "failover", "true");

  // Deadline propagation: an attempt only gets the query's remaining
  // budget, so a retry near the deadline times out (and is reaped by the
  // deadline timer) instead of outliving the query.
  sim::SimTime timeout = config_.subquery_timeout;
  if (pending.deadline != 0) {
    const sim::SimTime remaining = pending.deadline - loop_.now();
    if (remaining <= 0) return;  // the deadline timer owns this cut
    timeout = timeout > 0 ? std::min(timeout, remaining) : remaining;
  }
  if (timeout > 0) {
    sq.timeout = loop_.schedule_cancellable(
        timeout, [this, query_id, idx, attempt] {
          on_subquery_timeout(query_id, idx, attempt);
        });
  }
  // Rerouting to a guest helper only makes sense at the partition's owner:
  // a failover successor serves from storage.
  const bool allow_reroute = target == owner;
  send_message(sim::kFrontendNode, target, config_.request_bytes,
               [this, query_id, idx, attempt, target, allow_reroute] {
                 route_subquery(query_id, idx, attempt, target, allow_reroute);
               });
}

void StashCluster::on_subquery_timeout(std::uint64_t query_id, std::size_t idx,
                                       int attempt) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Subquery& sq = it->second.subqueries[idx];
  if (sq.done || sq.attempts != attempt) return;
  sq.timeout = 0;
  counters_.timeouts_fired.inc();
  handle_attempt_failure(query_id, idx, attempt, "timeout",
                         /*suspect_target=*/true);
}

sim::SimTime StashCluster::retry_delay(int attempts) {
  // Exponential backoff, doubled until the clamp so a large attempt count
  // can never overflow past it (satellite fix: 2^(k-1) * retry_backoff was
  // unbounded).
  sim::SimTime delay = config_.retry_backoff;
  for (int i = 1; i < attempts; ++i) {
    if (config_.max_retry_backoff > 0 && delay >= config_.max_retry_backoff)
      break;
    delay <<= 1;
  }
  if (config_.max_retry_backoff > 0)
    delay = std::min(delay, config_.max_retry_backoff);
  if (config_.retry_jitter > 0.0) {
    const double factor =
        1.0 + config_.retry_jitter * frontend_rng_.uniform(-1.0, 1.0);
    delay = std::max<sim::SimTime>(
        0, static_cast<sim::SimTime>(static_cast<double>(delay) * factor));
  }
  return delay;
}

void StashCluster::handle_attempt_failure(std::uint64_t query_id,
                                          std::size_t idx, int attempt,
                                          const char* reason,
                                          bool suspect_target) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  Subquery& sq = pending.subqueries[idx];
  if (sq.done || sq.attempts != attempt) return;
  if (sq.timeout != 0) {
    loop_.cancel(sq.timeout);
    sq.timeout = 0;
  }
  // At or past the deadline the cut belongs to the deadline timer, which
  // fires at this same instant and reports the whole query honestly.
  if (pending.deadline != 0 && loop_.now() >= pending.deadline) return;
  tracer_.tag(query_id, sq.attempt_span, "outcome", reason);
  tracer_.end_span(query_id, sq.attempt_span, loop_.now());
  if (suspect_target) {
    // Open the circuit breaker: later attempts (and other queries) route
    // around the silent node instead of paying the timeout again.
    suspect(sq.target);
    if (sq.forwarded_to.has_value()) {
      suspect(*sq.forwarded_to);
      // The owner's routing entries point at a helper that went dark:
      // invalidate them so the retry (and every later query) stays local.
      if (fault_.alive(sq.target))
        nodes_[sq.target]->routing.drop_helper(*sq.forwarded_to);
    }
  }
  if (sq.attempts >= config_.subquery_max_attempts) {
    fail_subquery(query_id, idx);
    return;
  }
  const sim::SimTime delay = retry_delay(sq.attempts);
  if (pending.deadline != 0 && loop_.now() + delay >= pending.deadline) {
    // The retry could never answer in time: fail now instead of queueing
    // work whose response nobody will read.
    tracer_.tag(query_id, sq.span, "retry_abandoned", "deadline");
    fail_subquery(query_id, idx);
    return;
  }
  if (config_.retry_budget > 0) {
    // Per-query token bucket: retries beyond the budget are suppressed so
    // they can never multiply offered load past a configured factor (the
    // metastable-retry-storm guard).
    if (pending.retry_tokens < 1.0) {
      counters_.retries_suppressed.inc();
      tracer_.tag(query_id, sq.span, "retry_suppressed", "budget");
      fail_subquery(query_id, idx);
      return;
    }
    pending.retry_tokens -= 1.0;
  }
  loop_.schedule(delay,
                 [this, query_id, idx] { start_attempt(query_id, idx); });
}

void StashCluster::handle_server_pushback(NodeId node_id,
                                          std::uint64_t query_id,
                                          std::size_t idx, int attempt,
                                          sim::Outcome outcome, bool guest) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  Subquery& sq = pending.subqueries[idx];
  if (sq.done || sq.attempts != attempt) return;

  if (outcome == sim::Outcome::kDropped) {
    // The node crashed with our job aboard.  reset() notifying is the
    // whole point of the drop outcome: the front-end reacts immediately
    // (connection-reset semantics) instead of waiting out the timeout.
    suspect(node_id);
    if (sq.forwarded_to.has_value() && *sq.forwarded_to == node_id &&
        fault_.alive(sq.target))
      nodes_[sq.target]->routing.drop_helper(node_id);
    handle_attempt_failure(query_id, idx, attempt, "dropped",
                           /*suspect_target=*/false);
    return;
  }

  const bool shed = outcome == sim::Outcome::kShed;
  if (shed)
    counters_.subqueries_shed.inc();
  else
    counters_.subqueries_expired.inc();
  ++pending.stats.shed_subqueries;
  const char* cause = shed ? "shed" : "expired";
  tracer_.tag(query_id, sq.attempt_span, "pushback", cause);

  // Admission control pushed back.  A coarse cached answer beats both a
  // retry (more load on a node that just said "too busy") and a hole in
  // the result: serve the nearest PLM-complete ancestor level if the node
  // has one.  Guest helpers skip this — their graph holds only the hot
  // Clique, so the owner (via the retry path) is the better bet.
  if (!guest && config_.degraded_answers &&
      config_.mode != SystemMode::Basic && fault_.alive(node_id)) {
    Node& node = *nodes_[node_id];
    auto deg = std::make_shared<DegradedEvaluation>(
        node.engine.evaluate_degraded(sq.partition, pending.query));
    if (deg->found) {
      // Assembling from cache is the cheap path, but not free: charge the
      // PLM probes and per-cell merge before the response leaves the node.
      // It bypasses the worker queue by design — shedding exists precisely
      // so this fallback never waits behind the overload that caused it.
      const sim::SimTime synth =
          config_.cost.cache_probes(deg->eval.breakdown.cache_probes) +
          config_.cost.merge(deg->eval.cells.size());
      const std::size_t bytes =
          deg->eval.cells.size() * config_.response_cell_bytes + 128;
      loop_.schedule(synth, [this, node_id, bytes, query_id, idx, attempt,
                             deg, cause] {
        if (!fault_.alive(node_id)) return;  // died before it could answer
        send_message(node_id, sim::kFrontendNode, bytes,
                     [this, query_id, idx, attempt, deg, cause] {
                       deliver_degraded(query_id, idx, attempt, deg, cause);
                     });
      });
      return;
    }
  }
  // Nothing cached to degrade to: the rejection travels back to the
  // front-end as a cheap NACK and the normal retry machinery takes over.
  send_message(node_id, sim::kFrontendNode, kAckBytes,
               [this, query_id, idx, attempt, cause] {
                 handle_attempt_failure(query_id, idx, attempt, cause,
                                        /*suspect_target=*/false);
               });
}

void StashCluster::deliver_degraded(
    std::uint64_t query_id, std::size_t idx, int attempt,
    const std::shared_ptr<DegradedEvaluation>& deg, const char* cause) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  Subquery& sq = pending.subqueries[idx];
  if (sq.done || sq.attempts != attempt) return;  // late duplicate: ignore
  sq.done = true;
  if (sq.timeout != 0) {
    loop_.cancel(sq.timeout);
    sq.timeout = 0;
  }
  // coarsening_steps == 0 means the node's cache held the *exact* level in
  // full — the shed job would have produced this very answer.
  const bool exact = deg->coarsening_steps == 0;
  tracer_.tag(query_id, sq.attempt_span, "outcome",
              exact ? "ok" : "degraded");
  tracer_.tag(query_id, sq.attempt_span, "cause", cause);
  tracer_.end_span(query_id, sq.attempt_span, loop_.now());
  tracer_.tag(query_id, sq.span, "cells",
              std::to_string(deg->eval.cells.size()));
  tracer_.tag(query_id, sq.span, "attempts", std::to_string(sq.attempts));
  if (!exact) {
    tracer_.tag(query_id, sq.span, "served_res", deg->served_res.to_string());
    tracer_.tag(query_id, sq.span, "coarsening_steps",
                std::to_string(deg->coarsening_steps));
  }
  tracer_.end_span(query_id, sq.span, loop_.now());
  absolve(sq.target);  // the node answered: alive, just busy

  PartitionCoverage& cov = pending.stats.coverage[idx];
  cov.kind = exact ? PartitionCoverage::Kind::kExact
                   : PartitionCoverage::Kind::kDegraded;
  cov.served_res = deg->served_res;
  cov.attempts = sq.attempts;
  if (!exact) {
    ++pending.stats.degraded_subqueries;
    counters_.degraded_subqueries.inc();
  }
  pending.stats.breakdown += deg->eval.breakdown;
  if (config_.discard_payload) {
    pending.stats.result_cells += deg->eval.cells.size();
  } else {
    splice_cells(deg->eval.cells, pending.cells);
  }
  complete_subquery(query_id);
}

void StashCluster::on_query_deadline(std::uint64_t query_id) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.deadline_timer = 0;
  // Gather already complete: the merge event is scheduled at or before the
  // deadline (complete_subquery clamps it), so it lands at this same
  // instant — nothing to cut.
  if (pending.remaining == 0) return;
  counters_.deadline_cut_queries.inc();
  for (std::size_t i = 0; i < pending.subqueries.size(); ++i) {
    Subquery& sq = pending.subqueries[i];
    if (sq.done) continue;
    sq.done = true;
    if (sq.timeout != 0) {
      loop_.cancel(sq.timeout);
      sq.timeout = 0;
    }
    if (sq.attempt_span != obs::kNoSpan) {
      tracer_.tag(query_id, sq.attempt_span, "outcome", "deadline");
      tracer_.end_span(query_id, sq.attempt_span, loop_.now());
    }
    tracer_.tag(query_id, sq.span, "outcome", "deadline");
    tracer_.tag(query_id, sq.span, "attempts", std::to_string(sq.attempts));
    tracer_.end_span(query_id, sq.span, loop_.now());
    ++pending.stats.deadline_subqueries;
    counters_.deadline_cut_subqueries.inc();
    pending.stats.coverage[i].attempts = sq.attempts;  // kind stays kMissing
  }
  // Whatever has arrived is the answer: close the scatter, open a
  // zero-width merge (the budget is spent), and hand the result back *at*
  // the deadline, never after it.
  tracer_.end_span(query_id, pending.scatter_span, loop_.now());
  const std::size_t merged_cells = config_.discard_payload
                                       ? pending.stats.result_cells
                                       : pending.cells.size();
  pending.merge_span =
      tracer_.start_span(query_id, pending.root_span, "merge", loop_.now());
  tracer_.tag(query_id, pending.merge_span, "cells",
              std::to_string(merged_cells));
  tracer_.tag(query_id, pending.root_span, "deadline_cut", "true");
  pending.remaining = 0;
  finalize_query(query_id);
}

void StashCluster::fail_subquery(std::uint64_t query_id, std::size_t idx) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  Subquery& sq = pending.subqueries[idx];
  if (sq.done) return;
  sq.done = true;
  if (sq.timeout != 0) {
    loop_.cancel(sq.timeout);
    sq.timeout = 0;
  }
  ++pending.stats.failed_subqueries;
  counters_.failed_subqueries.inc();
  pending.stats.coverage[idx].attempts = sq.attempts;  // kind stays kMissing
  tracer_.tag(query_id, sq.span, "outcome", "failed");
  tracer_.tag(query_id, sq.span, "attempts", std::to_string(sq.attempts));
  tracer_.end_span(query_id, sq.span, loop_.now());
  complete_subquery(query_id);
}

void StashCluster::route_subquery(std::uint64_t query_id, std::size_t idx,
                                  int attempt, NodeId target,
                                  bool allow_reroute) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  Subquery& sq = pending.subqueries[idx];
  if (sq.done || sq.attempts != attempt) return;
  Node& node = *nodes_[target];

  if (config_.mode == SystemMode::Stash && allow_reroute &&
      !node.routing.empty()) {
    const auto chunks = subquery_chunks(pending.query, sq.partition);
    const auto helper = node.routing.lookup(pending.query.res, chunks,
                                            loop_.now(), config_.stash.routing_ttl);
    // Dispatch-time staleness check: a routing entry pointing at a host
    // the owner's own gossip view no longer considers alive is skipped
    // (and the state handler has usually dropped it already).
    if (helper.has_value() && !suspected(*helper) &&
        membership_->usable(target, *helper) &&
        node.rng.bernoulli(config_.stash.reroute_probability)) {
      counters_.reroutes.inc();
      ++pending.stats.rerouted_subqueries;
      tracer_.tag(query_id, sq.attempt_span, "reroute", std::to_string(*helper));
      sq.forwarded_to = *helper;
      send_message(target, *helper, config_.request_bytes,
                   [this, helper = *helper, owner = target, query_id, idx,
                    attempt] {
                     enqueue_guest(helper, owner, query_id, idx, attempt);
                   });
      return;
    }
  }
  enqueue_local(target, query_id, idx, attempt);
}

void StashCluster::enqueue_local(NodeId node_id, std::uint64_t query_id,
                                 std::size_t idx, int attempt) {
  Node& node = *nodes_[node_id];
  const EvalMode mode = config_.mode == SystemMode::Basic ? EvalMode::Basic
                                                          : EvalMode::Cached;
  const auto pit = pending_.find(query_id);
  const sim::SimTime deadline =
      pit != pending_.end() ? pit->second.deadline : 0;
  auto slot = std::make_shared<Evaluation>();
  auto exec_partial = std::make_shared<bool>(false);
  node.server.submit(
      [this, &node, query_id, idx, attempt, mode, slot,
       exec_partial]() -> sim::SimTime {
        const auto it = pending_.find(query_id);
        if (it == pending_.end()) return 0;
        const Subquery& sq = it->second.subqueries[idx];
        if (sq.done || sq.attempts != attempt) return 0;  // superseded
        // The wall-clock datapath evaluates under the configured
        // host-time budget.  An expired or fault-hit batch comes back
        // partial; the completion below reroutes it through the PR-4
        // pushback taxonomy instead of delivering a half answer.
        exec::ExecOptions exec_opts;
        if (node.exec_engine && config_.exec_deadline_ms > 0)
          exec_opts.deadline_ns = exec::host_now_ns() +
                                  config_.exec_deadline_ms * 1'000'000ull;
        exec::BatchReport exec_report;
        *slot = node.evaluate(sq.partition, it->second.query, mode, exec_opts,
                              &exec_report);
        *exec_partial = !exec_report.complete();
        return service_time(slot->breakdown);
      },
      [this, &node, query_id, idx, attempt, slot,
       exec_partial](sim::Outcome outcome) {
        if (outcome != sim::Outcome::kOk) {
          handle_server_pushback(node.id, query_id, idx, attempt, outcome,
                                 /*guest=*/false);
          return;
        }
        if (*exec_partial) {
          // The wall-clock engine gave up on its deadline (or quarantined
          // a faulted chunk): same taxonomy as a queue-expired job —
          // degraded cached ancestor if resident, else the retry path.
          handle_server_pushback(node.id, query_id, idx, attempt,
                                 sim::Outcome::kDeadlineExceeded,
                                 /*guest=*/false);
          return;
        }
        counters_.subqueries_processed.inc();
        const auto it = pending_.find(query_id);
        if (it == pending_.end()) return;
        const Subquery& sq = it->second.subqueries[idx];
        if (sq.done || sq.attempts != attempt) return;
        subquery_service_us_.observe(
            static_cast<double>(service_time(slot->breakdown)));
        record_serve_spans(query_id, sq.attempt_span, node.id, slot->breakdown,
                           /*guest=*/false);
        // Background maintenance: populate the graph off the response path.
        if (config_.mode != SystemMode::Basic &&
            (!slot->fetched.empty() || !slot->touched_chunks.empty())) {
          const Resolution res = it->second.query.res;
          auto maintenance_slot = slot;
          node.maintenance.submit([this, &node, res,
                                   maintenance_slot]() -> sim::SimTime {
            const MaintenanceStats stats =
                node.absorb(*maintenance_slot, res, loop_.now());
            const sim::SimTime t = maintenance_time(stats);
            counters_.maintenance_tasks.inc();
            counters_.maintenance_time_us.inc(static_cast<std::uint64_t>(t));
            maintenance_service_us_.observe(static_cast<double>(t));
            return t;
          });
        }
        const std::size_t bytes =
            slot->cells.size() * config_.response_cell_bytes + 128;
        send_message(node.id, sim::kFrontendNode, bytes,
                     [this, query_id, idx, attempt, slot]() {
                       deliver_response(query_id, idx, attempt,
                                        std::move(*slot));
                     });
        // Re-check as the queue drains: a *cold* hotspot has nothing to
        // replicate at arrival time, but once maintenance populates the
        // graph a handoff becomes possible.
        maybe_start_handoff(node.id);
      },
      deadline);
  maybe_start_handoff(node_id);
}

void StashCluster::enqueue_guest(NodeId helper_id, NodeId owner_id,
                                 std::uint64_t query_id, std::size_t idx,
                                 int attempt) {
  Node& helper = *nodes_[helper_id];
  const auto pit = pending_.find(query_id);
  const sim::SimTime deadline =
      pit != pending_.end() ? pit->second.deadline : 0;
  auto slot = std::make_shared<Evaluation>();
  helper.server.submit(
      [this, &helper, query_id, idx, attempt, slot]() -> sim::SimTime {
        const auto it = pending_.find(query_id);
        if (it == pending_.end()) return 0;
        const Subquery& sq = it->second.subqueries[idx];
        if (sq.done || sq.attempts != attempt) return 0;
        // Lazily purge idle guest Cliques before serving (§VII-D).
        helper.guest_graph.purge_older_than(loop_.now(), config_.stash.guest_ttl);
        *slot = helper.guest_engine.evaluate_partition(
            sq.partition, it->second.query, EvalMode::CacheOnly);
        return service_time(slot->breakdown);
      },
      [this, &helper, owner_id, query_id, idx, attempt,
       slot](sim::Outcome outcome) {
        if (outcome != sim::Outcome::kOk) {
          handle_server_pushback(helper.id, query_id, idx, attempt, outcome,
                                 /*guest=*/true);
          return;
        }
        counters_.subqueries_processed.inc();
        const auto it = pending_.find(query_id);
        if (it == pending_.end()) return;
        Subquery& sq = it->second.subqueries[idx];
        if (sq.done || sq.attempts != attempt) return;
        subquery_service_us_.observe(
            static_cast<double>(service_time(slot->breakdown)));
        record_serve_spans(query_id, sq.attempt_span, helper.id,
                           slot->breakdown, /*guest=*/true);
        if (slot->breakdown.chunks_missing > 0) {
          // Replica purged or incomplete: fall back to the owning node
          // (no further rerouting to avoid a loop).  The helper answered,
          // so it is no longer the one a timeout should blame.
          counters_.guest_fallbacks.inc();
          tracer_.tag(query_id, sq.attempt_span, "guest_fallback",
                      std::to_string(owner_id));
          sq.forwarded_to.reset();
          send_message(helper.id, owner_id, config_.request_bytes,
                       [this, owner_id, query_id, idx, attempt] {
                         enqueue_local(owner_id, query_id, idx, attempt);
                       });
          return;
        }
        // Keep served guest regions fresh so the TTL purge spares them.
        const Resolution res = it->second.query.res;
        helper.guest_engine.absorb(*slot, res, loop_.now());
        const std::size_t bytes =
            slot->cells.size() * config_.response_cell_bytes + 128;
        send_message(helper.id, sim::kFrontendNode, bytes,
                     [this, query_id, idx, attempt, slot]() {
                       deliver_response(query_id, idx, attempt,
                                        std::move(*slot));
                     });
      },
      deadline);
}

void StashCluster::deliver_response(std::uint64_t query_id, std::size_t idx,
                                    int attempt, Evaluation&& eval) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  Subquery& sq = pending.subqueries[idx];
  if (sq.done || sq.attempts != attempt) return;  // late duplicate: ignore
  sq.done = true;
  if (sq.timeout != 0) {
    loop_.cancel(sq.timeout);
    sq.timeout = 0;
  }
  tracer_.tag(query_id, sq.attempt_span, "outcome", "ok");
  tracer_.end_span(query_id, sq.attempt_span, loop_.now());
  tracer_.tag(query_id, sq.span, "cells", std::to_string(eval.cells.size()));
  tracer_.tag(query_id, sq.span, "attempts", std::to_string(sq.attempts));
  if (!eval.corrupt_blocks.empty()) {
    // A scanned block failed its checksum: the day's records were withheld
    // (never merged, never absorbed), so the answer has an honest hole.
    pending.stats.corrupt_blocks += eval.corrupt_blocks.size();
    tracer_.tag(query_id, sq.span, "corrupt_blocks",
                std::to_string(eval.corrupt_blocks.size()));
  }
  tracer_.end_span(query_id, sq.span, loop_.now());
  // Evidence of life closes the circuit breaker.
  absolve(sq.target);
  if (sq.forwarded_to.has_value()) absolve(*sq.forwarded_to);
  // An exact success refills the retry token bucket (capped at the initial
  // budget): a mostly-healthy query keeps its ability to retry stragglers.
  if (config_.retry_budget > 0)
    pending.retry_tokens =
        std::min(config_.retry_budget,
                 pending.retry_tokens + config_.retry_refill_per_success);
  PartitionCoverage& cov = pending.stats.coverage[idx];
  cov.kind = PartitionCoverage::Kind::kExact;
  cov.served_res = pending.query.res;
  cov.attempts = sq.attempts;

  pending.stats.breakdown += eval.breakdown;
  if (config_.discard_payload) {
    // Cells are disjoint across partitions: counting is exact.
    pending.stats.result_cells += eval.cells.size();
  } else {
    splice_cells(eval.cells, pending.cells);
  }
  complete_subquery(query_id);
}

void StashCluster::complete_subquery(std::uint64_t query_id) {
  const auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  if (--pending.remaining > 0) return;
  // Gather complete: charge the front-end merge + render overhead.  Under
  // a deadline the charge is clamped to the remaining budget — the result
  // is handed back at the deadline at the latest, never after it.
  const std::size_t merged_cells = config_.discard_payload
                                       ? pending.stats.result_cells
                                       : pending.cells.size();
  sim::SimTime finish =
      config_.frontend_overhead + config_.cost.merge(merged_cells);
  if (pending.deadline != 0)
    finish = std::min(
        finish, std::max<sim::SimTime>(0, pending.deadline - loop_.now()));
  // Scatter is over the instant the last subquery drains; the merge span
  // covers the front-end merge + render and ends with the root, so
  // scatter.duration + merge.duration == QueryStats::latency().
  tracer_.end_span(query_id, pending.scatter_span, loop_.now());
  pending.merge_span =
      tracer_.start_span(query_id, pending.root_span, "merge", loop_.now());
  tracer_.tag(query_id, pending.merge_span, "cells",
              std::to_string(merged_cells));
  loop_.schedule(finish, [this, query_id] { finalize_query(query_id); });
}

void StashCluster::finalize_query(std::uint64_t query_id) {
  const auto done_it = pending_.find(query_id);
  if (done_it == pending_.end()) return;
  Pending finished = std::move(done_it->second);
  pending_.erase(done_it);
  if (finished.deadline_timer != 0) loop_.cancel(finished.deadline_timer);
  finished.stats.completed_at = loop_.now();
  if (!config_.discard_payload)
    finished.stats.result_cells = finished.cells.size();
  if (finished.stats.corrupt_blocks > 0) {
    // Corrupt days were withheld, never served wrong: the answer has holes
    // and must say so.
    finished.stats.partial = true;
    counters_.corrupt_queries.inc();
  }
  if (finished.stats.failed_subqueries > 0 ||
      finished.stats.deadline_subqueries > 0)
    finished.stats.partial = true;
  if (finished.stats.partial) counters_.partial_queries.inc();
  if (finished.stats.degraded_subqueries > 0) {
    finished.stats.degraded = true;
    counters_.degraded_queries.inc();
  }
  counters_.queries_completed.inc();
  query_latency_us_.observe(static_cast<double>(finished.stats.latency()));
  tracer_.end_span(query_id, finished.merge_span, loop_.now());
  tracer_.tag(query_id, finished.root_span, "result_cells",
              std::to_string(finished.stats.result_cells));
  tracer_.tag(query_id, finished.root_span, "subqueries",
              std::to_string(finished.stats.subqueries));
  if (finished.stats.partial)
    tracer_.tag(query_id, finished.root_span, "partial", "true");
  if (finished.stats.degraded)
    tracer_.tag(query_id, finished.root_span, "degraded", "true");
  if (finished.stats.corrupt_blocks > 0)
    tracer_.tag(query_id, finished.root_span, "corrupt_blocks",
                std::to_string(finished.stats.corrupt_blocks));
  tracer_.end_span(query_id, finished.root_span, loop_.now());
  if (finished.done) finished.done(finished.stats);
  if (finished.done_rich)
    finished.done_rich(finished.stats, std::move(finished.cells));
}

void StashCluster::maybe_start_handoff(NodeId node_id) {
  if (config_.mode != SystemMode::Stash) return;
  Node& node = *nodes_[node_id];
  if (node.server.queue_length() <= config_.stash.hotspot_queue_threshold) return;
  if (loop_.now() - node.last_handoff < config_.stash.hotspot_cooldown) return;
  // Back off briefly between attempts so a saturated node does not run
  // clique selection on every enqueue.
  if (loop_.now() - node.last_handoff_attempt < 2 * sim::kMillisecond) return;
  node.last_handoff_attempt = loop_.now();

  const CliqueSelector selector(node.graph);
  auto cliques = selector.select_top(loop_.now(),
                                     config_.stash.max_replicated_cells,
                                     config_.stash.max_cliques_per_handoff,
                                     config_.stash.clique_depth);
  // A cold hotspot (nothing cached yet) has nothing to replicate; do not
  // burn the cooldown — retry once maintenance has populated the graph.
  if (cliques.empty()) return;
  node.last_handoff = loop_.now();
  counters_.handoffs_initiated.inc();
  for (auto& clique : cliques) send_distress(node_id, std::move(clique), 0);
}

void StashCluster::send_distress(NodeId hot_id, Clique clique, int attempt) {
  if (attempt > config_.antipode_retries) {
    counters_.distress_rejections.inc();
    return;
  }
  if (!fault_.alive(hot_id)) return;  // the hot node died: abandon the handoff
  Node& hot = *nodes_[hot_id];
  // Antipode selection (§VII-B.3): first try the node owning the region
  // diametrically opposite the Clique; on rejection wander randomly around
  // that antipode.  (HelperPolicy::Neighbor is the related-work ablation:
  // replicate to a node owning an adjacent region instead.)
  std::string target_gh;
  if (config_.helper_policy == HelperPolicy::Antipode) {
    target_gh = geohash::antipode(clique.root.prefix_str());
  } else {
    const auto east =
        geohash::neighbor(clique.root.prefix_str(), geohash::Direction::E);
    target_gh = east.value_or(geohash::antipode(clique.root.prefix_str()));
  }
  for (int i = 0; i < attempt; ++i) {
    const auto neighbors = geohash::neighbors(target_gh);
    target_gh = neighbors[hot.rng.next_below(neighbors.size())];
  }
  const NodeId target = dht_.node_for(target_gh);
  if (target == hot_id) {
    send_distress(hot_id, std::move(clique), attempt + 1);
    return;
  }
  if (suspected(target) || !membership_->usable(hot_id, target)) {
    // Circuit breaker / gossip view: a believed-dead helper is a free
    // NACK — keep wandering instead of paying the handoff timeout.
    send_distress(hot_id, std::move(clique), attempt + 1);
    return;
  }

  // Watchdog for the whole Distress -> Ack -> Replication -> Response
  // round: a dead helper or a lost message is treated as a NACK and the
  // antipode retry continues.
  auto settled = std::make_shared<bool>(false);
  sim::EventLoop::EventId watchdog = 0;
  if (config_.handoff_timeout > 0) {
    watchdog = loop_.schedule_cancellable(
        config_.handoff_timeout,
        [this, hot_id, target, clique, attempt, settled] {
          if (*settled) return;
          *settled = true;
          counters_.timeouts_fired.inc();
          counters_.handoff_timeouts.inc();
          suspect(target);
          if (fault_.alive(hot_id)) {
            nodes_[hot_id]->routing.drop_helper(target);
            send_distress(hot_id, clique, attempt + 1);
          }
        });
  }
  const auto settle = [this, settled, watchdog] {
    *settled = true;
    if (watchdog != 0) loop_.cancel(watchdog);
  };

  // Distress Request: hot -> helper.
  send_message(
      hot_id, target, config_.request_bytes,
      [this, hot_id, target, clique = std::move(clique), attempt, settled,
       settle]() mutable {
        Node& helper = *nodes_[target];
        const bool accept =
            helper.server.queue_length() <=
                config_.stash.hotspot_queue_threshold &&
            helper.guest_graph.total_cells() + clique.cell_count <=
                config_.stash.guest_capacity_cells;
        if (!accept) {
          // Negative acknowledgement: helper -> hot, retry on arrival.
          send_message(target, hot_id, kAckBytes,
                       [this, hot_id, clique = std::move(clique), attempt,
                        settled, settle]() mutable {
                         if (*settled) return;
                         settle();
                         counters_.distress_rejections.inc();
                         send_distress(hot_id, std::move(clique), attempt + 1);
                       });
          return;
        }
        // Positive ack: helper -> hot; on arrival the hot node ships the
        // Clique's Cells, encoded with the real wire codec so transfer
        // time reflects actual bytes.
        send_message(
            target, hot_id, kAckBytes,
            [this, hot_id, target, clique = std::move(clique), settled,
             settle]() mutable {
              if (*settled) return;
              Node& hot_node = *nodes_[hot_id];
              const auto payload = clique_payload(hot_node.graph, clique);
              std::size_t cells = 0;
              for (const auto& c : payload) cells += c.cells.size();
              codec::Buffer wire = codec::encode_replication_frame(payload);
              // Replication Request: hot -> helper, inside a checksummed
              // frame — a bit-flip or tear en route is detected and
              // redelivered, never absorbed into the guest graph.
              send_frame(
                  hot_id, target, std::move(wire),
                  [this, hot_id, target, clique = std::move(clique), cells,
                   settled, settle](codec::Buffer&& bytes) mutable {
                    const auto contributions = decode_or_poison(bytes);
                    if (!contributions) return;
                    Node& helper_node = *nodes_[target];
                    for (const auto& contribution : *contributions)
                      helper_node.guest_graph.absorb(contribution, loop_.now());
                    counters_.cliques_replicated.inc();
                    counters_.cells_replicated.inc(cells);
                    // Replication Response: helper -> hot populates the
                    // routing table (§VII-B.5).
                    send_message(
                        target, hot_id, kAckBytes,
                        [this, hot_id, target, clique = std::move(clique),
                         settled, settle] {
                          if (*settled) return;
                          settle();
                          Node& hot_after = *nodes_[hot_id];
                          for (const auto& member : clique.members)
                            hot_after.routing.add(member.res, member.chunk,
                                                  target, loop_.now());
                        });
                  },
                  /*background=*/false, config_.max_redeliveries);
            });
      });
}

void StashCluster::check_quiescence() const {
#ifdef STASH_AUDIT
  // Satellite guard: every message offered to the network must have rolled
  // the fault injector's drop dice exactly once — a skipped or double
  // should_drop() desynchronizes the deterministic fault stream.
  if (fault_.stats().drop_checks != messages_sent_)
    throw std::logic_error(
        "StashCluster: fault drop_checks (" +
        std::to_string(fault_.stats().drop_checks) + ") != messages sent (" +
        std::to_string(messages_sent_) + ")");
#endif
  if (pending_.empty()) return;
  throw std::runtime_error(
      "StashCluster: " + std::to_string(pending_.size()) +
      " quer(y/ies) survived quiescence — a subquery was lost and never "
      "timed out; enable subquery_timeout or fix the scatter/gather path");
}

QueryStats StashCluster::run_query(const AggregationQuery& query,
                                   CellSummaryMap* cells_out) {
  QueryStats out;
  submit(query, [&out, cells_out](const QueryStats& stats, CellSummaryMap&& cells) {
    out = stats;
    if (cells_out != nullptr) *cells_out = std::move(cells);
  });
  loop_.run();
  check_quiescence();
  return out;
}

std::vector<QueryStats> StashCluster::run_burst(
    const std::vector<AggregationQuery>& queries) {
  std::vector<QueryStats> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    submit(queries[i], [&out, i](const QueryStats& stats) { out[i] = stats; });
  loop_.run();
  check_quiescence();
  return out;
}

std::vector<QueryStats> StashCluster::run_open_loop(
    const std::vector<AggregationQuery>& queries, sim::SimTime interarrival) {
  std::vector<QueryStats> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    loop_.schedule(static_cast<sim::SimTime>(i) * interarrival,
                   [this, &out, i, query = queries[i]] {
                     submit(query, [&out, i](const QueryStats& stats) {
                       out[i] = stats;
                     });
                   });
  }
  loop_.run();
  check_quiescence();
  return out;
}

std::vector<QueryStats> StashCluster::run_sequence(
    const std::vector<AggregationQuery>& queries) {
  std::vector<QueryStats> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    submit(queries[i], [&out, i](const QueryStats& stats) { out[i] = stats; });
    loop_.run();
    check_quiescence();
  }
  return out;
}

const StashGraph& StashCluster::node_graph(NodeId id) const {
  return nodes_.at(id)->graph;
}

const StashGraph& StashCluster::node_guest_graph(NodeId id) const {
  return nodes_.at(id)->guest_graph;
}

const RoutingTable& StashCluster::node_routing(NodeId id) const {
  return nodes_.at(id)->routing;
}

std::size_t StashCluster::node_queue_length(NodeId id) const {
  return nodes_.at(id)->server.queue_length();
}

std::size_t StashCluster::total_cached_cells() const {
  std::size_t total = 0;
  for (const auto& node : nodes_) total += node->graph.total_cells();
  return total;
}

std::size_t StashCluster::total_guest_cells() const {
  std::size_t total = 0;
  for (const auto& node : nodes_) total += node->guest_graph.total_cells();
  return total;
}

AuditReport StashCluster::audit_all(AuditOptions options) const {
  if (!options.now) options.now = loop_.now();
  const GraphAuditor auditor(options);
  AuditReport total;
  for (const auto& node : nodes_) {
    const auto annotate = [&](AuditReport&& report, const char* which) {
      for (auto& v : report.violations)
        v.detail = "node " + std::to_string(node->id) + " " + which + ": " +
                   v.detail;
      total.merge(std::move(report));
    };
    annotate(auditor.audit(node->graph), "graph");
    annotate(auditor.audit(node->guest_graph), "guest");
    annotate(auditor.audit_routing(node->routing,
                                   static_cast<std::uint32_t>(nodes_.size()),
                                   node->id),
             "routing");
  }
  // Epoch-aware membership checks: the installed ring is structurally
  // sound, and every in-flight handoff record agrees with it — planned
  // under the current epoch, genuinely moving (from != to), and pointing
  // at the member the ring says now owns the partition.  Together with the
  // single moves_ map (presence == old owner serves, absence == ring owner
  // serves) this is the no-partition-double-owned / none-lost invariant.
  total.merge(auditor.audit_ring(dht_.ring(),
                                 static_cast<std::uint32_t>(nodes_.size())));
  for (const auto& [partition, move] : moves_) {
    const auto bad = [&](const std::string& why) {
      total.violations.push_back(
          {AuditViolationKind::RingInconsistent,
           "move " + partition + " (" + std::to_string(move.from) + " -> " +
               std::to_string(move.to) + ", epoch " +
               std::to_string(move.epoch) + "): " + why});
    };
    if (move.epoch != dht_.epoch())
      bad("stale epoch (installed " + std::to_string(dht_.epoch()) + ")");
    if (move.from == move.to) bad("does not move ownership");
    if (dht_.node_for_partition(partition) != move.to)
      bad("target is not the installed epoch's owner (" +
          std::to_string(dht_.node_for_partition(partition)) + ")");
  }
  return total;
}

std::size_t StashCluster::preload(const AggregationQuery& query) {
  std::size_t inserted = 0;
  for (const auto& partition :
       geohash::covering(query.area, config_.partition_prefix_length)) {
    // Warm whoever is *serving* the partition — mid-handoff that is still
    // the old owner, and warming anyone else would be wasted work.
    const NodeId owner = serving_owner(partition);
    if (!fault_.alive(owner)) continue;  // a dead node cannot warm its cache
    Node& node = *nodes_[owner];
    const Evaluation eval = node.evaluate(partition, query, EvalMode::Cached);
    inserted += node.absorb(eval, query.res, loop_.now()).cells_absorbed;
  }
  return inserted;
}

void StashCluster::clear_caches() {
  for (auto& node : nodes_) {
    node->mutate_graph([](StashGraph& graph) { graph.clear(); });
    node->guest_graph.clear();
    node->routing.purge(loop_.now() + config_.stash.routing_ttl * 2,
                        config_.stash.routing_ttl);
  }
}

void StashCluster::invalidate_block(const std::string& partition,
                                    std::int64_t day) {
  for (auto& node : nodes_) {
    node->mutate_graph(
        [&](StashGraph& graph) { graph.invalidate_block(partition, day); });
    node->guest_graph.invalidate_block(partition, day);
  }
}

std::uint64_t StashCluster::ingest_update(const std::string& partition,
                                          std::int64_t day) {
  std::uint64_t version = 0;
  mutate_store([&](GalileoStore& store) {
    version = store.ingest_update(BlockKey{partition, day});
  });
  invalidate_block(partition, day);
  return version;
}

}  // namespace stash::cluster
