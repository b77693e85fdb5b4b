// The simulated STASH cluster (paper §VI, §VII, §VIII-A).
//
// Assembles the full system: a 120-node (configurable) cluster where each
// node runs a Galileo block store, a local STASH graph + guest graph, a
// query engine, a routing table, and an 8-worker request server — all on a
// shared deterministic event loop.  A front-end splits each user query
// into per-partition subqueries (scatter), routes them over the zero-hop
// DHT, and merges the Cell summaries (gather).
//
// Hotspot autoscaling (§VII) runs exactly the paper's protocol: pending-
// queue threshold detection, top-Clique selection, antipode helper search
// with Distress/Ack, Replication Request/Response, routing-table
// population, probabilistic rerouting, cooldown, and TTL purging.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/membership.hpp"
#include "common/rng.hpp"
#include "core/audit.hpp"
#include "core/clique.hpp"
#include "core/query_engine.hpp"
#include "core/routing_table.hpp"
#include "dht/partitioner.hpp"
#include "exec/parallel_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/cost_model.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/server.hpp"

namespace stash::cluster {

enum class SystemMode {
  Basic,                // plain Galileo: every query scans disk
  Stash,                // full STASH: caching + dynamic replication
  StashNoReplication,   // STASH caching without hotspot handoff (Fig 6d base)
};

/// Where a hotspotted node looks for Clique helpers (§VII-B.3 vs the
/// nearby-replication strategy of related work [17] — kept for ablation).
enum class HelperPolicy {
  Antipode,   // node owning the diametrically opposite region (the paper)
  Neighbor,   // node owning a lateral neighbor region of the hot Clique
};

/// Metrics-driven elastic scaling (ROADMAP item 4).  Evaluated on a
/// background tick over the PR-3 observability signals: peak server queue
/// depth and admission-control sheds.  Hysteresis (consecutive ticks above
/// or below the watermarks) plus a cooldown between actions keep a bursty
/// workload from flapping the ring.
struct AutoscalePolicy {
  bool enabled = false;
  /// Policy evaluation period.
  sim::SimTime eval_interval = 500 * sim::kMillisecond;
  /// Scale OUT when the peak per-node queue exceeds this...
  std::size_t high_queue = 16;
  /// ...or this many jobs were shed since the previous tick.
  std::uint64_t high_shed_delta = 8;
  /// Scale IN when the peak queue stays at or below this (and nothing shed).
  std::size_t low_queue = 1;
  /// Consecutive ticks a watermark must hold before acting.
  int hysteresis_ticks = 3;
  /// Minimum spacing between scaling actions (lets a rebalance land and
  /// the metrics respond before the next decision).
  sim::SimTime cooldown = 5 * sim::kSecond;
  /// Never scale in below this many ring members.
  std::uint32_t min_nodes = 1;
};

struct ClusterConfig {
  std::uint32_t num_nodes = 120;       // §VIII-A testbed size
  int workers_per_node = 8;            // 8-core Xeon per node
  int partition_prefix_length = 2;     // first 2 geohash characters
  SystemMode mode = SystemMode::Stash;
  StashConfig stash;
  sim::CostModel cost;
  std::uint64_t seed = 0x5354415348ULL;

  // Message sizing for the network cost model.
  std::size_t request_bytes = 256;
  std::size_t response_cell_bytes = 12;   // cell id + requested aggregate
  // (Replication transfers are sized from the real wire codec, not a
  // per-cell constant — see send_distress.)
  /// Front-end parse/render overhead added to every query's latency.
  sim::SimTime frontend_overhead = 1 * sim::kMillisecond;
  /// Per-subquery fixed server-side overhead (dispatch, deserialize).
  sim::SimTime subquery_overhead = 200;   // 0.2 ms
  /// Attempts to find a helper around the antipode before giving up.
  int antipode_retries = 8;
  HelperPolicy helper_policy = HelperPolicy::Antipode;
  /// Throughput-bench mode: count result Cells but do not retain their
  /// summaries at the front-end (bounds memory for 10k-query bursts).
  bool discard_payload = false;

  // --- fault model & degraded operation ---
  /// Scripted faults (node crashes/restarts, message loss, slow links).
  /// An empty plan is a healthy cluster; the request path below still
  /// applies, so a hung subquery can never hang a query.
  sim::FaultPlan fault_plan;
  /// Front-end per-subquery timeout before a retry (0 disables timers —
  /// legacy behavior, hangs if a node dies).  The default is far above any
  /// healthy-path latency so fault-free runs never trip it.
  sim::SimTime subquery_timeout = 300 * sim::kSecond;
  /// Attempts per subquery (first try + retries) before giving up and
  /// completing the query as partial.
  int subquery_max_attempts = 4;
  /// Base delay before retry k is 2^(k-1) * this, +/- retry_jitter.
  sim::SimTime retry_backoff = 5 * sim::kMillisecond;
  /// Uniform jitter fraction applied to the retry backoff (de-synchronizes
  /// retry storms; drawn from the front-end Rng, so still deterministic).
  double retry_jitter = 0.2;
  /// Failover: when a partition's owner is suspected dead, re-scan the
  /// partition from durable storage on the next live DHT successor.
  bool failover_to_successor = true;
  /// How long a timed-out node stays on the suspect list (circuit
  /// breaker: suspected nodes are skipped without paying the timeout).
  sim::SimTime suspect_ttl = 60 * sim::kSecond;
  /// Timeout for one Distress->Ack->Replication->Response handoff round;
  /// expiry is treated as a NACK (the antipode retry continues).
  sim::SimTime handoff_timeout = 5 * sim::kSecond;

  // --- membership & post-crash recovery ---
  /// SWIM-style gossip failure detection (cluster/membership.hpp).  When
  /// enabled (the default) every node and the front-end keep their own
  /// alive/suspect/dead view of the cluster, and that view — not only the
  /// front-end's timeout-driven circuit breaker — gates dispatch,
  /// failover, rerouting, and handoff target selection.  Gossip traffic
  /// rides the normal message path, so it is subject to the same drops,
  /// partitions, and latency as queries.
  MembershipConfig membership;
  /// Anti-entropy cache re-warming after a restart or partition heal: the
  /// rejoining node exchanges compact PLM digests (per-chunk bitmap
  /// hashes) with replica holders and pulls back only the complete chunks
  /// it is missing, over the existing Replication payload path.  A pure
  /// latency optimisation — correctness never depends on it (the durable
  /// store remains the truth).
  bool recovery = true;
  /// Minimum spacing between anti-entropy rounds for one node.
  sim::SimTime recovery_cooldown = 1 * sim::kSecond;

  // --- overload control & graceful degradation ---
  /// Bound on each node server's pending queue (jobs waiting for a
  /// worker); 0 keeps the legacy unbounded queue.  A full queue sheds work
  /// according to admission_policy and the shed job completes immediately
  /// with an explicit outcome — overload becomes visible back-pressure
  /// instead of unbounded queue growth.
  std::size_t queue_limit = 0;
  sim::AdmissionPolicy admission_policy = sim::AdmissionPolicy::kRejectNew;
  /// End-to-end deadline per query (0 = none).  Propagated into every
  /// subquery, retry, and server job: each hop gets only the remaining
  /// budget, and at the deadline the query finalizes with whatever has
  /// arrived (missing partitions reported honestly).
  sim::SimTime query_deadline = 0;
  /// Per-query retry token bucket (0 = unlimited, the legacy behavior).
  /// Each retry spends one token; each exact subquery response refills
  /// retry_refill_per_success tokens (capped at the initial budget), so
  /// retries can never multiply offered load past a configured factor.
  double retry_budget = 0.0;
  double retry_refill_per_success = 0.5;
  /// Clamp on the exponential retry backoff: delay before attempt k+1 is
  /// min(2^(k-1) * retry_backoff, max_retry_backoff), +/- jitter.
  /// 0 disables the clamp (unbounded doubling).
  sim::SimTime max_retry_backoff = 10 * sim::kSecond;
  /// When a subquery is shed or expires in a node's queue, answer it from
  /// the nearest cached PLM-complete ancestor level (coarse but correct)
  /// instead of retrying against a node that just said "too busy".
  bool degraded_answers = true;

  // --- end-to-end data integrity ---
  /// Verify per-block checksums on every storage scan.  A rotted block is
  /// detected, quarantined, and its records withheld (the query completes
  /// as an honest partial); off serves silently-wrong records — only for
  /// demonstrating the baseline checksums exist to prevent.
  bool verify_checksums = true;
  /// Background scrubber period (0 = off).  Each tick verifies the block
  /// table, repairs quarantined blocks from pristine data, and walks one
  /// node's chunk digests against its ring successors over the
  /// anti-entropy path (diverged or rotted cached replicas are dropped and
  /// re-pulled).
  sim::SimTime scrub_interval = 0;
  /// Redelivery budget for a wire frame that fails integrity checks at the
  /// receiver.  Each redelivery is a fresh transmission (fresh corruption
  /// dice); a frame still corrupt after the budget is a poison message and
  /// is dropped (counted, never parsed).
  int max_redeliveries = 2;

  // --- observability ---
  /// Record a TraceSpan tree for every query (obs/trace.hpp).  Spans carry
  /// virtual timestamps, so tracing never perturbs simulated latency; turn
  /// it off only to shave real (wall-clock) overhead in huge benches.
  bool tracing = true;
  /// Completed traces retained (ring buffer; oldest evicted first).
  std::size_t trace_capacity = 256;

  // --- wall-clock execution (src/exec/, ROADMAP item 1) ---
  /// Worker threads per node for the wall-clock parallel datapath.  0
  /// keeps the pure discrete-event mode (node evaluations run inline on
  /// the sim thread).  With N > 0 each node shards its chunk work across
  /// N real threads through concurrency::MpmcRing; the sim stays the
  /// correctness oracle — answers are byte-identical at any thread count
  /// (tests/cluster/exec_cluster_test.cpp), virtual time still measures
  /// the cost model.  Every node gets its own pool, so keep node counts
  /// small when enabling this (examples use 8–32 nodes).
  std::size_t exec_threads = 0;
  /// Per-worker MpmcRing capacity for the exec pools (power of two >= 2).
  std::size_t exec_queue_capacity = 256;
  /// Wall-clock budget (host milliseconds) for one exec subquery
  /// evaluation; 0 = none.  On expiry the engine cancels outstanding
  /// chunks cooperatively and the node answers through the PR-4 pushback
  /// taxonomy (degraded cached ancestor, else honest retry/miss) instead
  /// of blocking the serve path (DESIGN.md §14).
  std::uint64_t exec_deadline_ms = 0;
  /// Seeded thread-level fault injection for the exec pools (inert by
  /// default) — task delays, task exceptions, worker stalls.
  exec::FaultHooks exec_faults;

  // --- elastic membership & ring rebalancing (ROADMAP item 4) ---
  /// Total addressable node slots.  0 (the default) keeps the historical
  /// fixed-size cluster.  When > num_nodes, slots [num_nodes, max_nodes)
  /// are provisioned as *standbys*: they exist (store access, server,
  /// empty caches) but start outside the membership ring (gossip kLeft)
  /// and own nothing until join_node() — or a scripted JoinEvent, or the
  /// autoscaler — admits them.
  std::uint32_t max_nodes = 0;
  /// How often the front-end compares the installed ring against its
  /// gossip view + join/leave intents.
  sim::SimTime ring_check_interval = 200 * sim::kMillisecond;
  /// A changed desired member set must hold stable this long before the
  /// epoch advances (debounces gossip churn mid-convergence).
  sim::SimTime ring_stabilize_delay = 400 * sim::kMillisecond;
  /// Deadline for one warm-transfer attempt of one moved partition; on
  /// expiry the attempt aborts and is retried (fresh attempt tag).
  sim::SimTime rebalance_transfer_deadline = 2 * sim::kSecond;
  /// Metrics-driven scale-out/scale-in (inert by default).
  AutoscalePolicy autoscale;
};

/// Per-partition report of what a query's answer actually contains — the
/// exact-vs-degraded coverage map a visual front-end renders from.
struct PartitionCoverage {
  enum class Kind : std::uint8_t {
    kExact,     // served at the requested resolution
    kDegraded,  // served from a cached coarser ancestor (see served_res)
    kMissing,   // no answer: every attempt failed or the deadline cut it
  };
  std::string partition;
  Kind kind = Kind::kMissing;
  /// The resolution actually served (== the requested resolution unless
  /// kDegraded).  Meaningless for kMissing.
  Resolution served_res;
  int attempts = 0;
};

struct QueryStats {
  /// Cluster-assigned id, usable with StashCluster::trace() to fetch the
  /// query's span tree (and with `stashctl --trace <id>`).
  std::uint64_t query_id = 0;
  sim::SimTime submitted_at = 0;
  sim::SimTime completed_at = 0;
  std::size_t result_cells = 0;
  std::size_t subqueries = 0;
  std::size_t rerouted_subqueries = 0;
  /// Subqueries that exhausted every attempt: their partitions are missing
  /// from the result.
  std::size_t failed_subqueries = 0;
  /// Retries the front-end issued across all subqueries (timeout-driven).
  std::size_t retries = 0;
  /// Subqueries served by a DHT successor because the owner was suspect.
  std::size_t failovers = 0;
  /// Admission-control pushbacks observed (job shed or expired in a node's
  /// queue) across all attempts — may exceed `subqueries` under retries.
  std::size_t shed_subqueries = 0;
  /// Partitions answered from a cached coarser ancestor level.
  std::size_t degraded_subqueries = 0;
  /// Subqueries still in flight when the query deadline fired: their
  /// partitions are missing from the result.
  std::size_t deadline_subqueries = 0;
  /// Storage blocks that failed checksum verification while serving this
  /// query.  Their days are withheld from the result (never wrong, just
  /// absent) and the query is flagged partial; the scrubber repairs them.
  std::size_t corrupt_blocks = 0;
  /// Degraded-but-correct answer: every returned Cell is exact, but one or
  /// more partitions were unreachable and are absent (§VII posture: cached
  /// state is volatile, storage is the truth; never hang, never corrupt).
  /// partial == (failed_subqueries + deadline_subqueries + corrupt_blocks
  /// > 0).
  bool partial = false;
  /// At least one partition was served coarser than requested.  A degraded
  /// query is complete (no holes) but not exact — distinct from partial.
  bool degraded = false;
  /// Absolute deadline this query ran under (0 = none).  The cluster
  /// guarantees completed_at <= deadline when set.
  sim::SimTime deadline = 0;
  /// One entry per partition, in scatter order.
  std::vector<PartitionCoverage> coverage;
  EvalBreakdown breakdown;  // summed over subqueries

  [[nodiscard]] sim::SimTime latency() const noexcept {
    return completed_at - submitted_at;
  }
};

/// Flat counter view kept for compatibility: every field is now backed by a
/// named metric in the cluster's MetricsRegistry (obs/metrics.hpp), and
/// StashCluster::metrics() materializes this struct from those counters.
/// New consumers should prefer metrics_registry().snapshot(), which also
/// carries gauges and latency histograms.
struct ClusterMetrics {
  std::uint64_t queries_completed = 0;
  std::uint64_t subqueries_processed = 0;
  std::uint64_t handoffs_initiated = 0;
  std::uint64_t cliques_replicated = 0;
  std::uint64_t cells_replicated = 0;
  std::uint64_t distress_rejections = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t guest_fallbacks = 0;
  std::uint64_t maintenance_tasks = 0;
  sim::SimTime total_maintenance_time = 0;
  // --- fault / degradation observability ---
  std::uint64_t node_crashes = 0;
  std::uint64_t node_restarts = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t timeouts_fired = 0;      // subquery + handoff timeouts
  std::uint64_t handoff_timeouts = 0;
  std::uint64_t subquery_retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t failed_subqueries = 0;
  std::uint64_t partial_queries = 0;
  // --- overload control & degraded answers ---
  std::uint64_t subqueries_shed = 0;       // admission-control rejections
  std::uint64_t subqueries_expired = 0;    // job deadline expired in a queue
  std::uint64_t degraded_subqueries = 0;   // answered from a coarser ancestor
  std::uint64_t degraded_queries = 0;      // >= 1 degraded partition
  std::uint64_t deadline_cut_subqueries = 0;  // cut by the query deadline
  std::uint64_t deadline_cut_queries = 0;     // finalized by the deadline timer
  std::uint64_t retries_suppressed = 0;    // denied by the retry budget
  // --- membership & anti-entropy recovery ---
  std::uint64_t gossip_probes = 0;        // SWIM pings sent, all observers
  std::uint64_t false_suspicions = 0;     // suspect -> alive refutations seen
  std::uint64_t partitions_observed = 0;  // PartitionEvents activated
  std::uint64_t digests_exchanged = 0;    // PLM digests received by recoverers
  std::uint64_t chunks_rewarmed = 0;      // complete chunks pulled back
  std::uint64_t cells_rewarmed = 0;       // cells carried by those chunks
  std::uint64_t recoveries = 0;           // anti-entropy rounds started
  // --- data integrity ---
  std::uint64_t integrity_checksum_failures = 0;  // storage scans hitting rot
  std::uint64_t blocks_quarantined = 0;     // distinct blocks quarantined
  std::uint64_t blocks_repaired = 0;        // quarantined blocks rewritten
  std::uint64_t frame_integrity_failures = 0;  // wire frames rejected
  std::uint64_t messages_redelivered = 0;   // corrupt frames retransmitted
  std::uint64_t poison_messages = 0;        // frames dropped after the budget
  std::uint64_t messages_corrupted = 0;     // link bit-flips injected
  std::uint64_t messages_truncated = 0;     // link truncations injected
  std::uint64_t corrupt_queries = 0;        // queries flagged by corrupt blocks
  std::uint64_t scrub_cycles = 0;           // scrubber ticks run
  std::uint64_t scrub_repairs = 0;          // blocks repaired by the scrubber
  std::uint64_t replica_divergences = 0;    // cached chunks dropped + re-pulled
  // --- elastic membership & ring rebalancing ---
  std::uint64_t rebalance_partitions_moved = 0;  // ownership flips completed
  std::uint64_t rebalance_transfers_aborted = 0; // warm transfers timed out
  std::uint64_t rebalance_ownership_reverts = 0; // moves undone (joiner died)
  std::uint64_t rebalance_epoch_advances = 0;    // ring epochs installed
};

class StashCluster {
 public:
  StashCluster(ClusterConfig config, std::shared_ptr<const NamGenerator> generator);

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] const sim::EventLoop& loop() const noexcept { return loop_; }
  [[nodiscard]] const ZeroHopDht& dht() const noexcept { return dht_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }
  /// Compatibility view over the registry's counters (built per call).
  [[nodiscard]] ClusterMetrics metrics() const;
  /// The registry behind metrics(): named counters, callback gauges over
  /// live cluster state, and latency histograms — exportable via
  /// obs::to_prometheus / obs::to_json.
  [[nodiscard]] obs::MetricsRegistry& metrics_registry() noexcept {
    return registry_;
  }
  [[nodiscard]] const obs::MetricsRegistry& metrics_registry() const noexcept {
    return registry_;
  }
  /// Per-query span traces (ring of config.trace_capacity).
  [[nodiscard]] const obs::Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] std::optional<obs::Trace> trace(std::uint64_t query_id) const {
    return tracer_.find(query_id);
  }

  using Callback = std::function<void(const QueryStats&)>;
  /// Completion callback that also receives the merged Cell payload (what
  /// the front-end renders).
  using RichCallback = std::function<void(const QueryStats&, CellSummaryMap&&)>;

  /// Submits a query at the current virtual time; `done` fires on
  /// completion.  Does not advance the loop.
  void submit(const AggregationQuery& query, Callback done);
  void submit(const AggregationQuery& query, RichCallback done);

  /// Submits one query and runs the loop to quiescence.  When `cells_out`
  /// is given it receives the merged Cell summaries.  All run_* helpers
  /// throw std::runtime_error if any query survives quiescence — a leaked
  /// Pending entry is a scatter/gather bug, never a silent return.
  QueryStats run_query(const AggregationQuery& query,
                       CellSummaryMap* cells_out = nullptr);

  /// Submits all queries at the current virtual time (a burst) and runs to
  /// quiescence; stats are returned in submission order.
  std::vector<QueryStats> run_burst(const std::vector<AggregationQuery>& queries);

  /// Submits queries one after another (each waits for the previous), as a
  /// single user's exploration session does; runs to quiescence.
  std::vector<QueryStats> run_sequence(const std::vector<AggregationQuery>& queries);

  /// Open-loop arrivals: query i is submitted at now + i * interarrival —
  /// the §VIII-E hotspot traffic shape — then runs to quiescence.
  std::vector<QueryStats> run_open_loop(
      const std::vector<AggregationQuery>& queries, sim::SimTime interarrival);

  // --- node introspection (tests, benches) ---
  [[nodiscard]] const StashGraph& node_graph(NodeId id) const;
  [[nodiscard]] const StashGraph& node_guest_graph(NodeId id) const;
  [[nodiscard]] const RoutingTable& node_routing(NodeId id) const;
  [[nodiscard]] std::size_t node_queue_length(NodeId id) const;
  [[nodiscard]] std::size_t total_cached_cells() const;
  [[nodiscard]] std::size_t total_guest_cells() const;

  /// Audits every node's local graph, guest graph, and routing table with
  /// the GraphAuditor (core/audit.hpp); violation details are prefixed with
  /// the node they came from.  `options.now` defaults to the loop's current
  /// virtual time so freshness timestamps are range-checked.
  [[nodiscard]] AuditReport audit_all(AuditOptions options = {}) const;

  /// Pre-populates every node's cache for the query (the Fig 6a best case)
  /// without going through the network path; returns cells inserted.
  std::size_t preload(const AggregationQuery& query);

  /// Drops all cached state (local and guest graphs, routing tables).
  void clear_caches();

  /// Invalidates one storage block cluster-wide (real-time update model).
  void invalidate_block(const std::string& partition, std::int64_t day);

  /// Real-time ingest (§IV-D): rewrites one block's contents on disk and
  /// invalidates every dependent cached chunk cluster-wide, so the next
  /// query recomputes fresh values.  Returns the block's new version.
  std::uint64_t ingest_update(const std::string& partition, std::int64_t day);

  // --- fault tolerance ---
  /// Fault-injection state (liveness, drop/latency dice, crash counters).
  [[nodiscard]] const sim::FaultInjector& faults() const noexcept { return fault_; }
  /// Is `node` currently up? (false only while a scripted crash is active)
  [[nodiscard]] bool node_alive(NodeId id) const { return fault_.alive(id); }
  /// Is `node` on the front-end's suspect list (circuit breaker open)?
  [[nodiscard]] bool node_suspected(NodeId id) const;
  /// Crashes / restarts a node immediately (outside any scripted plan).
  void crash_node(NodeId id);
  void restart_node(NodeId id);

  // --- membership & recovery ---
  /// The gossip failure detector (never null; inert when
  /// config.membership.enabled is false).
  [[nodiscard]] const GossipMembership& membership() const noexcept {
    return *membership_;
  }
  /// Front-end dispatchability: alive in the front-end's gossip view and
  /// not on the timeout circuit breaker.
  [[nodiscard]] bool reachable(NodeId id) const;
  /// Starts one anti-entropy recovery round for `id` now.  Also runs
  /// automatically on restart and partition heal when config.recovery.
  void recover_node(NodeId id);

  // --- elastic membership & ring rebalancing ---
  /// The currently installed ownership ring (epoch + sorted members).
  [[nodiscard]] const RingView& ring() const noexcept { return dht_.ring(); }
  /// Total addressable node slots (num_nodes, or max_nodes when elastic).
  [[nodiscard]] std::uint32_t total_slots() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  /// Scale out: admit standby slot `id` into the cluster.  It announces
  /// through gossip; once the front-end observes it stable the epoch
  /// advances and moved partitions are pulled onto it (old owners keep
  /// serving until each handoff flips).  Throws on a bad slot; a no-op for
  /// a slot that is already a member or already joining.
  void join_node(NodeId id);
  /// Scale in: gracefully decommission member `id`.  It keeps serving its
  /// partitions while the new owners pull warm state; when its last
  /// outbound move flips, it leaves via an explicit gossip rumor and its
  /// volatile state is wiped.  Throws on a bad slot; no-op if not a member.
  void decommission_node(NodeId id);
  /// The node currently answering for `partition`: the old owner while a
  /// rebalance move is in flight, the ring owner otherwise.  Queries racing
  /// an epoch flip are routed here, so exactly one side answers.
  [[nodiscard]] NodeId serving_owner(const std::string& partition) const;
  /// Any partition still mid-handoff, or any join/leave not yet reflected
  /// in an installed epoch?
  [[nodiscard]] bool rebalance_in_progress() const;
  /// Drives the loop in ring_check_interval slices until no rebalance is in
  /// progress (or `max_wait` virtual time elapses; returns true on quiet).
  /// The rebalance machinery is background traffic, which run-to-quiescence
  /// ignores — tests and drivers settle the ring through this instead.
  bool run_until_stable(sim::SimTime max_wait = 60 * sim::kSecond);

  // --- data integrity ---
  /// The shared durable block store (integrity introspection: quarantine
  /// list, checksum-failure counters).
  [[nodiscard]] const GalileoStore& store() const noexcept { return store_; }
  /// Injects bit-rot into one storage block immediately (outside any
  /// scripted plan) — the storage analogue of crash_node().
  void rot_block(const std::string& partition, std::int64_t day);
  /// Runs one scrubber pass right now (verify + repair + one anti-entropy
  /// walk), regardless of config.scrub_interval.
  void scrub_now();

 private:
  struct Node {
    NodeId id;
    StashGraph graph;
    StashGraph guest_graph;
    QueryEngine engine;
    QueryEngine guest_engine;
    /// Wall-clock parallel datapath over the same graph+store (set when
    /// ClusterConfig::exec_threads > 0).  The members below route through
    /// it so graph reads/writes stay under its RwSpinlock.
    std::unique_ptr<exec::ParallelQueryEngine> exec_engine;
    RoutingTable routing;
    sim::SimServer server;
    sim::SimServer maintenance;
    sim::SimTime last_handoff;
    sim::SimTime last_handoff_attempt;
    Rng rng;

    Node(NodeId node_id, const StashConfig& stash_config,
         const GalileoStore& store, sim::EventLoop& loop,
         const sim::SimServer::Config& server_config, std::uint64_t seed);

    /// One partition subquery over the local graph.  With `report`, the
    /// exec path runs under `options` and reports failures and expiry;
    /// without, a failed chunk rethrows.
    [[nodiscard]] Evaluation evaluate(std::string_view partition,
                                      const AggregationQuery& query,
                                      EvalMode mode,
                                      const exec::ExecOptions& options = {},
                                      exec::BatchReport* report = nullptr) const;
    /// Maintenance pass over the local graph.
    MaintenanceStats absorb(const Evaluation& eval, const Resolution& res,
                            sim::SimTime now) {
      return exec_engine ? exec_engine->absorb(eval, res, now)
                         : engine.absorb(eval, res, now);
    }
    /// Every other local-graph write: past an exec deadline, straggler
    /// chunk tasks may still be reading the graph.
    template <typename Fn>
    decltype(auto) mutate_graph(Fn&& mutate) {
      if (!exec_engine) return mutate(graph);
      return exec_engine->exclusive(
          [&]() -> decltype(auto) { return mutate(graph); });
    }
  };

  /// One scattered subquery's lifecycle across attempts.  Responses and
  /// timeouts are tagged with the attempt number they belong to, so a slow
  /// reply from a superseded attempt can never double-deliver.
  struct Subquery {
    std::string partition;
    NodeId target = 0;                 // node serving the current attempt
    std::optional<NodeId> forwarded_to;  // guest helper, when rerouted
    int attempts = 0;
    sim::EventLoop::EventId timeout = 0;
    bool done = false;
    obs::SpanId span = obs::kNoSpan;          // "subquery <partition>"
    obs::SpanId attempt_span = obs::kNoSpan;  // current "attempt <n>"
  };

  struct Pending {
    AggregationQuery query;
    Callback done;
    RichCallback done_rich;
    std::size_t remaining = 0;
    QueryStats stats;
    CellSummaryMap cells;
    std::vector<Subquery> subqueries;
    /// Absolute deadline (0 = none); mirrored in stats.deadline.
    sim::SimTime deadline = 0;
    /// Fires on_query_deadline at `deadline`; cancelled on early finish.
    sim::EventLoop::EventId deadline_timer = 0;
    /// Remaining retry tokens (config.retry_budget at submit; refilled by
    /// exact responses).  Unused when the budget is 0 (unlimited).
    double retry_tokens = 0.0;
    obs::SpanId root_span = obs::kNoSpan;
    obs::SpanId scatter_span = obs::kNoSpan;
    obs::SpanId merge_span = obs::kNoSpan;
  };

  /// Registry-backed counters, bound once at construction so hot-path
  /// increments never touch the registry lock.  Field-for-field mirror of
  /// the ClusterMetrics compatibility struct.
  struct Counters {
    explicit Counters(obs::MetricsRegistry& reg);
    obs::Counter& queries_completed;
    obs::Counter& subqueries_processed;
    obs::Counter& handoffs_initiated;
    obs::Counter& cliques_replicated;
    obs::Counter& cells_replicated;
    obs::Counter& distress_rejections;
    obs::Counter& reroutes;
    obs::Counter& guest_fallbacks;
    obs::Counter& maintenance_tasks;
    obs::Counter& maintenance_time_us;
    obs::Counter& node_crashes;
    obs::Counter& node_restarts;
    obs::Counter& messages_dropped;
    obs::Counter& timeouts_fired;
    obs::Counter& handoff_timeouts;
    obs::Counter& subquery_retries;
    obs::Counter& failovers;
    obs::Counter& failed_subqueries;
    obs::Counter& partial_queries;
    obs::Counter& subqueries_shed;
    obs::Counter& subqueries_expired;
    obs::Counter& degraded_subqueries;
    obs::Counter& degraded_queries;
    obs::Counter& deadline_cut_subqueries;
    obs::Counter& deadline_cut_queries;
    obs::Counter& retries_suppressed;
    obs::Counter& digests_exchanged;
    obs::Counter& chunks_rewarmed;
    obs::Counter& cells_rewarmed;
    obs::Counter& recoveries;
    obs::Counter& frame_integrity_failures;
    obs::Counter& messages_redelivered;
    obs::Counter& poison_messages;
    obs::Counter& corrupt_queries;
    obs::Counter& scrub_cycles;
    obs::Counter& scrub_repairs;
    obs::Counter& replica_divergences;
    obs::Counter& rebalance_partitions_moved;
    obs::Counter& rebalance_transfers_aborted;
    obs::Counter& rebalance_ownership_reverts;
    obs::Counter& rebalance_epoch_advances;
  };

  /// One entry of an anti-entropy digest: "I hold (res, chunk) complete,
  /// with this PLM bitmap hash".
  struct DigestEntry {
    Resolution res;
    ChunkKey chunk;
    std::uint64_t hash = 0;
  };

  /// One in-flight rebalance handoff: partition ownership moved from ->
  /// to at `epoch`, but routing still points at `from` (the handoff record
  /// — erasing the entry IS the atomic flip).  Transfer messages carry
  /// (epoch, attempt); anything stale is dropped on arrival.
  struct Move {
    NodeId from = 0;
    NodeId to = 0;
    std::uint64_t epoch = 0;
    int attempt = 0;
    sim::EventLoop::EventId deadline_timer = 0;
  };

  void submit_impl(const AggregationQuery& query, Callback done,
                   RichCallback done_rich);
  /// Starts the next attempt of a subquery: picks a target (failing over
  /// past suspected nodes), arms the timeout, and sends the request.
  void start_attempt(std::uint64_t query_id, std::size_t idx);
  void on_subquery_timeout(std::uint64_t query_id, std::size_t idx, int attempt);
  /// Shared failure path for timeouts, NACKed pushbacks, and drops: ends
  /// the attempt, then either schedules a retry (deadline- and
  /// budget-gated) or fails the subquery.
  void handle_attempt_failure(std::uint64_t query_id, std::size_t idx,
                              int attempt, const char* reason,
                              bool suspect_target);
  /// A node server refused or lost a job (shed / expired / dropped):
  /// degrade from its cached ancestors, or NACK back to the front-end.
  void handle_server_pushback(NodeId node_id, std::uint64_t query_id,
                              std::size_t idx, int attempt,
                              sim::Outcome outcome, bool guest);
  /// Front-end receipt of a degraded (coarser-resolution) answer.
  void deliver_degraded(std::uint64_t query_id, std::size_t idx, int attempt,
                        const std::shared_ptr<DegradedEvaluation>& deg,
                        const char* cause);
  /// Deadline timer: cuts every unfinished subquery and finalizes the
  /// query with whatever has arrived, exactly at the deadline.
  void on_query_deadline(std::uint64_t query_id);
  /// Erases the Pending entry, stamps stats, fires callbacks.
  void finalize_query(std::uint64_t query_id);
  /// Backoff before attempt `attempts`+1: exponential, clamped at
  /// max_retry_backoff, jittered from the front-end Rng.
  [[nodiscard]] sim::SimTime retry_delay(int attempts);
  void fail_subquery(std::uint64_t query_id, std::size_t idx);
  void route_subquery(std::uint64_t query_id, std::size_t idx, int attempt,
                      NodeId target, bool allow_reroute);
  void enqueue_local(NodeId node_id, std::uint64_t query_id, std::size_t idx,
                     int attempt);
  void enqueue_guest(NodeId helper_id, NodeId owner_id, std::uint64_t query_id,
                     std::size_t idx, int attempt);
  void deliver_response(std::uint64_t query_id, std::size_t idx, int attempt,
                        Evaluation&& eval);
  /// Gather step shared by success and failure: decrements `remaining` and
  /// schedules the front-end merge when the scatter has fully drained.
  void complete_subquery(std::uint64_t query_id);
  void maybe_start_handoff(NodeId node_id);
  void send_distress(NodeId hot_id, Clique clique, int attempt);
  /// Sends one message over the (faulty) network: rolls the drop dice,
  /// adds link latency, and delivers only if the destination is alive.
  /// Background messages (gossip) interleave in time order but never keep
  /// the loop's run-to-quiescence alive.
  void send_message(std::uint32_t from, std::uint32_t to, std::size_t bytes,
                    std::function<void()> deliver, bool background = false);
  /// Sends a checksummed frame over the (faulty, now also corrupting)
  /// network.  The fault injector may flip a bit or tear the wire copy;
  /// the receiver validates the frame and hands `deliver` the verified
  /// payload bytes.  A frame failing validation is NACKed back and
  /// retransmitted from the sender's pristine copy up to
  /// `redeliveries_left` times; after that it is a poison message —
  /// counted and dropped, never parsed, never crashing the receiver.
  void send_frame(std::uint32_t from, std::uint32_t to,
                  std::vector<std::uint8_t> frame,
                  std::function<void(std::vector<std::uint8_t>&&)> deliver,
                  bool background, int redeliveries_left);
  /// One scrubber pass: storage verify + repair, then one round-robin
  /// anti-entropy digest walk.  Self-reschedules when scrub_interval > 0.
  void scrub_tick(bool reschedule);
  /// One anti-entropy round: drops unusable routing entries, then digest
  /// exchange + chunk pull against replica-holding ring successors.
  void start_recovery(NodeId id);
  /// Complete-chunk digest of `holder`'s graphs (local + guest) restricted
  /// to chunks overlapping any of `partitions` — the comparison unit of
  /// every warm-chunk transfer.
  [[nodiscard]] std::vector<DigestEntry> warm_digest(
      NodeId holder, const std::vector<std::string>& partitions) const;
  /// Decodes a verified Replication payload.  A checksum-valid but
  /// structurally bad payload is counted as poison and yields nullopt.
  [[nodiscard]] std::optional<std::vector<ChunkContribution>> decode_or_poison(
      const std::vector<std::uint8_t>& verified);
  /// The one warm-chunk transfer (anti-entropy recovery, the scrubber and
  /// elastic rebalance): digest request to `donor`, digest response, diff
  /// (drop a diverged complete chunk, skip a partial one, cap the pull),
  /// pull request, checksummed frame, decode, absorb into `to`'s graph.
  /// The digest covers `partition`, or — when nullopt — every partition
  /// `to` owns when the donor builds it.  `current` (if set) is checked on
  /// arrival of every hop after the digest request; a false answer drops
  /// the transfer.  `done` (if set) runs at `to` once nothing is left to
  /// pull, the donor acked an empty payload, or the frame was absorbed.
  void pull_warm_chunks(NodeId to, NodeId donor,
                        std::optional<std::string> partition, bool background,
                        std::function<bool()> current,
                        std::function<void()> done);
  // --- elastic membership & ring rebalancing ---
  /// Arms the ring watcher (and autoscaler, if enabled) exactly once.
  /// Called from the ctor for elastic configs, and lazily from
  /// join_node/decommission_node so programmatic scaling works on a
  /// cluster that was constructed fixed-size.
  void ensure_elastic();
  /// Front-end ring watcher tick: computes the desired member set, waits
  /// for it to hold stable (ring_stabilize_delay), then advances the epoch.
  void ring_watch_tick();
  /// Desired ring = current members, minus leavers and crashed joiners,
  /// plus joiners the front-end's gossip view believes alive.
  [[nodiscard]] std::vector<NodeId> desired_ring_members() const;
  /// Installs `members` as a new epoch and (re)plans one Move per
  /// partition whose serving owner changes; supersedes any in-flight moves.
  void advance_epoch(std::vector<NodeId> members);
  /// Starts (or retries) the warm transfer for one moved partition: the
  /// new owner pulls complete chunks from a live donor over the
  /// anti-entropy digest/pull path, then reports done to the front-end.
  void start_move(const std::string& partition);
  /// Transfer deadline: aborts the attempt and retries, or flips cold
  /// after the last attempt.
  void on_move_deadline(const std::string& partition, std::uint64_t epoch,
                        int attempt);
  /// Front-end receipt of a completed transfer: the atomic flip.
  void complete_move(const std::string& partition, std::uint64_t epoch,
                     int attempt);
  /// Stale-transfer guard: is this (partition, epoch, attempt) still the
  /// live move?  Every transfer continuation checks before acting.
  [[nodiscard]] bool move_current(const std::string& partition,
                                  std::uint64_t epoch, int attempt) const;
  /// Shared flip bookkeeping (warm or cold): erase the handoff record,
  /// count it, and settle any decommission/join waiting on it.
  void flip_move(const std::string& partition);
  /// A decommissioning member's last outbound move flipped: gossip the
  /// explicit departure, wipe it, and drop routing entries to it.
  void maybe_finish_decommission(NodeId id);
  /// Crash handler hook: a joiner died mid-rebalance — revert its inbound
  /// moves to their old owners and let the watcher advance past it.
  void handle_elastic_crash(NodeId id);
  /// Autoscaler tick: watermark + hysteresis + cooldown over PR-3 metrics.
  void autoscale_tick();
  [[nodiscard]] bool suspected(NodeId id) const;
  void suspect(NodeId id);
  void absolve(NodeId id);
  void wipe_node(NodeId id);  // crash handler: volatile state only
  /// Runs `mutate(store_)` under every node's exec writer lock (from node
  /// `from` on): straggler chunk tasks scan the block table too.
  template <typename Fn>
  void mutate_store(Fn&& mutate, std::size_t from = 0);
  /// Throws if a Pending entry survived quiescence (satellite guard).
  void check_quiescence() const;
  [[nodiscard]] sim::SimTime service_time(const EvalBreakdown& b) const;
  [[nodiscard]] sim::SimTime maintenance_time(const MaintenanceStats& m) const;
  [[nodiscard]] std::vector<ChunkKey> subquery_chunks(
      const AggregationQuery& query, const std::string& partition) const;
  /// Registers the callback gauges/counters computed over live node state
  /// (cached cells, queue lengths, per-node graph stats) at snapshot time.
  void register_callback_metrics();
  /// Records the "serve" span and its dispatch/cache-probe/disk/roll-up/
  /// merge children for one executed subquery attempt.  The children
  /// partition [end - service_time(b), end] exactly (tests rely on it).
  void record_serve_spans(std::uint64_t query_id, obs::SpanId parent,
                          NodeId node_id, const EvalBreakdown& b, bool guest);

  ClusterConfig config_;
  sim::EventLoop loop_;
  ZeroHopDht dht_;
  sim::FaultInjector fault_;
  std::shared_ptr<const NamGenerator> generator_;
  GalileoStore store_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  /// Per-node circuit breaker: while now < suspect_until the front-end
  /// routes around the node instead of paying the timeout again.
  std::vector<sim::SimTime> suspect_until_;
  /// SWIM gossip views (constructed in the ctor body so its transport can
  /// capture `this`).
  std::unique_ptr<GossipMembership> membership_;
  /// Last anti-entropy round per node (recovery_cooldown gate).
  std::vector<sim::SimTime> last_recovery_;
  /// Messages offered to the network; STASH_AUDIT asserts the fault
  /// injector rolled its drop dice exactly once for each.
  std::uint64_t messages_sent_ = 0;
  Rng frontend_rng_;  // retry jitter only: node Rngs stay untouched
  // --- elastic membership & ring rebalancing state (front-end owned) ---
  /// True when any elastic machinery is active (standby slots, a scripted
  /// join/decommission, or the autoscaler).  False keeps legacy runs
  /// bit-identical: no watcher ticks, no extra dice, no behavior change.
  bool elastic_ = false;
  /// Set by ensure_elastic(): the watcher/autoscaler timers are armed.
  bool elastic_armed_ = false;
  /// In-flight handoffs keyed by partition.  Presence == routing still
  /// points at Move::from; erasure == the flip.  Only unflipped moves live
  /// here, so serving_owner() is one hash probe.
  std::unordered_map<std::string, Move> moves_;
  /// Slots admitted but still receiving their first inbound transfers.  A
  /// crash while in this set reverts the join instead of failing over.
  std::unordered_set<NodeId> joining_;
  /// Members draining outbound moves before their explicit gossip leave.
  std::unordered_set<NodeId> leaving_;
  /// Ring-watcher debounce: the candidate member set and when it was first
  /// observed (epoch advances only after ring_stabilize_delay of stability).
  std::vector<NodeId> ring_candidate_;
  sim::SimTime ring_candidate_since_ = 0;
  // Autoscaler hysteresis state.
  int autoscale_high_ticks_ = 0;
  int autoscale_low_ticks_ = 0;
  sim::SimTime autoscale_last_action_ = std::numeric_limits<sim::SimTime>::min() / 2;
  std::uint64_t autoscale_prev_shed_ = 0;
  /// Queue high-water mark already accounted for by a previous evaluation
  /// tick: only *growth* past it counts as fresh overload pressure.
  std::size_t autoscale_prev_peak_ = 0;
  /// Next node the scrubber's anti-entropy walk visits (round-robin).
  std::uint32_t scrub_cursor_ = 0;
  std::uint64_t next_query_id_ = 0;
  obs::MetricsRegistry registry_;
  obs::Tracer tracer_;
  Counters counters_;
  obs::Histogram& query_latency_us_;
  obs::Histogram& subquery_service_us_;
  obs::Histogram& maintenance_service_us_;
};

}  // namespace stash::cluster
