#include "exec/parallel_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <set>
#include <utility>

#include "concurrency/cancellation.hpp"
#include "concurrency/wakeup_gate.hpp"
#include "exec/host_clock.hpp"
#include "geo/geohash.hpp"

namespace stash::exec {

namespace {

// Chunk lifecycle, published by the thread that ran the chunk and read by
// the collecting submitter.
constexpr std::uint32_t kChunkPending = 0;
constexpr std::uint32_t kChunkDone = 1;
constexpr std::uint32_t kChunkCancelled = 2;
constexpr std::uint32_t kChunkFailed = 3;

/// CancelProbe adapter over the batch token (between-cells checks).
class TokenProbe final : public CancelProbe {
 public:
  explicit TokenProbe(const concurrency::CancellationToken& token) noexcept
      : token_(token) {}
  [[nodiscard]] bool cancelled() const noexcept override {
    return token_.cancelled();
  }

 private:
  const concurrency::CancellationToken& token_;
};

}  // namespace

/// Everything one batch fans out over, owned by shared_ptr: the submitter
/// may return at its deadline while straggler claim tasks still hold a
/// reference, so nothing here can live on the submitting thread's stack.
struct ParallelQueryEngine::BatchState {
  struct Part {
    std::string partition;
    QueryEngine::PartitionPlan plan;
    std::size_t first = 0;  // index of this partition's first chunk/outcome
  };
  struct ChunkOutcome {
    CellSummaryMap cells;
    ChunkEvalResult result;
    std::exception_ptr error;
  };

  AggregationQuery query;
  EvalMode mode;
  std::vector<Part> parts;
  /// part_of[i] = index into parts; the chunk is plan.chunks[i - first].
  std::vector<std::size_t> part_of;
  std::vector<ChunkOutcome> outcomes;
  std::unique_ptr<concurrency::catomic<std::uint32_t>[]> chunk_state;
  /// Fault-hook sequence number of chunk 0; chunk i is seq_base + i, so a
  /// chunk's fault schedule does not depend on other submitters.
  std::uint64_t seq_base = 0;
  concurrency::CancellationToken token;
  /// Rung after every chunk and every claim-task exit.
  concurrency::WakeupGate done;
  /// Claim cursor: the next chunk index nobody has taken yet.
  concurrency::catomic<std::uint64_t> next;
  /// Claim tasks submitted to the pool that have not exited yet.
  concurrency::catomic<std::uint64_t> live;

  BatchState(AggregationQuery q, EvalMode m, std::vector<Part> p)
      : query(std::move(q)),
        mode(m),
        parts(std::move(p)),
        next(0, "exec.batch_next"),
        live(0, "exec.batch_live") {
    for (std::size_t pi = 0; pi < parts.size(); ++pi) {
      parts[pi].first = part_of.size();
      part_of.resize(part_of.size() + parts[pi].plan.chunks.size(), pi);
    }
    const std::size_t n = part_of.size();
    outcomes.resize(n);
    chunk_state =
        std::make_unique<concurrency::catomic<std::uint32_t>[]>(n);
  }

  [[nodiscard]] std::size_t size() const noexcept { return outcomes.size(); }

  /// Takes the next unclaimed chunk; size() when every chunk is taken.
  [[nodiscard]] std::size_t claim() {
    const std::uint64_t i = next.fetch_add(1);
    return i < size() ? static_cast<std::size_t>(i) : size();
  }
};

namespace {

/// Where an Evaluation stood before a partition's first fold, so a
/// partition that turns out incomplete can be taken back out exactly.
struct FoldMark {
  EvalBreakdown breakdown;
  std::size_t touched_chunks = 0;
  std::size_t fetched = 0;
  std::size_t corrupt_blocks = 0;

  explicit FoldMark(const Evaluation& eval)
      : breakdown(eval.breakdown),
        touched_chunks(eval.touched_chunks.size()),
        fetched(eval.fetched.size()),
        corrupt_blocks(eval.corrupt_blocks.size()) {}

  /// Erasing by key is exact: a cell belongs to exactly one chunk, so no
  /// key of `cells` was merged into one folded before the mark.
  void rollback(Evaluation& eval, const std::vector<CellKey>& cells) const {
    for (const CellKey& key : cells) eval.cells.erase(key);
    eval.breakdown = breakdown;
    eval.touched_chunks.resize(touched_chunks);
    eval.fetched.erase(
        eval.fetched.begin() + static_cast<std::ptrdiff_t>(fetched),
        eval.fetched.end());
    eval.corrupt_blocks.resize(corrupt_blocks);
  }
};

}  // namespace

ParallelQueryEngine::ParallelQueryEngine(StashGraph& graph,
                                        const GalileoStore& store,
                                        ExecConfig config)
    : engine_(graph, store),
      config_(config),
      task_seq_(0, "exec.task_seq"),
      deadline_exceeded_(0, "exec.deadline_exceeded"),
      cancelled_chunks_(0, "exec.cancelled_chunks"),
      task_exceptions_(0, "exec.task_exceptions"),
      pool_(concurrency::WorkerPool::Config{
          config.threads, config.queue_capacity, config.drain_on_shutdown,
          config.watchdog_interval_ns, &host_now_ns}) {}

ParallelQueryEngine::~ParallelQueryEngine() = default;

void ParallelQueryEngine::run_chunk(BatchState& state,
                                    std::size_t index) const {
  BatchState::ChunkOutcome& out = state.outcomes[index];
  std::uint32_t final_state = kChunkDone;
  if (state.token.cancelled()) {
    final_state = kChunkCancelled;
  } else {
    const std::uint64_t task_seq = state.seq_base + index;
    try {
      const FaultDecision fault = fault_decision(config_.faults, task_seq);
      if (fault.throw_exception) throw InjectedFault(task_seq);
      if (fault.stall)
        fault_busy_spin(config_.faults.worker_stall_spins);
      else if (fault.delay)
        fault_busy_spin(config_.faults.task_delay_spins);

      const BatchState::Part& part = state.parts[state.part_of[index]];
      const ChunkKey& chunk = part.plan.chunks[index - part.first];
      const TokenProbe probe(state.token);
      concurrency::RwSpinReaderLock lock(graph_lock_);
      out.result =
          engine_.evaluate_chunk(part.partition, state.query,
                                 part.plan.clipped, chunk, state.mode,
                                 out.cells, &probe);
      if (out.result.cancelled) {
        out.cells.clear();  // a half-scanned chunk is not an honest answer
        final_state = kChunkCancelled;
      }
    } catch (...) {
      out.error = std::current_exception();
      final_state = kChunkFailed;
    }
  }
  if (final_state == kChunkCancelled)
    cancelled_chunks_.fetch_add(1);
  else if (final_state == kChunkFailed)
    task_exceptions_.fetch_add(1);
  // The store publishes the outcome (a chunk observed settled has its
  // cells/result fully visible) and is seq_cst because, with the gate's
  // fences, it is one half of the Dekker pair the collector's park relies
  // on.  The collector may be parked on this very chunk, so every chunk
  // rings the gate, not only the last.
  state.chunk_state[index].store(final_state);
  state.done.notify_all();
}

void ParallelQueryEngine::run_claimed(BatchState& state) const {
  for (std::size_t i = state.claim(); i < state.size(); i = state.claim())
    run_chunk(state, i);
}

void ParallelQueryEngine::fan_out(
    const std::shared_ptr<BatchState>& state) const {
  const std::size_t tasks = std::min(state->size(), pool_.worker_count());
  state->live.store(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    concurrency::WorkerPool::Task task = [this, state] {
      run_claimed(*state);
      state->live.fetch_sub(1);
      state->done.notify_all();
    };
    if (!pool_.try_submit(task)) {
      // Every ring full (counted as submit_shed): the tasks not submitted
      // will not run, and the collecting submitter claims their chunks.
      state->live.fetch_sub(tasks - t);
      return;
    }
  }
}

Evaluation ParallelQueryEngine::collect(BatchState& state,
                                        std::uint64_t deadline_ns,
                                        BatchReport& report) const {
  const bool timed = deadline_ns != 0;
  const auto expired = [deadline_ns] { return host_now_ns() >= deadline_ns; };
  bool gave_up = false;

  // Past the deadline: cancel the batch and run every still-unclaimed
  // chunk through run_chunk's cancelled fast path, so each chunk still
  // ends in exactly one state.  cancel() is claim-once: a cancel that
  // raced us neither re-publishes nor double-counts.
  const auto give_up = [&] {
    if (state.token.cancel(concurrency::CancelReason::kDeadline, deadline_ns))
      deadline_exceeded_.fetch_add(1);
    run_claimed(state);
    gave_up = true;
  };

  // One park on the batch gate unless `ready()` already holds: prepare /
  // re-check / commit, the protocol proven in tests/mc/.  False when the
  // deadline ended the wait.
  const auto park = [&](const auto& ready) {
    const concurrency::WakeupGate::Ticket ticket = state.done.prepare_wait();
    if (ready()) {
      state.done.cancel_wait();
      return true;
    }
    if (!timed) {
      state.done.commit_wait(ticket);
      return true;
    }
    return state.done.commit_wait_until(ticket, expired);
  };

  // Chunk i's final state.  While it is pending the submitter runs
  // unclaimed chunks itself, and only when none are left parks until the
  // chunk settles.  After giving up, a chunk still pending is a straggler.
  const auto settle = [&](std::size_t i) {
    const auto settled = [&] {
      return state.chunk_state[i].load() != kChunkPending;
    };
    while (!settled() && !gave_up) {
      if (timed && expired())
        give_up();
      else if (const std::size_t k = state.claim(); k < state.size())
        run_chunk(state, k);
      else
        (void)park(settled);
    }
    return state.chunk_state[i].load();
  };

  // Fold in canonical (partition, chunk) order as each chunk settles —
  // the sequential engine's fold, fed the same chunks in the same order,
  // which is what makes the two engines' answers identical.  No
  // half-partition answers: a partition with a chunk that did not
  // complete is taken back out whole and named.
  report.chunks_total = state.size();
  Evaluation total;
  std::set<std::int64_t> partition_days;
  std::vector<CellKey> partition_cells;  // folded so far, for a rollback
  for (const BatchState::Part& part : state.parts) {
    const std::size_t count = part.plan.chunks.size();
    const FoldMark mark(total);
    partition_days.clear();
    partition_cells.clear();
    bool whole = true;
    for (std::size_t j = 0; j < count; ++j) {
      BatchState::ChunkOutcome& out = state.outcomes[part.first + j];
      const std::uint32_t s = settle(part.first + j);
      if (s == kChunkDone) {
        ++report.chunks_completed;
        if (!whole) continue;
        if (j + 1 < count)
          for (const auto& cell : out.cells)
            partition_cells.push_back(cell.first);
        QueryEngine::fold_chunk(total, partition_days, part.plan.chunks[j],
                                std::move(out.result), &out.cells);
        continue;
      }
      if (s == kChunkFailed) {
        ++report.chunks_failed;
        if (!report.first_error) report.first_error = out.error;
      } else {  // cancelled, or a straggler still pending past the deadline
        ++report.chunks_cancelled;
      }
      if (whole) mark.rollback(total, partition_cells);
      whole = false;
    }
    if (!whole) report.incomplete_partitions.push_back(part.partition);
  }

  // Join: without an expired deadline, no claim task of this batch is
  // still live when the answer returns.  They have nothing left to
  // claim, so this only waits for the pool to pick them up; a deadline
  // that runs out here returns the finished fold without them.
  const auto joined = [&] { return state.live.load() == 0; };
  while (!gave_up && !joined() && park(joined)) {
  }
  return total;
}

Evaluation ParallelQueryEngine::evaluate_partition(
    std::string_view partition, const AggregationQuery& query,
    EvalMode mode) const {
  BatchReport report;
  Evaluation eval = evaluate_partition(partition, query, mode, {}, report);
  // Legacy contract: without a deadline every chunk runs; the only
  // possible incompleteness is a throwing chunk, which rethrows here.
  if (report.first_error) std::rethrow_exception(report.first_error);
  return eval;
}

Evaluation ParallelQueryEngine::evaluate_partition(
    std::string_view partition, const AggregationQuery& query, EvalMode mode,
    const ExecOptions& options, BatchReport& report) const {
  engine_.validate(query);
  return run(query, mode, {std::string(partition)}, options, report);
}

Evaluation ParallelQueryEngine::evaluate(const AggregationQuery& query,
                                         EvalMode mode) const {
  BatchReport report;
  Evaluation eval = evaluate(query, mode, {}, report);
  if (report.first_error) std::rethrow_exception(report.first_error);
  return eval;
}

Evaluation ParallelQueryEngine::evaluate(const AggregationQuery& query,
                                         EvalMode mode,
                                         const ExecOptions& options,
                                         BatchReport& report) const {
  engine_.validate(query);
  return run(query, mode,
             geohash::covering(query.area,
                               engine_.store().partition_prefix_length()),
             options, report);
}

Evaluation ParallelQueryEngine::run(const AggregationQuery& query,
                                    EvalMode mode,
                                    const std::vector<std::string>& partitions,
                                    const ExecOptions& options,
                                    BatchReport& report) const {
  // Plan every partition first so the whole query fans out as one batch —
  // the partition order here is the canonical fold order.
  std::vector<BatchState::Part> parts;
  for (const auto& partition : partitions) {
    BatchState::Part part{partition, engine_.plan_partition(partition, query),
                          0};
    if (!part.plan.empty) parts.push_back(std::move(part));
  }
  auto state = std::make_shared<BatchState>(query, mode, std::move(parts));
  state->seq_base = task_seq_.fetch_add(state->size());
  if (options.deadline_ns == 0 || host_now_ns() < options.deadline_ns)
    fan_out(state);
  Evaluation eval = collect(*state, options.deadline_ns, report);
  report.deadline_exceeded = state->token.cancelled();
  return eval;
}

ExecStats ParallelQueryEngine::exec_stats() const {
  ExecStats out;
  out.pool = pool_.total_stats();
  out.deadline_exceeded = deadline_exceeded_.load();
  out.cancelled_chunks = cancelled_chunks_.load();
  out.task_exceptions = task_exceptions_.load();
  return out;
}

}  // namespace stash::exec
