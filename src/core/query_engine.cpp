#include "core/query_engine.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>
#include <utility>

namespace stash {

EvalBreakdown& EvalBreakdown::operator+=(const EvalBreakdown& other) noexcept {
  chunks_total += other.chunks_total;
  chunks_from_cache += other.chunks_from_cache;
  chunks_synthesized += other.chunks_synthesized;
  chunks_scanned += other.chunks_scanned;
  chunks_missing += other.chunks_missing;
  cache_probes += other.cache_probes;
  cells_from_cache += other.cells_from_cache;
  cells_synthesized += other.cells_synthesized;
  cells_scanned += other.cells_scanned;
  synthesis_merges += other.synthesis_merges;
  scan += other.scan;
  return *this;
}

QueryEngine::QueryEngine(StashGraph& graph, const GalileoStore& store)
    : graph_(graph), store_(store) {}

void QueryEngine::validate(const AggregationQuery& query) const {
  if (!query.valid())
    throw std::invalid_argument("QueryEngine: invalid query");
  if (query.res.spatial < store_.partition_prefix_length())
    throw std::invalid_argument(
        "QueryEngine: spatial resolution must be >= the DHT partition prefix "
        "length (coarser Cells would span storage partitions)");
}

std::optional<ChunkContribution> QueryEngine::synthesize(
    const Resolution& res, const ChunkKey& chunk,
    EvalBreakdown& breakdown) const {
  // Candidate child levels, spatial first (§V-B roll-up is the common
  // case).  The enumeration is shared with the GraphAuditor's roll-up
  // consistency check (chunk_child_levels) so they cannot drift.
  const auto candidates =
      chunk_child_levels(res, chunk, graph_.config().chunk_precision);

  for (const auto& candidate : candidates) {
    // Probe with early exit: the common case (child level absent) must cost
    // one probe, or the §VIII-C.2 "slightly more than basic" worst case
    // would balloon.
    if (!graph_.level_complete(candidate, breakdown.cache_probes)) continue;
    CellSummaryMap rolled;
    breakdown.synthesis_merges += graph_.roll_up(candidate, rolled);
    ChunkContribution out;
    out.res = res;
    out.chunk = chunk;
    out.cells.assign(rolled.begin(), rolled.end());
    out.days = chunk.days();
    return out;
  }
  return std::nullopt;
}

QueryEngine::PartitionPlan QueryEngine::plan_partition(
    std::string_view partition, const AggregationQuery& query) const {
  PartitionPlan plan;
  plan.clipped = query.area.intersection(geohash::decode(partition));
  if (!plan.clipped.valid() || !plan.clipped.intersects(query.area))
    return plan;
  plan.empty = false;

  const int chunk_prec = chunk_spatial_precision(
      query.res.spatial, graph_.config().chunk_precision);
  const auto prefixes = geohash::covering(plan.clipped, chunk_prec);
  const auto bins = temporal_covering(query.time, query.res.temporal);
  plan.chunks.reserve(prefixes.size() * bins.size());
  for (const auto& prefix : prefixes)
    for (const auto& bin : bins) plan.chunks.emplace_back(prefix, bin);
  return plan;
}

ChunkEvalResult QueryEngine::evaluate_chunk(std::string_view partition,
                                            const AggregationQuery& query,
                                            const BoundingBox& clipped,
                                            const ChunkKey& chunk,
                                            EvalMode mode,
                                            CellSummaryMap& out_cells,
                                            const CancelProbe* cancel) const {
  ChunkEvalResult result;
  if (cancel != nullptr && cancel->cancelled()) {
    result.cancelled = true;
    return result;
  }
  ++result.breakdown.chunks_total;
  const auto wanted = [&](const CellKey& key) {
    return key.bounds().intersects(clipped) &&
           key.time_range().intersects(query.time);
  };

  if (mode != EvalMode::Basic) {
    ++result.breakdown.cache_probes;
    if (graph_.chunk_complete(query.res, chunk)) {
      result.breakdown.cells_from_cache += graph_.collect_chunk(
          query.res, chunk, clipped, query.time, out_cells);
      ++result.breakdown.chunks_from_cache;
      return result;
    }
    // Synthesis only for untouched chunks: merging a rolled-up full
    // bin over a partial one would double-count contributions.
    if (!graph_.chunk_known(query.res, chunk)) {
      if (auto synth = synthesize(query.res, chunk, result.breakdown)) {
        // Copied, not moved: the roll-up is also the maintenance
        // contribution.
        for (const auto& [key, summary] : synth->cells) {
          if (!wanted(key)) continue;
          auto [it, inserted] = out_cells.try_emplace(key, summary);
          if (!inserted) it->second.merge(summary);
        }
        result.breakdown.cells_synthesized += synth->cells.size();
        ++result.breakdown.chunks_synthesized;
        result.fetched = std::move(*synth);
        return result;
      }
    }
    if (mode == EvalMode::CacheOnly) {
      ++result.breakdown.chunks_missing;
      return result;
    }
  }

  // Disk path: merge the resident partial contribution (if any) with a
  // scan of the missing days.
  CellSummaryMap local;
  if (mode != EvalMode::Basic)
    result.breakdown.cells_from_cache +=
        graph_.collect_chunk(query.res, chunk, clipped, query.time, local);
  const std::vector<std::int64_t> days =
      mode == EvalMode::Basic ? chunk.days()
                              : graph_.chunk_missing_days(query.res, chunk);

  ChunkContribution contribution;
  contribution.res = query.res;
  contribution.chunk = chunk;
  CellSummaryMap scanned;
  const BoundingBox chunk_box = chunk.bounds();
  const TimeRange bin_range = chunk.bin().range();
  result.days_scanned = days;
  for (std::int64_t day : days) {
    // The between-cells cancellation point (DESIGN.md §14): one day's
    // scan is the smallest unit worth finishing — past a fired deadline,
    // every further day is work nobody will read.
    if (cancel != nullptr && cancel->cancelled()) {
      result.cancelled = true;
      return result;
    }
    const TimeRange day_range{day * 86400, (day + 1) * 86400};
    const TimeRange scan_range{std::max(day_range.begin, bin_range.begin),
                               std::min(day_range.end, bin_range.end)};
    ScanResult part =
        store_.scan_partition(partition, chunk_box, scan_range, query.res);
    result.breakdown.scan += part.stats;
    if (!part.corrupt_blocks.empty()) {
      // A block of this day failed verification: withhold the whole day
      // — from the response AND from the contribution, so the PLM never
      // marks a corrupt day complete — and surface the blocks so the
      // caller can flag the answer and schedule repair.
      result.corrupt_blocks.insert(result.corrupt_blocks.end(),
                                   part.corrupt_blocks.begin(),
                                   part.corrupt_blocks.end());
      continue;
    }
    contribution.days.push_back(day);
    // Basic mode keeps the first day's scan map as the day merge.  Cached
    // mode splices every day: re-linking the nodes one by one keeps the
    // insertion order the absorbed contribution has always had, and the
    // graph's roll-up sums its cells in that order (DESIGN.md §13.2).
    if (mode == EvalMode::Basic && scanned.empty())
      scanned = std::move(part.cells);
    else
      splice_cells(part.cells, scanned);
  }
  result.breakdown.cells_scanned += scanned.size();
  ++result.breakdown.chunks_scanned;
  if (mode == EvalMode::Basic) {
    // Nothing resident and nothing to absorb: the scan is the response.
    splice_cells(scanned, out_cells, wanted);
    return result;
  }
  contribution.cells.assign(scanned.begin(), scanned.end());
  if (!contribution.days.empty()) result.fetched = std::move(contribution);

  // Response = resident partial + freshly scanned, filtered to query.
  splice_cells(scanned, local);
  splice_cells(local, out_cells, wanted);
  return result;
}

void QueryEngine::fold_chunk(Evaluation& eval,
                             std::set<std::int64_t>& partition_days,
                             const ChunkKey& chunk, ChunkEvalResult&& result,
                             CellSummaryMap* cells) {
  eval.touched_chunks.push_back(chunk);
  result.breakdown.scan.blocks_touched = 0;  // counted per distinct day
  eval.breakdown += result.breakdown;
  for (const std::int64_t day : result.days_scanned)
    if (partition_days.insert(day).second)
      ++eval.breakdown.scan.blocks_touched;
  if (cells != nullptr) splice_cells(*cells, eval.cells);
  if (result.fetched) eval.fetched.push_back(std::move(*result.fetched));
  eval.corrupt_blocks.insert(eval.corrupt_blocks.end(),
                             result.corrupt_blocks.begin(),
                             result.corrupt_blocks.end());
}

void QueryEngine::evaluate_into(std::string_view partition,
                                const AggregationQuery& query, EvalMode mode,
                                Evaluation& eval) const {
  const PartitionPlan plan = plan_partition(partition, query);
  std::set<std::int64_t> partition_days;
  for (const ChunkKey& chunk : plan.chunks)
    fold_chunk(eval, partition_days, chunk,
               evaluate_chunk(partition, query, plan.clipped, chunk, mode,
                              eval.cells));
}

Evaluation QueryEngine::evaluate_partition(std::string_view partition,
                                           const AggregationQuery& query,
                                           EvalMode mode) const {
  validate(query);
  Evaluation eval;
  evaluate_into(partition, query, mode, eval);
  return eval;
}

DegradedEvaluation QueryEngine::evaluate_degraded(
    std::string_view partition, const AggregationQuery& query) const {
  validate(query);
  const int min_spatial = store_.partition_prefix_length();
  DegradedEvaluation out;
  out.served_res = query.res;

  // BFS over the resolution hierarchy, nearest ancestors first, spatial
  // coarsening preferred among ties (parent_resolutions order).  Step 0 is
  // the requested level itself: a fully-resident exact region is served
  // as-is — degradation only happens when it must.
  std::vector<std::pair<Resolution, int>> frontier{{query.res, 0}};
  std::array<bool, kNumLevels> seen{};
  seen[static_cast<std::size_t>(level_index(query.res))] = true;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const auto [res, steps] = frontier[i];
    AggregationQuery level = query;
    level.res = res;
    // A partition the query misses plans no chunks, which are trivially
    // complete: the empty answer at step 0 is exact.
    const PartitionPlan plan = plan_partition(partition, level);

    out.eval.breakdown.cache_probes += plan.chunks.size();
    if (graph_.region_complete(res, plan.chunks)) {
      for (const ChunkKey& chunk : plan.chunks) {
        ++out.eval.breakdown.chunks_total;
        ++out.eval.breakdown.chunks_from_cache;
        out.eval.breakdown.cells_from_cache += graph_.collect_chunk(
            res, chunk, plan.clipped, query.time, out.eval.cells);
      }
      out.served_res = res;
      out.coarsening_steps = steps;
      out.found = true;
      return out;
    }

    for (const Resolution& parent : parent_resolutions(res)) {
      if (parent.spatial < min_spatial) continue;
      const auto idx = static_cast<std::size_t>(level_index(parent));
      if (seen[idx]) continue;
      seen[idx] = true;
      frontier.emplace_back(parent, steps + 1);
    }
  }
  return out;  // found == false: nothing cached can answer at any ancestor
}

Evaluation QueryEngine::evaluate(const AggregationQuery& query,
                                 EvalMode mode) const {
  validate(query);
  Evaluation total;
  for (const auto& partition :
       geohash::covering(query.area, store_.partition_prefix_length()))
    evaluate_into(partition, query, mode, total);
  return total;
}

MaintenanceStats QueryEngine::absorb(const Evaluation& eval,
                                     const Resolution& res, sim::SimTime now) {
  MaintenanceStats stats;
  for (const auto& contribution : eval.fetched)
    stats.cells_absorbed += graph_.absorb(contribution, now);
  stats.freshness_updates = graph_.touch_region(res, eval.touched_chunks, now);
  stats.cells_evicted = graph_.evict_if_needed(now);
  return stats;
}

}  // namespace stash
