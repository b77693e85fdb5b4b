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

namespace {

/// Moves `source` cells intersecting box × time into the response.
void filter_into(CellSummaryMap&& source, const BoundingBox& box,
                 const TimeRange& time, CellSummaryMap& out) {
  for (auto& [key, summary] : source) {
    if (!key.bounds().intersects(box)) continue;
    if (!key.time_range().intersects(time)) continue;
    auto [it, inserted] = out.try_emplace(key, std::move(summary));
    if (!inserted) it->second.merge(summary);
  }
}

}  // namespace

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
    bool all_complete = true;
    for (const auto& ck : candidate.chunks) {
      ++breakdown.cache_probes;
      if (!graph_.chunk_complete(candidate.res, ck)) {
        all_complete = false;
        break;
      }
    }
    if (!all_complete) continue;

    // Roll every child Cell up into its parent at (res).
    CellSummaryMap rolled;
    std::size_t merges = 0;
    for (const auto& child_chunk : candidate.chunks) {
      const auto* data = graph_.find_chunk(candidate.res, child_chunk);
      if (data == nullptr) continue;  // complete but empty region
      for (const auto& [child_key, summary] : data->cells) {
        CellKey parent_key =
            candidate.spatial
                ? CellKey(*geohash::parent(child_key.geohash_str()),
                          child_key.bin())
                : CellKey(child_key.geohash_str(), *child_key.bin().parent());
        auto [it, inserted] = rolled.try_emplace(parent_key, summary);
        if (!inserted) it->second.merge(summary);
        ++merges;
      }
    }
    ChunkContribution out;
    out.res = res;
    out.chunk = chunk;
    out.cells.assign(rolled.begin(), rolled.end());
    const std::int64_t first = chunk.first_day();
    for (std::size_t i = 0; i < chunk.day_count(); ++i)
      out.days.push_back(first + static_cast<std::int64_t>(i));
    breakdown.synthesis_merges += merges;
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
        CellSummaryMap synth_map(synth->cells.begin(), synth->cells.end());
        filter_into(std::move(synth_map), clipped, query.time, out_cells);
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
  std::vector<std::int64_t> days;
  if (mode == EvalMode::Basic) {
    const std::int64_t first = chunk.first_day();
    for (std::size_t i = 0; i < chunk.day_count(); ++i)
      days.push_back(first + static_cast<std::int64_t>(i));
  } else {
    result.breakdown.cells_from_cache +=
        graph_.collect_chunk(query.res, chunk, clipped, query.time, local);
    days = graph_.chunk_missing_days(query.res, chunk);
  }

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
    for (auto& [key, summary] : part.cells) {
      auto [it, inserted] = scanned.try_emplace(key, std::move(summary));
      if (!inserted) it->second.merge(summary);
    }
  }
  result.breakdown.cells_scanned += scanned.size();
  ++result.breakdown.chunks_scanned;
  if (mode == EvalMode::Basic) {
    // Nothing resident and nothing to absorb: the scan is the response.
    filter_into(std::move(scanned), clipped, query.time, out_cells);
    return result;
  }
  contribution.cells.assign(scanned.begin(), scanned.end());
  if (!contribution.days.empty()) result.fetched = std::move(contribution);

  // Response = resident partial + freshly scanned, filtered to query.
  for (auto& [key, summary] : scanned) {
    auto [it, inserted] = local.try_emplace(key, std::move(summary));
    if (!inserted) it->second.merge(summary);
  }
  filter_into(std::move(local), clipped, query.time, out_cells);
  return result;
}

Evaluation QueryEngine::evaluate_partition(std::string_view partition,
                                           const AggregationQuery& query,
                                           EvalMode mode) const {
  if (!query.valid())
    throw std::invalid_argument("QueryEngine: invalid query");
  if (query.res.spatial < store_.partition_prefix_length())
    throw std::invalid_argument(
        "QueryEngine: spatial resolution must be >= the DHT partition prefix "
        "length (coarser Cells would span storage partitions)");

  Evaluation eval;
  const PartitionPlan plan = plan_partition(partition, query);
  if (plan.empty) return eval;

  // All chunks of one (partition, day) live in a single block file: disk
  // seeks are charged per unique day, not per chunk scanned.
  std::set<std::int64_t> days_scanned;

  for (const ChunkKey& chunk : plan.chunks) {
    eval.touched_chunks.push_back(chunk);
    ChunkEvalResult r =
        evaluate_chunk(partition, query, plan.clipped, chunk, mode, eval.cells);
    eval.breakdown += r.breakdown;
    if (r.fetched) eval.fetched.push_back(std::move(*r.fetched));
    eval.corrupt_blocks.insert(eval.corrupt_blocks.end(),
                               r.corrupt_blocks.begin(),
                               r.corrupt_blocks.end());
    days_scanned.insert(r.days_scanned.begin(), r.days_scanned.end());
  }
  eval.breakdown.scan.blocks_touched = days_scanned.size();
  return eval;
}

DegradedEvaluation QueryEngine::evaluate_degraded(
    std::string_view partition, const AggregationQuery& query) const {
  if (!query.valid())
    throw std::invalid_argument("QueryEngine: invalid query");
  const int min_spatial = store_.partition_prefix_length();
  if (query.res.spatial < min_spatial)
    throw std::invalid_argument(
        "QueryEngine: spatial resolution must be >= the DHT partition prefix "
        "length (coarser Cells would span storage partitions)");

  DegradedEvaluation out;
  out.served_res = query.res;
  const BoundingBox clipped =
      query.area.intersection(geohash::decode(partition));
  if (!clipped.valid() || !clipped.intersects(query.area)) {
    out.found = true;  // nothing of the query here: the empty answer is exact
    return out;
  }

  // BFS over the resolution hierarchy, nearest ancestors first, spatial
  // coarsening preferred among ties (parent_resolutions order).  Step 0 is
  // the requested level itself: a fully-resident exact region is served
  // as-is — degradation only happens when it must.
  std::vector<std::pair<Resolution, int>> frontier{{query.res, 0}};
  std::array<bool, kNumLevels> seen{};
  seen[static_cast<std::size_t>(level_index(query.res))] = true;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const auto [res, steps] = frontier[i];

    const int chunk_prec =
        chunk_spatial_precision(res.spatial, graph_.config().chunk_precision);
    const auto prefixes = geohash::covering(clipped, chunk_prec);
    const auto bins = temporal_covering(query.time, res.temporal);
    std::vector<ChunkKey> chunks;
    chunks.reserve(prefixes.size() * bins.size());
    for (const auto& prefix : prefixes)
      for (const auto& bin : bins) chunks.emplace_back(prefix, bin);

    out.eval.breakdown.cache_probes += chunks.size();
    if (graph_.region_complete(res, chunks)) {
      for (const ChunkKey& chunk : chunks) {
        ++out.eval.breakdown.chunks_total;
        ++out.eval.breakdown.chunks_from_cache;
        out.eval.breakdown.cells_from_cache += graph_.collect_chunk(
            res, chunk, clipped, query.time, out.eval.cells);
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
  Evaluation total;
  for (const auto& partition :
       geohash::covering(query.area, store_.partition_prefix_length())) {
    Evaluation part = evaluate_partition(partition, query, mode);
    total.breakdown += part.breakdown;
    for (auto& [key, summary] : part.cells) {
      auto [it, inserted] = total.cells.try_emplace(key, std::move(summary));
      if (!inserted) it->second.merge(summary);
    }
    std::move(part.fetched.begin(), part.fetched.end(),
              std::back_inserter(total.fetched));
    std::move(part.touched_chunks.begin(), part.touched_chunks.end(),
              std::back_inserter(total.touched_chunks));
    std::move(part.corrupt_blocks.begin(), part.corrupt_blocks.end(),
              std::back_inserter(total.corrupt_blocks));
  }
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
