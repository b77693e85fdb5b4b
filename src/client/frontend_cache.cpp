#include "client/frontend_cache.hpp"

#include <algorithm>
#include <array>

namespace stash::client {

FrontendCache::FrontendCache(FrontendCacheConfig config)
    : config_(config), graph_(config.stash) {}

std::vector<FrontendCache::CoveredChunk> FrontendCache::chunks_of(
    const AggregationQuery& query) const {
  std::vector<CoveredChunk> out;
  const int chunk_prec = chunk_spatial_precision(query.res.spatial,
                                                 config_.stash.chunk_precision);
  const auto bins = temporal_covering(query.time, query.res.temporal);
  // A wrap-encoded area (lng_max > 180) covers the antimeridian; geohash
  // coverings only understand normalized longitudes, so cover each band
  // separately.  The bands are disjoint, so no chunk appears twice.
  const auto bands = lng_bands(query.area);
  for (std::size_t b = 0; b < bands.size(); ++b) {
    for (const auto& prefix : geohash::covering(bands[b], chunk_prec)) {
      const bool inside = bands[b].contains(geohash::decode(prefix));
      for (const auto& bin : bins) {
        // Temporal containment: the bin must lie inside the query range
        // for a full contribution.
        const TimeRange r = bin.range();
        const bool t_inside =
            query.time.begin <= r.begin && r.end <= query.time.end;
        out.push_back({ChunkKey(prefix, bin), inside && t_inside, b});
      }
    }
  }
  return out;
}

FrontendLookup FrontendCache::lookup(const AggregationQuery& query) const {
  if (!query.valid())
    throw std::invalid_argument("FrontendCache::lookup: invalid query");
  FrontendLookup out;
  // Union the missing chunk boxes *per longitude band*.  A naive global
  // min/max union across the antimeridian seam degenerates: chunks at
  // +179° and -179° union into [-179, 179] — a near-global fetch box.
  std::array<std::optional<BoundingBox>, 2> band_union;
  for (const auto& covered : chunks_of(query)) {
    ++out.chunks_probed;
    if (graph_.chunk_complete(query.res, covered.chunk)) {
      graph_.collect_chunk(query.res, covered.chunk, query.area, query.time,
                           out.cells);
    } else {
      out.missing_chunks.push_back(covered.chunk);
      // Chunk-aligned: fetching whole chunks lets absorb() mark them
      // complete, so the region becomes locally servable.
      const BoundingBox box = covered.chunk.bounds();
      auto& unioned = band_union[covered.band];
      if (!unioned) {
        unioned = box;
      } else {
        unioned = BoundingBox{std::min(unioned->lat_min, box.lat_min),
                              std::max(unioned->lat_max, box.lat_max),
                              std::min(unioned->lng_min, box.lng_min),
                              std::max(unioned->lng_max, box.lng_max)};
      }
    }
  }
  for (const auto& unioned : band_union)
    if (unioned) out.missing_boxes.push_back(*unioned);
  out.local_time = config_.cost.cache_probes(out.chunks_probed) +
                   config_.cost.merge(out.cells.size());
  return out;
}

std::size_t FrontendCache::absorb(const AggregationQuery& query,
                                  const CellSummaryMap& cells,
                                  sim::SimTime now) {
  if (!query.valid())
    throw std::invalid_argument("FrontendCache::absorb: invalid query");
  // Group the response cells by chunk.
  std::unordered_map<ChunkKey, std::vector<std::pair<CellKey, Summary>>,
                     ChunkKeyHash>
      grouped;
  for (const auto& [key, summary] : cells)
    grouped[chunk_of(key, config_.stash.chunk_precision)].emplace_back(key,
                                                                       summary);
  std::size_t inserted = 0;
  std::vector<ChunkKey> touched;
  for (const auto& covered : chunks_of(query)) {
    if (!covered.inside) continue;  // edge chunks: partially covered
    if (graph_.chunk_complete(query.res, covered.chunk)) continue;
    ChunkContribution contribution;
    contribution.res = query.res;
    contribution.chunk = covered.chunk;
    const auto it = grouped.find(covered.chunk);
    if (it != grouped.end()) contribution.cells = it->second;
    contribution.days = covered.chunk.days();
    inserted += graph_.absorb(contribution, now);
    touched.push_back(covered.chunk);
  }
  graph_.touch_region(query.res, touched, now);
  graph_.evict_if_needed(now);
  return inserted;
}

}  // namespace stash::client
