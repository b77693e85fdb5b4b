#include "core/graph.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/checksum.hpp"
#include "core/audit.hpp"

namespace stash {

void StashGraph::self_audit(const char* op) const {
#if STASH_AUDIT
  const AuditReport report = GraphAuditor().audit(*this);
  if (!report.ok())
    throw std::logic_error(std::string("StashGraph invariant violated after ") +
                           op + ":\n" + report.to_string());
#else
  (void)op;
#endif
}

StashGraph::StashGraph(StashConfig config) : config_(config) {
  if (config_.chunk_precision < 1 ||
      config_.chunk_precision > geohash::kMaxPrecision)
    throw std::invalid_argument("StashGraph: bad chunk precision");
  if (config_.safe_limit_fraction <= 0.0 || config_.safe_limit_fraction > 1.0)
    throw std::invalid_argument("StashGraph: bad safe limit fraction");
}

StashGraph::LevelMap& StashGraph::level_of(const Resolution& res) {
  if (!res.valid()) throw std::invalid_argument("StashGraph: bad resolution");
  return levels_[static_cast<std::size_t>(level_index(res))];
}

const StashGraph::LevelMap& StashGraph::level_of(const Resolution& res) const {
  if (!res.valid()) throw std::invalid_argument("StashGraph: bad resolution");
  return levels_[static_cast<std::size_t>(level_index(res))];
}

bool StashGraph::chunk_complete(const Resolution& res, const ChunkKey& chunk) const {
  return plm_.is_complete(level_index(res), chunk);
}

bool StashGraph::chunk_known(const Resolution& res, const ChunkKey& chunk) const {
  return plm_.is_known(level_index(res), chunk);
}

bool StashGraph::region_complete(const Resolution& res,
                                 const std::vector<ChunkKey>& chunks) const {
  return plm_.all_complete(level_index(res), chunks);
}

std::vector<std::int64_t> StashGraph::chunk_missing_days(
    const Resolution& res, const ChunkKey& chunk) const {
  return plm_.missing_days(level_index(res), chunk);
}

bool StashGraph::level_complete(const ChunkChildLevel& level,
                                std::size_t& probes) const {
  for (const auto& chunk : level.chunks) {
    ++probes;
    if (!chunk_complete(level.res, chunk)) return false;
  }
  return true;
}

std::size_t StashGraph::roll_up(const ChunkChildLevel& level,
                                CellSummaryMap& out) const {
  std::size_t merges = 0;
  for (const auto& child_chunk : level.chunks) {
    const ChunkData* data = find_chunk(level.res, child_chunk);
    if (data == nullptr) continue;  // complete but empty region
    for (const auto& [child_key, summary] : data->cells) {
      const CellKey parent_key =
          level.spatial ? CellKey(*geohash::parent(child_key.geohash_str()),
                                  child_key.bin())
                        : CellKey(child_key.geohash_str(),
                                  *child_key.bin().parent());
      auto [it, inserted] = out.try_emplace(parent_key, summary);
      if (!inserted) it->second.merge(summary);
      ++merges;
    }
  }
  return merges;
}

std::size_t StashGraph::collect_chunk(const Resolution& res, const ChunkKey& chunk,
                                      const BoundingBox& box, const TimeRange& time,
                                      CellSummaryMap& out) const {
  const auto& level = level_of(res);
  const auto it = level.find(chunk);
  if (it == level.end()) return 0;
  std::size_t appended = 0;
  for (const auto& [key, summary] : it->second.cells) {
    if (!key.bounds().intersects(box)) continue;
    if (!key.time_range().intersects(time)) continue;
    out.try_emplace(key, summary);
    ++appended;
  }
  return appended;
}

const StashGraph::ChunkData* StashGraph::find_chunk(const Resolution& res,
                                                    const ChunkKey& chunk) const {
  const auto& level = level_of(res);
  const auto it = level.find(chunk);
  return it == level.end() ? nullptr : &it->second;
}

const Summary* StashGraph::find_cell(const CellKey& key) const {
  const Resolution res = key.resolution();
  const ChunkKey chunk = chunk_of(key, config_.chunk_precision);
  const auto* data = find_chunk(res, chunk);
  if (data == nullptr) return nullptr;
  const auto it = data->cells.find(key);
  return it == data->cells.end() ? nullptr : &it->second;
}

std::size_t StashGraph::absorb(const ChunkContribution& contribution,
                               sim::SimTime now) {
  if (!contribution.res.valid())
    throw std::invalid_argument("StashGraph::absorb: bad resolution");
  const int lvl = level_index(contribution.res);
  // Validate the whole batch before touching any state: a day outside the
  // chunk's bin used to throw from the PLM only after the cells were
  // merged, leaving a resident chunk the PLM had never heard of (caught by
  // the GraphAuditor's chunk-plm-missing check).
  const std::int64_t first_day = contribution.chunk.first_day();
  const auto day_span = static_cast<std::int64_t>(contribution.chunk.day_count());
  for (std::int64_t day : contribution.days)
    if (day < first_day || day >= first_day + day_span)
      throw std::invalid_argument(
          "StashGraph::absorb: day outside the chunk's bin");
  // Idempotence guard: refuse a batch whose days were already merged —
  // merging twice would double-count records.
  if (plm_.is_known(lvl, contribution.chunk)) {
    const auto missing = plm_.missing_days(lvl, contribution.chunk);
    for (std::int64_t day : contribution.days)
      if (std::find(missing.begin(), missing.end(), day) == missing.end()) {
        ++stats_.contributions_rejected;
        return 0;
      }
  }
  auto& data = levels_[static_cast<std::size_t>(lvl)][contribution.chunk];
  for (const auto& [key, summary] : contribution.cells) {
    auto [it, inserted] = data.cells.try_emplace(key, summary);
    if (inserted) {
      ++total_cells_;
    } else {
      it->second.merge(summary);
    }
  }
  for (std::int64_t day : contribution.days)
    plm_.mark_day(lvl, contribution.chunk, day);
  data.freshness.touch(config_.freshness_increment, now,
                       config_.freshness_half_life);
  ++stats_.contributions_absorbed;
  stats_.cells_absorbed += contribution.cells.size();
  self_audit("absorb");
  return contribution.cells.size();
}

std::size_t StashGraph::touch_region(const Resolution& res,
                                     const std::vector<ChunkKey>& accessed,
                                     sim::SimTime now) {
  auto& level = level_of(res);
  if (level.empty()) return 0;  // nothing resident to refresh or disperse to
  std::size_t updates = 0;
  for (const auto& chunk : accessed) {
    const auto it = level.find(chunk);
    if (it == level.end()) continue;
    it->second.freshness.touch(config_.freshness_increment, now,
                               config_.freshness_half_life);
    ++updates;
  }
  // Disperse a fraction of f_inc to the resident spatiotemporal
  // neighborhood (the grey Cells of Fig 3).  Chunks in the accessed set
  // itself were already bumped; duplicates among neighbors are bumped per
  // neighboring accessed chunk, matching the paper's per-region dispersion.
  const double dispersed =
      config_.freshness_increment * config_.dispersion_fraction;
  if (dispersed > 0.0) {
    const std::unordered_map<ChunkKey, bool, ChunkKeyHash> accessed_set = [&] {
      std::unordered_map<ChunkKey, bool, ChunkKeyHash> set;
      for (const auto& c : accessed) set.emplace(c, true);
      return set;
    }();
    for (const auto& chunk : accessed) {
      for (const auto& neighbor : chunk_neighbors(chunk)) {
        if (accessed_set.contains(neighbor)) continue;
        const auto it = level.find(neighbor);
        if (it == level.end()) continue;
        it->second.freshness.touch(dispersed, now, config_.freshness_half_life);
        ++updates;
      }
    }
  }
  stats_.freshness_touches += updates;
  return updates;
}

double StashGraph::chunk_freshness(const Resolution& res, const ChunkKey& chunk,
                                   sim::SimTime now) const {
  const auto* data = find_chunk(res, chunk);
  return data == nullptr
             ? 0.0
             : data->freshness.at(now, config_.freshness_half_life);
}

std::size_t StashGraph::total_chunks() const noexcept {
  std::size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

std::uint64_t StashGraph::chunk_digest(const Resolution& res,
                                       const ChunkKey& chunk) const {
  const int lvl = level_index(res);
  const std::uint64_t coverage = plm_.bitmap_hash(lvl, chunk);
  if (coverage == 0) return 0;  // unknown chunk, matching the PLM convention
  // Cells live in an unordered_map whose iteration order differs between
  // instances, so per-cell digests are combined by wrapping addition — an
  // order-independent fold — before the final mix.
  std::uint64_t cells = 0;
  if (const ChunkData* data = find_chunk(res, chunk)) {
    for (const auto& [key, summary] : data->cells) {
      Checksum64 cell;
      cell.mix(key.spatial).mix(key.temporal);
      for (const auto& attr : summary.attributes()) {
        cell.mix(attr.count);
        cell.mix(std::bit_cast<std::uint64_t>(attr.min));
        cell.mix(std::bit_cast<std::uint64_t>(attr.max));
        cell.mix(std::bit_cast<std::uint64_t>(attr.sum));
        cell.mix(std::bit_cast<std::uint64_t>(attr.sum_sq));
      }
      cells += cell.digest();
    }
  }
  const std::uint64_t h = Checksum64().mix(coverage).mix(cells).digest();
  return h == 0 ? 1 : h;
}

std::size_t StashGraph::drop_chunk(const Resolution& res,
                                   const ChunkKey& chunk) {
  const ChunkData* data = find_chunk(res, chunk);
  const std::size_t cells = data == nullptr ? 0 : data->cells.size();
  if (data == nullptr && !plm_.is_known(level_index(res), chunk)) return 0;
  erase_chunk(level_index(res), chunk);
  self_audit("drop_chunk");
  return cells;
}

void StashGraph::erase_chunk(int level_idx, const ChunkKey& chunk) {
  auto& level = levels_[static_cast<std::size_t>(level_idx)];
  const auto it = level.find(chunk);
  if (it == level.end()) return;
  total_cells_ -= it->second.cells.size();
  level.erase(it);
  plm_.erase(level_idx, chunk);
}

std::size_t StashGraph::evict_if_needed(sim::SimTime now) {
  if (total_cells_ <= config_.max_cells) return 0;
  return evict_to(config_.safe_limit(), now);
}

std::size_t StashGraph::evict_to(std::size_t target_cells, sim::SimTime now) {
  if (total_cells_ <= target_cells) return 0;
  struct Candidate {
    double score;
    int level;
    ChunkKey chunk;
    std::size_t cells;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(total_chunks());
  for (int lvl = 0; lvl < kNumLevels; ++lvl) {
    for (const auto& [chunk, data] : levels_[static_cast<std::size_t>(lvl)])
      candidates.push_back({data.freshness.at(now, config_.freshness_half_life),
                            lvl, chunk, data.cells.size()});
  }
  // Lowest freshness evicted first; ties broken deterministically by key.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score < b.score;
              if (a.level != b.level) return a.level < b.level;
              return a.chunk < b.chunk;
            });
  std::size_t evicted = 0;
  for (const auto& c : candidates) {
    if (total_cells_ <= target_cells) break;
    erase_chunk(c.level, c.chunk);
    evicted += c.cells;
  }
  if (evicted > 0) {
    ++stats_.eviction_passes;
    stats_.cells_evicted += evicted;
  }
  self_audit("evict_to");
  return evicted;
}

std::size_t StashGraph::purge_older_than(sim::SimTime now, sim::SimTime ttl) {
  std::size_t purged = 0;
  for (int lvl = 0; lvl < kNumLevels; ++lvl) {
    auto& level = levels_[static_cast<std::size_t>(lvl)];
    std::vector<ChunkKey> stale;
    for (const auto& [chunk, data] : level)
      if (now - data.freshness.last_update > ttl) stale.push_back(chunk);
    for (const auto& chunk : stale) {
      purged += level.at(chunk).cells.size();
      erase_chunk(lvl, chunk);
    }
  }
  stats_.cells_purged += purged;
  self_audit("purge_older_than");
  return purged;
}

std::size_t StashGraph::invalidate_block(std::string_view partition,
                                         std::int64_t day) {
  // Aggregate summaries are not subtractable (min/max), so a stale block
  // cannot be surgically removed from a Cell: drop every affected chunk
  // entirely and let the next access recompute it ("stale data summaries
  // are recomputed in case of future access", §IV-D).
  std::size_t dropped = 0;
  for (int lvl = 0; lvl < kNumLevels; ++lvl) {
    auto& level = levels_[static_cast<std::size_t>(lvl)];
    std::vector<ChunkKey> affected;
    for (const auto& [chunk, data] : level) {
      const std::string prefix = chunk.prefix_str();
      const bool spatial_hit =
          prefix.size() >= partition.size()
              ? std::string_view(prefix).substr(0, partition.size()) == partition
              : partition.substr(0, prefix.size()) == prefix;
      if (!spatial_hit) continue;
      const std::int64_t first = chunk.first_day();
      if (day < first || day >= first + static_cast<std::int64_t>(chunk.day_count()))
        continue;
      affected.push_back(chunk);
    }
    for (const auto& chunk : affected) {
      erase_chunk(lvl, chunk);
      ++dropped;
    }
  }
  stats_.chunks_invalidated += dropped;
  self_audit("invalidate_block");
  return dropped;
}

void StashGraph::clear() {
  for (auto& level : levels_) level.clear();
  plm_ = PrecisionLevelMap{};
  total_cells_ = 0;
  self_audit("clear");
}

}  // namespace stash
