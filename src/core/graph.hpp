// The STASH graph: per-level in-memory store of aggregated Cells.
//
// G_STASH = (V, {E_H, E_L}) from §IV: vertices are Cells grouped by their
// spatiotemporal resolution into levels (§IV-C), hierarchical and lateral
// edges are derived on demand (core/edges.hpp).  Each level's Cells are
// grouped into chunks (core/chunk.hpp) — the unit of residency tracking
// (PLM), freshness bookkeeping (§V-C) and replication (§VII).
//
// One StashGraph instance is a single node's shard of the distributed
// graph; a helper node additionally holds a second, "guest" instance for
// replicated Cliques (§VII-A).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/summary.hpp"
#include "core/config.hpp"
#include "core/freshness.hpp"
#include "core/plm.hpp"
#include "storage/galileo_store.hpp"

namespace stash {

/// One batch of fully-aggregated Cells for a chunk, covering `days` of its
/// bin — the unit StashGraph ingests (from a disk scan, a roll-up
/// synthesis, or a replication transfer).
struct ChunkContribution {
  Resolution res;
  ChunkKey chunk;
  std::vector<std::pair<CellKey, Summary>> cells;
  std::vector<std::int64_t> days;
};

class StashGraph {
 public:
  struct ChunkData {
    std::unordered_map<CellKey, Summary, CellKeyHash> cells;
    Freshness freshness;
  };

  /// Cumulative lifetime counters over every mutation — the per-node feed
  /// for the cluster's MetricsRegistry (obs/metrics.hpp).  Unlike
  /// total_cells(), these never decrease and survive clear().
  struct Stats {
    std::uint64_t contributions_absorbed = 0;  ///< absorb() batches accepted
    std::uint64_t contributions_rejected = 0;  ///< idempotence-guard rejects
    std::uint64_t cells_absorbed = 0;          ///< cells merged or inserted
    std::uint64_t freshness_touches = 0;       ///< touch_region() updates
    std::uint64_t eviction_passes = 0;         ///< evict_to() passes that dropped chunks
    std::uint64_t cells_evicted = 0;           ///< via evict_to()/evict_if_needed()
    std::uint64_t cells_purged = 0;            ///< via purge_older_than()
    std::uint64_t chunks_invalidated = 0;      ///< via invalidate_block()
  };

  explicit StashGraph(StashConfig config = {});

  [[nodiscard]] const StashConfig& config() const noexcept { return config_; }
  [[nodiscard]] const PrecisionLevelMap& plm() const noexcept { return plm_; }

  // --- residency (PLM consultation, §IV-D) ---
  [[nodiscard]] bool chunk_complete(const Resolution& res,
                                    const ChunkKey& chunk) const;
  [[nodiscard]] bool chunk_known(const Resolution& res, const ChunkKey& chunk) const;
  /// True when every chunk of a covering is resident and complete — the
  /// gate for serving a degraded answer from this level.
  [[nodiscard]] bool region_complete(const Resolution& res,
                                     const std::vector<ChunkKey>& chunks) const;
  [[nodiscard]] std::vector<std::int64_t> chunk_missing_days(
      const Resolution& res, const ChunkKey& chunk) const;

  // --- reads ---
  /// Appends the chunk's resident Cells whose bounds intersect box × time
  /// into `out`; returns the number appended.
  std::size_t collect_chunk(const Resolution& res, const ChunkKey& chunk,
                            const BoundingBox& box, const TimeRange& time,
                            CellSummaryMap& out) const;

  [[nodiscard]] const ChunkData* find_chunk(const Resolution& res,
                                            const ChunkKey& chunk) const;
  [[nodiscard]] const Summary* find_cell(const CellKey& key) const;

  // --- §V-B roll-up (QueryEngine::synthesize and the GraphAuditor) ---
  /// True when every chunk of `level` is complete.  Probes in order and
  /// stops at the first miss; `probes` counts the probes made.
  [[nodiscard]] bool level_complete(const ChunkChildLevel& level,
                                    std::size_t& probes) const;
  /// Merges every resident cell of `level` into its parent cell in `out`,
  /// child chunk by child chunk.  Returns the child cells merged.
  std::size_t roll_up(const ChunkChildLevel& level, CellSummaryMap& out) const;

  // --- integrity ---
  /// Content-covering digest of one chunk: the PLM bitmap digest mixed with
  /// an order-independent checksum of every resident Cell (key + summary
  /// values), all on the shared integrity checksum (common/checksum.hpp).
  /// 0 for an unknown chunk (matching PrecisionLevelMap::bitmap_hash).
  /// This is the anti-entropy comparison unit: two replicas with identical
  /// coverage but diverged or rotted content hash differently, so a digest
  /// mismatch means "re-pull", never "trust the bitmap".
  [[nodiscard]] std::uint64_t chunk_digest(const Resolution& res,
                                           const ChunkKey& chunk) const;

  /// Drops one resident chunk entirely (Cells + PLM entry) — the
  /// quarantine action for a replica whose digest proves it diverged or
  /// rotted.  Returns the number of Cells dropped.
  std::size_t drop_chunk(const Resolution& res, const ChunkKey& chunk);

  // --- writes ---
  /// Ingests a contribution: merges its Cells and marks its days in the
  /// PLM.  Days already contributed are rejected (idempotence guard) —
  /// returns 0 and changes nothing.  Otherwise returns Cells touched.
  std::size_t absorb(const ChunkContribution& contribution, sim::SimTime now);

  // --- freshness (§V-C) ---
  /// Records an access to `accessed` chunks of one level: each gets f_inc;
  /// resident chunks in their immediate spatiotemporal neighborhood get
  /// dispersion_fraction * f_inc (Fig 3).  Returns freshness updates made.
  std::size_t touch_region(const Resolution& res,
                           const std::vector<ChunkKey>& accessed,
                           sim::SimTime now);

  [[nodiscard]] double chunk_freshness(const Resolution& res, const ChunkKey& chunk,
                                       sim::SimTime now) const;

  // --- capacity & eviction (§V-C.2) ---
  [[nodiscard]] std::size_t total_cells() const noexcept { return total_cells_; }
  [[nodiscard]] std::size_t total_chunks() const noexcept;
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// If over max_cells, evicts lowest-freshness chunks until at or below
  /// the safe limit.  Returns the number of Cells evicted.
  std::size_t evict_if_needed(sim::SimTime now);
  /// Unconditionally evicts lowest-freshness chunks down to target_cells.
  std::size_t evict_to(std::size_t target_cells, sim::SimTime now);

  /// Drops every chunk whose last access is older than `ttl` (guest-graph
  /// purge, §VII-D).  Returns Cells dropped.
  std::size_t purge_older_than(sim::SimTime now, sim::SimTime ttl);

  /// Real-time update invalidation: drops every chunk the block contributed
  /// to (summaries are not subtractable), so stale data is recomputed on
  /// next access.  Returns the number of chunks dropped.
  std::size_t invalidate_block(std::string_view partition, std::int64_t day);

  /// Iterates all resident chunks of one level.
  template <typename Fn>
  void for_each_chunk(const Resolution& res, Fn&& fn) const {
    for (const auto& [key, data] : level_of(res)) fn(key, data);
  }

  void clear();

 private:
  using LevelMap = std::unordered_map<ChunkKey, ChunkData, ChunkKeyHash>;

  /// Auditor unit tests corrupt private state through this peer to prove
  /// each violation class is detected; nothing else may define it.
  friend struct StashGraphTestPeer;

  [[nodiscard]] LevelMap& level_of(const Resolution& res);
  [[nodiscard]] const LevelMap& level_of(const Resolution& res) const;
  void erase_chunk(int level_idx, const ChunkKey& chunk);
  /// No-op unless compiled with STASH_AUDIT: runs the GraphAuditor after a
  /// mutation and throws std::logic_error on any violation.
  void self_audit(const char* op) const;

  StashConfig config_;
  std::array<LevelMap, kNumLevels> levels_;
  PrecisionLevelMap plm_;
  std::size_t total_cells_ = 0;
  Stats stats_;
};

}  // namespace stash
