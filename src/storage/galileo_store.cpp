#include "storage/galileo_store.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace stash {

GalileoStore::GalileoStore(std::shared_ptr<const NamGenerator> generator,
                           int partition_prefix_length)
    : generator_(std::move(generator)), prefix_len_(partition_prefix_length) {
  if (!generator_) throw std::invalid_argument("GalileoStore: null generator");
  if (prefix_len_ < 1 || prefix_len_ > geohash::kMaxPrecision)
    throw std::invalid_argument("GalileoStore: bad partition prefix length");
}

namespace {

/// Bins every record of `grid` into `cells` at `res`, exactly as encoding
/// each generated record's position and timestamp and adding its values
/// would, without materialising a record or a geohash string:
///   * geohash bits are separable, so a row's latitude bits and a column's
///     longitude bits are found once, by the bisection `geohash::encode`
///     runs, and OR-ed into the packed key;
///   * the temporal bin is found once per slot;
///   * records are visited in generate's (slot, row, column) order, so
///     each cell's Summary adds the same values in the same order and the
///     map sees the same insertion sequence.
void aggregate(const NamGenerator& gen, const NamGenerator::Grid& grid,
               const Resolution& res, CellSummaryMap& cells) {
  static_assert(kNamAttributeCount <= Summary::kInlineAttributes,
                "a scanned cell's Summary must not allocate");
  if (grid.size() == 0) return;
  std::vector<NamGenerator::Axis> rows;
  std::vector<std::uint64_t> row_keys;
  rows.reserve(grid.lats.size());
  row_keys.reserve(grid.lats.size());
  for (std::int64_t i = grid.lats.lo; i <= grid.lats.hi; ++i) {
    rows.push_back(gen.lat_axis(i));
    row_keys.push_back(geohash::pack_index(
        {geohash::lat_index(rows.back().coord, res.spatial), 0}, res.spatial));
  }
  std::vector<NamGenerator::Axis> cols;
  std::vector<std::uint64_t> col_keys;
  cols.reserve(grid.lngs.size());
  col_keys.reserve(grid.lngs.size());
  for (std::int64_t j = grid.lngs.lo; j <= grid.lngs.hi; ++j) {
    cols.push_back(gen.lng_axis(j));
    col_keys.push_back(geohash::pack_index(
        {0, geohash::lng_index(cols.back().coord, res.spatial)}, res.spatial));
  }

  // The cell each grid point falls in under the current slot's bin.  Map
  // nodes never move, so the pointers survive rehashing; they are looked
  // up again only when the bin changes (every slot at Hour, once per day
  // at Day).
  std::vector<Summary*> cell_of(rows.size() * cols.size());
  std::optional<std::uint32_t> bound_bin;
  for (const NamGenerator::Slot& slot : grid.slots) {
    const std::uint32_t bin =
        TemporalBin::of_timestamp(slot.timestamp, res.temporal).pack();
    const bool rebind = bound_bin != bin;
    bound_bin = bin;
    Summary** cell = cell_of.data();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t c = 0; c < cols.size(); ++c, ++cell) {
        if (rebind)
          *cell = &cells
                       .try_emplace(CellKey(row_keys[r] | col_keys[c], bin),
                                    kNamAttributeCount)
                       .first->second;
        const auto v = gen.values(slot, rows[r], cols[c]);
        (*cell)->add_observation(v.data(), v.size());
      }
    }
  }
}

}  // namespace

ScanResult GalileoStore::scan_partition(std::string_view partition,
                                        const BoundingBox& region,
                                        const TimeRange& time,
                                        const Resolution& res) const {
  if (partition.size() != static_cast<std::size_t>(prefix_len_))
    throw std::invalid_argument("GalileoStore::scan_partition: bad partition key");
  if (!res.valid())
    throw std::invalid_argument("GalileoStore::scan_partition: bad resolution");
  ScanResult out;
  const BoundingBox clipped = region.intersection(geohash::decode(partition));
  if (!clipped.valid() || !time.valid() || time.begin >= time.end) return out;

  // One block file per (partition, day): each day touched costs one seek,
  // and each day's records reflect that block's current version.
  const std::int64_t first_day =
      time.begin / 86400 - (time.begin % 86400 < 0 ? 1 : 0);
  const std::int64_t last_day = (time.end - 1) / 86400;
  for (std::int64_t day = first_day; day <= last_day; ++day) {
    const TimeRange day_range{std::max(time.begin, day * 86400),
                              std::min(time.end, (day + 1) * 86400)};
    const BlockKey block{std::string(partition), day};
    std::uint64_t version = block_version(block);
    const auto rot = rot_.find(block);
    if (rot != rot_.end()) {
      if (verify_checksums_) {
        // The block's checksum no longer matches its contents: count the
        // failure, quarantine it for the scrubber, charge the seek that
        // discovered the rot, and withhold its records so the caller
        // answers degraded instead of wrong.  Scans run concurrently on
        // wall-clock worker threads; only this cold path takes the lock.
        {
          MutexLock lock(integrity_mutex_);
          ++integrity_.checksum_failures;
          if (quarantine_.insert(block).second)
            ++integrity_.blocks_quarantined;
        }
        ++out.stats.blocks_touched;
        ++out.stats.blocks_corrupt;
        out.corrupt_blocks.push_back(block);
        continue;
      }
      // Verification off: serve the rotted bytes.  The salt perturbs the
      // version, so the records are plausible but wrong — silent corruption.
      version ^= rot->second;
    }
    const NamGenerator::Grid grid =
        generator_->grid(clipped, day_range, version);
    ++out.stats.blocks_touched;
    out.stats.records_scanned += grid.size();
    out.stats.bytes_read += grid.size() * kObservationBytes;
    aggregate(*generator_, grid, res, out.cells);
  }
  return out;
}

std::uint64_t GalileoStore::ingest_update(const BlockKey& key) {
  if (key.partition.size() != static_cast<std::size_t>(prefix_len_))
    throw std::invalid_argument("GalileoStore::ingest_update: bad partition key");
  // A rewrite replaces the block's bytes wholesale, healing any rot.
  rot_.erase(key);
  {
    MutexLock lock(integrity_mutex_);
    quarantine_.erase(key);
  }
  return ++versions_[key];
}

void GalileoStore::rot_block(const BlockKey& key) {
  if (key.partition.size() != static_cast<std::size_t>(prefix_len_))
    throw std::invalid_argument("GalileoStore::rot_block: bad partition key");
  // Fold the key into the salt so distinct blocks rot differently; keep it
  // non-zero so the version perturbation never degenerates to a no-op.
  std::uint64_t salt = fnv1a(key.partition);
  hash_combine(salt, static_cast<std::uint64_t>(key.day));
  if (salt == 0) salt = 1;
  rot_[key] = salt;
  MutexLock lock(integrity_mutex_);
  ++integrity_.blocks_rotted;
}

bool GalileoStore::repair_block(const BlockKey& key) {
  const bool was_bad = rot_.erase(key) > 0;
  MutexLock lock(integrity_mutex_);
  const bool was_quarantined = quarantine_.erase(key) > 0;
  if (was_bad || was_quarantined) ++integrity_.blocks_repaired;
  return was_bad || was_quarantined;
}

bool GalileoStore::block_rotted(const BlockKey& key) const {
  return rot_.contains(key);
}

bool GalileoStore::block_quarantined(const BlockKey& key) const {
  MutexLock lock(integrity_mutex_);
  return quarantine_.contains(key);
}

bool GalileoStore::verify_block(const BlockKey& key) const {
  return !rot_.contains(key);
}

std::size_t GalileoStore::scrub() {
  std::size_t newly = 0;
  MutexLock lock(integrity_mutex_);
  for (const auto& [key, salt] : rot_) {
    if (!quarantine_.insert(key).second) continue;
    ++integrity_.checksum_failures;
    ++integrity_.blocks_quarantined;
    ++newly;
  }
  return newly;
}

std::vector<BlockKey> GalileoStore::quarantine_list() const {
  MutexLock lock(integrity_mutex_);
  return {quarantine_.begin(), quarantine_.end()};
}

GalileoStore::IntegrityStats GalileoStore::integrity() const {
  MutexLock lock(integrity_mutex_);
  return integrity_;
}

std::uint64_t GalileoStore::block_version(const BlockKey& key) const {
  const auto it = versions_.find(key);
  return it == versions_.end() ? 0 : it->second;
}

ScanResult GalileoStore::scan(const BoundingBox& region, const TimeRange& time,
                              const Resolution& res) const {
  ScanResult total;
  for (const auto& partition : geohash::covering(region, prefix_len_)) {
    ScanResult part = scan_partition(partition, region, time, res);
    total.stats += part.stats;
    total.corrupt_blocks.insert(total.corrupt_blocks.end(),
                                part.corrupt_blocks.begin(),
                                part.corrupt_blocks.end());
    splice_cells(part.cells, total.cells);
  }
  return total;
}

std::size_t GalileoStore::block_bytes(const BlockKey& key) const {
  const BoundingBox box = geohash::decode(key.partition);
  const TimeRange day{key.day * 86400, (key.day + 1) * 86400};
  return generator_->count(box, day) * kObservationBytes;
}

}  // namespace stash
