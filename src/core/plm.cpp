#include "core/plm.hpp"

#include <stdexcept>

#include "common/checksum.hpp"

namespace stash {
namespace {

std::size_t day_bit(const ChunkKey& chunk, std::int64_t day) {
  const std::int64_t first = chunk.first_day();
  const auto count = static_cast<std::int64_t>(chunk.day_count());
  if (day < first || day >= first + count)
    throw std::invalid_argument("PrecisionLevelMap: day outside the chunk's bin");
  return static_cast<std::size_t>(day - first);
}

}  // namespace

PrecisionLevelMap::LevelMap& PrecisionLevelMap::level(int idx) {
  if (idx < 0 || idx >= kNumLevels)
    throw std::out_of_range("PrecisionLevelMap: bad level index");
  return levels_[static_cast<std::size_t>(idx)];
}

const PrecisionLevelMap::LevelMap& PrecisionLevelMap::level(int idx) const {
  if (idx < 0 || idx >= kNumLevels)
    throw std::out_of_range("PrecisionLevelMap: bad level index");
  return levels_[static_cast<std::size_t>(idx)];
}

void PrecisionLevelMap::mark_day(int lvl, const ChunkKey& chunk, std::int64_t day) {
  auto [it, inserted] = level(lvl).try_emplace(chunk, chunk.day_count());
  it->second.set(day_bit(chunk, day));
}

void PrecisionLevelMap::mark_all(int lvl, const ChunkKey& chunk) {
  auto [it, inserted] = level(lvl).try_emplace(chunk, chunk.day_count());
  for (std::size_t i = 0; i < it->second.size(); ++i) it->second.set(i);
}

bool PrecisionLevelMap::is_complete(int lvl, const ChunkKey& chunk) const {
  const auto& map = level(lvl);
  const auto it = map.find(chunk);
  return it != map.end() && it->second.all();
}

bool PrecisionLevelMap::all_complete(int lvl,
                                     const std::vector<ChunkKey>& chunks) const {
  const auto& map = level(lvl);
  for (const ChunkKey& chunk : chunks) {
    const auto it = map.find(chunk);
    if (it == map.end() || !it->second.all()) return false;
  }
  return true;
}

bool PrecisionLevelMap::is_known(int lvl, const ChunkKey& chunk) const {
  return level(lvl).contains(chunk);
}

std::vector<std::int64_t> PrecisionLevelMap::missing_days(
    int lvl, const ChunkKey& chunk) const {
  const std::int64_t first = chunk.first_day();
  const auto& map = level(lvl);
  const auto it = map.find(chunk);
  std::vector<std::int64_t> out;
  if (it == map.end()) return chunk.days();
  for (std::size_t i : it->second.zero_indices())
    out.push_back(first + static_cast<std::int64_t>(i));
  return out;
}

void PrecisionLevelMap::erase(int lvl, const ChunkKey& chunk) {
  level(lvl).erase(chunk);
}

std::size_t PrecisionLevelMap::invalidate_block(std::string_view partition,
                                                std::int64_t day) {
  std::size_t demoted = 0;
  for (auto& lvl : levels_) {
    for (auto& [chunk, bits] : lvl) {
      const std::string prefix = chunk.prefix_str();
      // A chunk is affected when its prefix and the partition nest either way.
      const bool spatial_hit = prefix.size() >= partition.size()
                                   ? std::string_view(prefix).substr(
                                         0, partition.size()) == partition
                                   : partition.substr(0, prefix.size()) == prefix;
      if (!spatial_hit) continue;
      const std::int64_t first = chunk.first_day();
      const auto count = static_cast<std::int64_t>(chunk.day_count());
      if (day < first || day >= first + count) continue;
      const bool was_complete = bits.all();
      bits.reset(static_cast<std::size_t>(day - first));
      if (was_complete) ++demoted;
    }
  }
  return demoted;
}

std::uint64_t PrecisionLevelMap::bitmap_hash(int lvl,
                                             const ChunkKey& chunk) const {
  const auto& map = level(lvl);
  const auto it = map.find(chunk);
  if (it == map.end()) return 0;
  const DynamicBitset& bits = it->second;
  // Built on the shared integrity checksum (common/checksum.hpp) so an
  // anti-entropy digest mismatch detects rotted content as well as
  // divergent coverage — the same primitive the frame footer verifies.
  Checksum64 sum(0x504c4d44ULL);  // "PLMD" domain separation
  sum.mix(bits.size());
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits.test(i)) word |= 1ULL << (i & 63);
    if ((i & 63) == 63) {
      sum.mix(word);
      word = 0;
    }
  }
  if (bits.size() % 64 != 0) sum.mix(word);
  const std::uint64_t h = sum.digest();
  return h == 0 ? 1 : h;  // 0 is reserved for "unknown"
}

std::size_t PrecisionLevelMap::chunk_count(int lvl) const {
  return level(lvl).size();
}

std::size_t PrecisionLevelMap::total_chunks() const {
  std::size_t total = 0;
  for (const auto& lvl : levels_) total += lvl.size();
  return total;
}

}  // namespace stash
