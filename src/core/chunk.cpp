#include "core/chunk.hpp"

namespace stash {

std::vector<ChunkKey> chunk_neighbors(const ChunkKey& key) {
  std::vector<ChunkKey> out;
  out.reserve(10);
  for (geohash::Direction d : geohash::kAllDirections)
    if (const auto n = geohash::neighbor_packed(key.prefix, d))
      out.emplace_back(*n, key.temporal);
  const TemporalBin bin = key.bin();
  out.emplace_back(key.prefix, bin.prev().pack());
  out.emplace_back(key.prefix, bin.next().pack());
  return out;
}

std::vector<ChunkChildLevel> chunk_child_levels(const Resolution& res,
                                                const ChunkKey& chunk,
                                                int chunk_precision) {
  const std::string prefix = chunk.prefix_str();
  const TemporalBin bin = chunk.bin();
  std::vector<ChunkChildLevel> out;
  if (res.spatial < geohash::kMaxPrecision) {
    ChunkChildLevel level{{res.spatial + 1, res.temporal}, {}, true};
    if (res.spatial < chunk_precision) {
      // Child chunks are the 32 finer prefixes.
      for (const auto& child : geohash::children(prefix))
        level.chunks.emplace_back(child, bin);
    } else {
      // Chunk precision saturated: the child level shares this chunk key.
      level.chunks.emplace_back(prefix, bin);
    }
    out.push_back(std::move(level));
  }
  if (const auto finer_t = finer(res.temporal)) {
    ChunkChildLevel level{{res.spatial, *finer_t}, {}, false};
    for (const auto& child_bin : bin.children())
      level.chunks.emplace_back(prefix, child_bin);
    out.push_back(std::move(level));
  }
  return out;
}

}  // namespace stash
