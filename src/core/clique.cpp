#include "core/clique.hpp"

#include <algorithm>
#include <set>

namespace stash {
namespace {

/// Chunks of the child level covering the same region as `chunk`.
std::vector<ChunkKey> child_level_chunks(const ChunkKey& chunk,
                                         const Resolution& res,
                                         const Resolution& child_res,
                                         int chunk_precision) {
  std::vector<ChunkKey> out;
  const std::string prefix = chunk.prefix_str();
  const TemporalBin bin = chunk.bin();

  std::vector<std::string> prefixes;
  if (child_res.spatial > res.spatial &&
      static_cast<int>(prefix.size()) < chunk_precision) {
    prefixes = geohash::children(prefix);
  } else {
    prefixes.push_back(prefix);
  }
  std::vector<TemporalBin> bins;
  if (child_res.temporal != res.temporal) {
    bins = bin.children();
  } else {
    bins.push_back(bin);
  }
  out.reserve(prefixes.size() * bins.size());
  for (const auto& p : prefixes)
    for (const auto& b : bins) out.emplace_back(p, b);
  return out;
}

}  // namespace

Clique CliqueSelector::build(const Resolution& res, const ChunkKey& root,
                             int depth, sim::SimTime now) const {
  Clique clique;
  clique.root_res = res;
  clique.root = root;

  // BFS over hierarchical refinements, bounded by depth.
  struct Frontier {
    Resolution res;
    ChunkKey chunk;
  };
  std::vector<Frontier> frontier{{res, root}};
  std::set<std::pair<int, ChunkKey>> seen{{level_index(res), root}};
  const int chunk_prec = graph_.config().chunk_precision;

  for (int step = 0; step < depth; ++step) {
    std::vector<Frontier> next;
    for (const auto& f : frontier) {
      const auto* data = graph_.find_chunk(f.res, f.chunk);
      if (data != nullptr) {
        clique.members.push_back({f.res, f.chunk, data->cells.size()});
        clique.cell_count += data->cells.size();
        clique.freshness +=
            data->freshness.at(now, graph_.config().freshness_half_life);
      }
      if (step + 1 == depth) continue;
      for (const auto& child_res : child_resolutions(f.res)) {
        for (const auto& child :
             child_level_chunks(f.chunk, f.res, child_res, chunk_prec)) {
          if (!seen.insert({level_index(child_res), child}).second) continue;
          // Only descend into resident chunks: absent regions contribute
          // nothing and exploring them would blow the fan-out up.
          if (graph_.find_chunk(child_res, child) != nullptr)
            next.push_back({child_res, child});
        }
      }
    }
    frontier = std::move(next);
  }
  return clique;
}

std::vector<Clique> CliqueSelector::select_top(sim::SimTime now,
                                               std::size_t max_cells,
                                               std::size_t max_cliques,
                                               int depth) const {
  // Candidate roots: every resident chunk, scored by its own freshness
  // first (cheap), then expanded into full Cliques greedily.
  struct Candidate {
    double score;
    Resolution res;
    ChunkKey chunk;
  };
  std::vector<Candidate> candidates;
  for (int lvl = 0; lvl < kNumLevels; ++lvl) {
    const Resolution res = resolution_of_level(lvl);
    graph_.for_each_chunk(res, [&](const ChunkKey& key,
                                   const StashGraph::ChunkData& data) {
      const double f = data.freshness.at(now, graph_.config().freshness_half_life);
      if (f > 0.0) candidates.push_back({f, res, key});
    });
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (level_index(a.res) != level_index(b.res))
                return level_index(a.res) < level_index(b.res);
              return a.chunk < b.chunk;
            });

  std::vector<Clique> selected;
  std::set<std::pair<int, ChunkKey>> covered;
  std::size_t total_cells = 0;
  for (const auto& candidate : candidates) {
    if (selected.size() >= max_cliques) break;
    if (covered.contains({level_index(candidate.res), candidate.chunk})) continue;
    Clique clique = build(candidate.res, candidate.chunk, depth, now);
    // Zero-cell cliques are kept: a known-empty chunk is cacheable state
    // (its residency lets the helper answer "no data here" without disk).
    if (clique.members.empty()) continue;
    if (total_cells + clique.cell_count > max_cells) continue;
    for (const auto& member : clique.members)
      covered.insert({level_index(member.res), member.chunk});
    total_cells += clique.cell_count;
    selected.push_back(std::move(clique));
  }
  return selected;
}

namespace {

/// Appends (res, chunk) as a contribution iff the graph holds it complete.
void append_complete_chunk(const StashGraph& graph, const Resolution& res,
                           const ChunkKey& chunk,
                           std::vector<ChunkContribution>& payload) {
  if (!graph.chunk_complete(res, chunk)) return;
  const auto* data = graph.find_chunk(res, chunk);
  if (data == nullptr) return;
  ChunkContribution c;
  c.res = res;
  c.chunk = chunk;
  c.cells.assign(data->cells.begin(), data->cells.end());
  c.days = chunk.days();
  payload.push_back(std::move(c));
}

}  // namespace

std::vector<ChunkContribution> clique_payload(const StashGraph& graph,
                                              const Clique& clique) {
  std::vector<ChunkContribution> payload;
  payload.reserve(clique.members.size());
  for (const auto& member : clique.members)
    append_complete_chunk(graph, member.res, member.chunk, payload);
  return payload;
}

std::vector<ChunkContribution> chunk_payload(
    const StashGraph& graph,
    const std::vector<std::pair<Resolution, ChunkKey>>& chunks) {
  std::vector<ChunkContribution> payload;
  payload.reserve(chunks.size());
  for (const auto& [res, chunk] : chunks)
    append_complete_chunk(graph, res, chunk, payload);
  return payload;
}

}  // namespace stash
