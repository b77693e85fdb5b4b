#include "exec/wall_clock.hpp"

#include <algorithm>
#include <utility>

#include "common/checksum.hpp"
#include "sim/clock.hpp"

namespace stash::exec {

codec::Buffer canonical_answer(const CellSummaryMap& cells) {
  // Keys are copied next to their summary pointers so the sort compares
  // contiguous values, and the answer is sized once and written in place.
  struct Entry {
    CellKey key;
    const Summary* summary;
  };
  std::vector<Entry> sorted;
  sorted.reserve(cells.size());
  std::size_t size = 0;
  for (const auto& [key, summary] : cells) {
    sorted.push_back({key, &summary});
    size += codec::encoded_size(key, summary);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  codec::Buffer out(size);
  std::uint8_t* at = out.data();
  for (const Entry& entry : sorted)
    at = codec::write_cell(at, entry.key, *entry.summary);
  return out;
}

std::uint64_t answer_digest(const CellSummaryMap& cells, std::uint64_t seed) {
  const codec::Buffer bytes = canonical_answer(cells);
  return checksum64(bytes.data(), bytes.size(), seed);
}

namespace {

template <typename Engine>
RunResult run_queries(Engine& engine,
                      const std::vector<AggregationQuery>& queries,
                      EvalMode mode) {
  RunResult out;
  out.digest = kChecksumSeed;
  for (const AggregationQuery& query : queries) {
    const Evaluation eval = engine.evaluate(query, mode);
    const codec::Buffer bytes = canonical_answer(eval.cells);
    const std::uint64_t digest =
        checksum64(bytes.data(), bytes.size(), out.digest);
    out.per_query.push_back(digest);
    out.digest = digest;
    out.cells += eval.cells.size();
    out.bytes += bytes.size();
    ++out.queries;
    // Deterministic pseudo-time: both modes absorb at the same instants,
    // so freshness and eviction state evolve identically.
    engine.absorb(eval, query.res,
                  static_cast<sim::SimTime>(out.queries) * sim::kMillisecond);
  }
  return out;
}

}  // namespace

RunResult run_queries_sim(StashGraph& graph, const GalileoStore& store,
                          const std::vector<AggregationQuery>& queries,
                          EvalMode mode) {
  QueryEngine engine(graph, store);
  return run_queries(engine, queries, mode);
}

RunResult run_queries_wallclock(StashGraph& graph, const GalileoStore& store,
                                const std::vector<AggregationQuery>& queries,
                                const ExecConfig& config, EvalMode mode) {
  ParallelQueryEngine engine(graph, store, config);
  return run_queries(engine, queries, mode);
}

}  // namespace stash::exec
