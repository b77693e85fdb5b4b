// Microbenchmarks (google-benchmark) for the hot inner operations:
// geohash codec, edge derivation, DHT lookup, summary merge, graph
// probe/insert, freshness updates, PLM completeness, eviction sweeps, and
// the disk-path layers: partition scan, chunk neighbourhood and canonical
// answer encoding.

#include <benchmark/benchmark.h>

#include "client/predictor.hpp"
#include "common/codec.hpp"
#include "common/rng.hpp"
#include "core/clique.hpp"
#include "core/graph.hpp"
#include "core/plm.hpp"
#include "core/query_engine.hpp"
#include "dht/partitioner.hpp"
#include "exec/parallel_engine.hpp"
#include "exec/wall_clock.hpp"
#include "geo/geohash.hpp"
#include "sim/fault.hpp"
#include "storage/galileo_store.hpp"

namespace stash {
namespace {

const TemporalBin kDay(TemporalRes::Day, 2015, 2, 2);
const Resolution kRes6{6, TemporalRes::Day};
/// A state-sized query rectangle (Kansas/Missouri), the scan_cold shape.
const BoundingBox kStateBox{36.0, 40.0, -102.0, -94.0};

void BM_GeohashEncode(benchmark::State& state) {
  Rng rng(1);
  std::vector<LatLng> points;
  for (int i = 0; i < 1024; ++i)
    points.push_back({rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geohash::encode(points[i++ & 1023], static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_GeohashEncode)->Arg(2)->Arg(6)->Arg(12);

void BM_GeohashDecode(benchmark::State& state) {
  Rng rng(2);
  std::vector<std::string> hashes;
  for (int i = 0; i < 1024; ++i)
    hashes.push_back(geohash::encode(
        {rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)}, 6));
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(geohash::decode(hashes[i++ & 1023]));
}
BENCHMARK(BM_GeohashDecode);

void BM_GeohashNeighbors(benchmark::State& state) {
  const std::string gh = "9q8y7";
  for (auto _ : state) benchmark::DoNotOptimize(geohash::neighbors(gh));
}
BENCHMARK(BM_GeohashNeighbors);

void BM_GeohashCovering(benchmark::State& state) {
  const BoundingBox state_box{36.0, 40.0, -102.0, -94.0};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        geohash::covering(state_box, static_cast<int>(state.range(0))));
}
BENCHMARK(BM_GeohashCovering)->Arg(2)->Arg(4);

void BM_GeohashPack(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(geohash::pack("9q8y7zxbc"));
}
BENCHMARK(BM_GeohashPack);

void BM_DhtLookup(benchmark::State& state) {
  const ZeroHopDht dht(120, 2);
  Rng rng(3);
  std::vector<std::string> hashes;
  for (int i = 0; i < 1024; ++i)
    hashes.push_back(geohash::encode(
        {rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)}, 6));
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(dht.node_for(hashes[i++ & 1023]));
}
BENCHMARK(BM_DhtLookup);

void BM_SummaryMerge(benchmark::State& state) {
  Rng rng(4);
  Summary a(4);
  Summary b(4);
  for (int i = 0; i < 100; ++i) {
    double obs[4] = {rng.next_double(), rng.next_double(), rng.next_double(),
                     rng.next_double()};
    a.add_observation(obs, 4);
    b.add_observation(obs, 4);
  }
  for (auto _ : state) {
    Summary c = a;
    c.merge(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SummaryMerge);

StashGraph make_populated_graph(int chunks, int cells_per_chunk) {
  StashGraph graph;
  Rng rng(5);
  for (int c = 0; c < chunks; ++c) {
    const std::string prefix = geohash::encode(
        {rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0)}, 4);
    ChunkContribution contribution;
    contribution.res = kRes6;
    contribution.chunk = ChunkKey(prefix, kDay);
    for (int i = 0; i < cells_per_chunk; ++i) {
      std::string gh = prefix;
      gh.push_back(geohash::kAlphabet[static_cast<std::size_t>(i) % 32]);
      gh.push_back(geohash::kAlphabet[static_cast<std::size_t>(i / 32) % 32]);
      Summary s(4);
      const double obs[4] = {1.0, 2.0, 3.0, 4.0};
      s.add_observation(obs, 4);
      contribution.cells.emplace_back(CellKey(gh, kDay), std::move(s));
    }
    contribution.days.push_back(contribution.chunk.first_day());
    graph.absorb(contribution, 0);
  }
  return graph;
}

void BM_GraphProbe(benchmark::State& state) {
  const StashGraph graph = make_populated_graph(512, 16);
  Rng rng(6);
  std::vector<ChunkKey> keys;
  for (int i = 0; i < 1024; ++i)
    keys.emplace_back(
        geohash::encode({rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0)}, 4),
        kDay);
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(graph.chunk_complete(kRes6, keys[i++ & 1023]));
}
BENCHMARK(BM_GraphProbe);

void BM_GraphCollectChunk(benchmark::State& state) {
  const StashGraph graph = make_populated_graph(64, 64);
  std::vector<ChunkKey> keys;
  graph.for_each_chunk(kRes6, [&](const ChunkKey& key, const auto&) {
    keys.push_back(key);
  });
  std::size_t i = 0;
  for (auto _ : state) {
    CellSummaryMap out;
    graph.collect_chunk(kRes6, keys[i++ % keys.size()],
                        BoundingBox::whole_world(), kDay.range(), out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GraphCollectChunk);

void BM_FreshnessTouchRegion(benchmark::State& state) {
  StashGraph graph = make_populated_graph(512, 16);
  std::vector<ChunkKey> keys;
  graph.for_each_chunk(kRes6, [&](const ChunkKey& key, const auto&) {
    if (keys.size() < 32) keys.push_back(key);
  });
  sim::SimTime now = 0;
  for (auto _ : state) {
    now += 1000;
    benchmark::DoNotOptimize(graph.touch_region(kRes6, keys, now));
  }
}
BENCHMARK(BM_FreshnessTouchRegion);

void BM_PlmMissingDays(benchmark::State& state) {
  PrecisionLevelMap plm;
  const ChunkKey month("9q8y", TemporalBin(TemporalRes::Month, 2015, 2));
  const int level = level_index({6, TemporalRes::Month});
  for (int d = 0; d < 14; ++d) plm.mark_day(level, month, month.first_day() + d * 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(plm.missing_days(level, month));
}
BENCHMARK(BM_PlmMissingDays);

void BM_EvictionSweep(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    StashGraph graph = make_populated_graph(static_cast<int>(state.range(0)), 16);
    state.ResumeTiming();
    benchmark::DoNotOptimize(graph.evict_to(graph.total_cells() / 2, 1000));
  }
}
BENCHMARK(BM_EvictionSweep)->Arg(128)->Arg(512);

void BM_CliqueSelectTop(benchmark::State& state) {
  StashGraph graph = make_populated_graph(512, 16);
  const CliqueSelector selector(graph);
  for (auto _ : state)
    benchmark::DoNotOptimize(selector.select_top(1000, 50000, 64, 2));
}
BENCHMARK(BM_CliqueSelectTop);

void BM_CodecEncodePayload(benchmark::State& state) {
  const StashGraph graph = make_populated_graph(16, 32);
  std::vector<ChunkContribution> payload;
  graph.for_each_chunk(kRes6, [&](const ChunkKey& key,
                                  const StashGraph::ChunkData& data) {
    ChunkContribution c;
    c.res = kRes6;
    c.chunk = key;
    c.cells.assign(data.cells.begin(), data.cells.end());
    c.days.push_back(key.first_day());
    payload.push_back(std::move(c));
  });
  for (auto _ : state)
    benchmark::DoNotOptimize(codec::encode_replication_payload(payload));
}
BENCHMARK(BM_CodecEncodePayload);

void BM_CodecDecodePayload(benchmark::State& state) {
  const StashGraph graph = make_populated_graph(16, 32);
  std::vector<ChunkContribution> payload;
  graph.for_each_chunk(kRes6, [&](const ChunkKey& key,
                                  const StashGraph::ChunkData& data) {
    ChunkContribution c;
    c.res = kRes6;
    c.chunk = key;
    c.cells.assign(data.cells.begin(), data.cells.end());
    c.days.push_back(key.first_day());
    payload.push_back(std::move(c));
  });
  const codec::Buffer wire = codec::encode_replication_payload(payload);
  for (auto _ : state)
    benchmark::DoNotOptimize(codec::decode_replication_payload(wire));
}
BENCHMARK(BM_CodecDecodePayload);

void BM_ScanPartition(benchmark::State& state) {
  // One partition-day of a state-sized box at (6, Day): the fused
  // generate -> geohash bin -> Summary loop.  items/s is records/s.
  const GalileoStore store(std::make_shared<const NamGenerator>());
  std::size_t records = 0;
  for (auto _ : state) {
    const ScanResult r =
        store.scan_partition("9y", kStateBox, kDay.range(), kRes6);
    records += r.stats.records_scanned;
    benchmark::DoNotOptimize(r.cells.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ScanPartition);

void BM_EvaluateBasic(benchmark::State& state) {
  // Sequential QueryEngine::evaluate of a state-sized box over one day at
  // (6, Day) in Basic mode: every chunk scans, then the chunk-to-answer
  // fold.  Against BM_ScanPartition, this isolates what the per-chunk
  // scans, the day merge and the fold cost beyond the records themselves.
  const GalileoStore store(std::make_shared<const NamGenerator>());
  StashGraph graph;
  const QueryEngine engine(graph, store);
  const AggregationQuery query{kStateBox, kDay.range(), kRes6};
  std::size_t cells = 0;
  for (auto _ : state) {
    const Evaluation eval = engine.evaluate(query, EvalMode::Basic);
    cells = eval.cells.size();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["cells"] = static_cast<double>(cells);
}
BENCHMARK(BM_EvaluateBasic);

void BM_EvaluateParallel(benchmark::State& state) {
  // BM_EvaluateBasic's query through ParallelQueryEngine::evaluate with
  // range(0) workers: the claimed-chunk fan-out, the submitter's
  // in-order fold while it helps, and the batch join.  Wall time, since
  // the work happens on the pool's threads.
  const GalileoStore store(std::make_shared<const NamGenerator>());
  StashGraph graph;
  exec::ExecConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  const exec::ParallelQueryEngine engine(graph, store, config);
  const AggregationQuery query{kStateBox, kDay.range(), kRes6};
  std::size_t cells = 0;
  for (auto _ : state) {
    const Evaluation eval = engine.evaluate(query, EvalMode::Basic);
    cells = eval.cells.size();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["cells"] = static_cast<double>(cells);
}
BENCHMARK(BM_EvaluateParallel)->Arg(4)->UseRealTime();

void BM_ChunkNeighbors(benchmark::State& state) {
  const ChunkKey chunk("9q8y", kDay);
  for (auto _ : state) benchmark::DoNotOptimize(chunk_neighbors(chunk));
}
BENCHMARK(BM_ChunkNeighbors);

void BM_CanonicalAnswer(benchmark::State& state) {
  // The answer of one state-sized (6, Day) query: ~2,200 cells.
  const GalileoStore store(std::make_shared<const NamGenerator>());
  const CellSummaryMap cells = store.scan(kStateBox, kDay.range(), kRes6).cells;
  state.counters["cells"] = static_cast<double>(cells.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(exec::canonical_answer(cells));
}
BENCHMARK(BM_CanonicalAnswer);

void BM_PredictorObservePredict(benchmark::State& state) {
  const AggregationQuery base{{38.0, 39.0, -99.0, -97.0},
                              kDay.range(),
                              {6, TemporalRes::Day}};
  for (auto _ : state) {
    client::AccessPredictor predictor(2);
    AggregationQuery view = base;
    for (int i = 0; i < 8; ++i) {
      AggregationQuery next = view;
      next.area = view.area.translated(0.0, 0.25 * view.area.width());
      predictor.observe(view, next);
      view = next;
    }
    benchmark::DoNotOptimize(predictor.predict(view));
  }
}
BENCHMARK(BM_PredictorObservePredict);

void BM_FaultInjectorShouldDrop(benchmark::State& state) {
  // Per-message overhead of the fault layer on a lossy wildcard link —
  // this sits on every send_message call during chaos runs.
  sim::FaultPlan plan;
  sim::LinkRule rule;
  rule.drop_probability = 0.01;
  plan.links.push_back(rule);
  sim::FaultInjector injector(plan, 120);
  std::uint32_t from = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.should_drop(from, (from + 1) % 120));
    from = (from + 7) % 120;
  }
}
BENCHMARK(BM_FaultInjectorShouldDrop);

void BM_FaultInjectorHealthyPath(benchmark::State& state) {
  // The common case: empty plan, alive() + should_drop() must be ~free.
  sim::FaultInjector injector({}, 120);
  std::uint32_t node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.alive(node));
    benchmark::DoNotOptimize(injector.should_drop(node, (node + 1) % 120));
    node = (node + 13) % 120;
  }
}
BENCHMARK(BM_FaultInjectorHealthyPath);

}  // namespace
}  // namespace stash

BENCHMARK_MAIN();
