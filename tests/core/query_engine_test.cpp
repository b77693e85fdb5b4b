#include "core/query_engine.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/civil_time.hpp"
#include "geo/geohash.hpp"

namespace stash {
namespace {

using sim::kSecond;

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : graph_(make_config()), engine_(graph_, store_) {}

  static StashConfig make_config() {
    StashConfig config;
    config.max_cells = 10'000'000;  // no eviction unless a test forces it
    return config;
  }

  static AggregationQuery county_query() {
    // County-sized (0.6° x 1.2°) around Kansas, 2015-02-02, s6/Day.
    return {{38.0, 38.6, -99.0, -97.8},
            TemporalBin(TemporalRes::Day, 2015, 2, 2).range(),
            {6, TemporalRes::Day}};
  }

  /// Asserts two cell maps agree exactly on keys and approximately on sums.
  static void expect_same_cells(const CellSummaryMap& a, const CellSummaryMap& b) {
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [key, summary] : a) {
      const auto it = b.find(key);
      ASSERT_NE(it, b.end()) << key.label();
      EXPECT_TRUE(summary.approx_equals(it->second)) << key.label();
    }
  }

  std::shared_ptr<const NamGenerator> gen_ = std::make_shared<NamGenerator>();
  GalileoStore store_{gen_};
  StashGraph graph_;
  QueryEngine engine_;
};

TEST_F(QueryEngineTest, RejectsInvalidQueries) {
  AggregationQuery bad = county_query();
  bad.time = {100, 50};
  EXPECT_THROW((void)engine_.evaluate(bad), std::invalid_argument);
  bad = county_query();
  bad.res.spatial = 1;  // coarser than the DHT partition prefix
  EXPECT_THROW((void)engine_.evaluate(bad), std::invalid_argument);
}

TEST_F(QueryEngineTest, ColdQueryMatchesDirectScan) {
  const auto query = county_query();
  const Evaluation eval = engine_.evaluate(query);
  const ScanResult direct = store_.scan(query.area, query.time, query.res);
  // Tile semantics: the evaluation returns every cell the raw scan finds
  // (cells at the query edge may aggregate a few records outside the box,
  // so compare on the keys the direct scan produced).
  ASSERT_FALSE(direct.cells.empty());
  for (const auto& [key, summary] : direct.cells) {
    ASSERT_TRUE(eval.cells.contains(key)) << key.label();
    // Full-bin cells hold at least the records the clipped scan saw.
    EXPECT_GE(eval.cells.at(key).observation_count(), summary.observation_count());
  }
  EXPECT_GT(eval.breakdown.chunks_scanned, 0u);
  EXPECT_EQ(eval.breakdown.chunks_from_cache, 0u);
  EXPECT_GT(eval.breakdown.scan.records_scanned, 0u);
}

TEST_F(QueryEngineTest, WarmQueryIsPureCacheHitAndIdentical) {
  const auto query = county_query();
  Evaluation cold = engine_.evaluate(query);
  engine_.absorb(cold, query.res, 0);

  Evaluation warm = engine_.evaluate(query);
  EXPECT_EQ(warm.breakdown.chunks_scanned, 0u);
  EXPECT_EQ(warm.breakdown.scan.records_scanned, 0u);
  EXPECT_EQ(warm.breakdown.chunks_from_cache, warm.breakdown.chunks_total);
  expect_same_cells(cold.cells, warm.cells);
}

TEST_F(QueryEngineTest, BasicModeNeverUsesCache) {
  const auto query = county_query();
  Evaluation first = engine_.evaluate(query);
  engine_.absorb(first, query.res, 0);
  Evaluation again = engine_.evaluate(query, EvalMode::Basic);
  EXPECT_EQ(again.breakdown.chunks_from_cache, 0u);
  EXPECT_EQ(again.breakdown.cache_probes, 0u);
  EXPECT_GT(again.breakdown.scan.records_scanned, 0u);
  expect_same_cells(first.cells, again.cells);
}

TEST_F(QueryEngineTest, OverlappingQueryReusesSharedChunks) {
  // The panning scenario (§VIII-D.3): shift the box 25% east; the overlap
  // should come from cache, only the new margin from disk.
  const auto query = county_query();
  engine_.absorb(engine_.evaluate(query), query.res, 0);

  AggregationQuery panned = query;
  panned.area = query.area.translated(0.0, query.area.width() * 0.25);
  const Evaluation eval = engine_.evaluate(panned);
  EXPECT_GT(eval.breakdown.chunks_from_cache, 0u);
  EXPECT_GT(eval.breakdown.chunks_scanned, 0u);
  EXPECT_LT(eval.breakdown.chunks_scanned, eval.breakdown.chunks_total / 2);

  // Cross-check against a fresh engine evaluating the panned query cold.
  StashGraph cold_graph(make_config());
  QueryEngine cold_engine(cold_graph, store_);
  expect_same_cells(cold_engine.evaluate(panned).cells, eval.cells);
}

TEST_F(QueryEngineTest, NestedQueryIsFullyCached) {
  // Descending iterative dicing (§VIII-D.1): a subset of a cached query
  // needs no disk at all.
  AggregationQuery big = county_query();
  engine_.absorb(engine_.evaluate(big), big.res, 0);
  AggregationQuery small = big;
  small.area = big.area.scaled(0.5);
  const Evaluation eval = engine_.evaluate(small);
  EXPECT_EQ(eval.breakdown.chunks_scanned, 0u);
  EXPECT_GT(eval.breakdown.chunks_from_cache, 0u);
}

TEST_F(QueryEngineTest, RollUpSynthesizesFromFinerSpatialLevel) {
  // §V-B: missing values "available by computing from the existing cached
  // values" must not touch disk.  Cache s6 cells, then query s5.
  AggregationQuery fine = county_query();
  engine_.absorb(engine_.evaluate(fine), fine.res, 0);

  AggregationQuery coarse = fine;
  coarse.res.spatial = 5;
  const Evaluation eval = engine_.evaluate(coarse);
  EXPECT_EQ(eval.breakdown.scan.records_scanned, 0u);
  EXPECT_EQ(eval.breakdown.chunks_scanned, 0u);
  EXPECT_GT(eval.breakdown.chunks_synthesized, 0u);
  EXPECT_GT(eval.breakdown.synthesis_merges, 0u);

  // Synthesized cells equal a cold scan at the coarse resolution.
  StashGraph cold_graph(make_config());
  QueryEngine cold_engine(cold_graph, store_);
  expect_same_cells(cold_engine.evaluate(coarse).cells, eval.cells);
}

TEST_F(QueryEngineTest, RollUpSynthesizesFromFinerTemporalLevel) {
  AggregationQuery hourly = county_query();
  hourly.res.temporal = TemporalRes::Hour;
  engine_.absorb(engine_.evaluate(hourly), hourly.res, 0);

  AggregationQuery daily = county_query();
  const Evaluation eval = engine_.evaluate(daily);
  EXPECT_EQ(eval.breakdown.scan.records_scanned, 0u);
  EXPECT_GT(eval.breakdown.chunks_synthesized, 0u);

  StashGraph cold_graph(make_config());
  QueryEngine cold_engine(cold_graph, store_);
  expect_same_cells(cold_engine.evaluate(daily).cells, eval.cells);
}

TEST_F(QueryEngineTest, SynthesizedChunksBecomeResident) {
  AggregationQuery fine = county_query();
  engine_.absorb(engine_.evaluate(fine), fine.res, 0);
  AggregationQuery coarse = fine;
  coarse.res.spatial = 5;
  engine_.absorb(engine_.evaluate(coarse), coarse.res, kSecond);
  // Second coarse query: pure cache hit, no synthesis work.
  const Evaluation again = engine_.evaluate(coarse);
  EXPECT_EQ(again.breakdown.chunks_synthesized, 0u);
  EXPECT_EQ(again.breakdown.chunks_from_cache, again.breakdown.chunks_total);
}

TEST_F(QueryEngineTest, CacheOnlyModeNeverScans) {
  const auto query = county_query();
  const Evaluation miss = engine_.evaluate(query, EvalMode::CacheOnly);
  EXPECT_TRUE(miss.cells.empty());
  EXPECT_EQ(miss.breakdown.scan.records_scanned, 0u);
  EXPECT_EQ(miss.breakdown.chunks_missing, miss.breakdown.chunks_total);

  engine_.absorb(engine_.evaluate(query), query.res, 0);
  const Evaluation hit = engine_.evaluate(query, EvalMode::CacheOnly);
  EXPECT_EQ(hit.breakdown.chunks_missing, 0u);
  EXPECT_FALSE(hit.cells.empty());
}

TEST_F(QueryEngineTest, PartialChunkScansOnlyMissingDays) {
  // A month query after one cached day fetches the other 27 days only.
  AggregationQuery day = county_query();
  engine_.absorb(engine_.evaluate(day), day.res, 0);

  AggregationQuery month = county_query();
  month.res.temporal = TemporalRes::Month;
  month.time = TemporalBin(TemporalRes::Month, 2015, 2).range();
  const Evaluation eval = engine_.evaluate(month);
  // The Month level is distinct from the Day level: nothing is resident at
  // Month yet, but a full temporal-children synthesis is impossible (only
  // one day cached), so it scans the whole bin at Month level.
  EXPECT_GT(eval.breakdown.scan.records_scanned, 0u);

  engine_.absorb(eval, month.res, kSecond);
  // Invalidate one day's block: affected chunks are dropped, the next
  // month query recomputes them — and the recomputed values must equal a
  // cold evaluation exactly (no double counting).
  const std::int64_t feb10 = days_from_civil({2015, 2, 10});
  EXPECT_EQ(graph_.invalidate_block("9q", feb10), 0u);  // not a Kansas partition
  const std::size_t dropped =
      graph_.invalidate_block(geohash::encode({38.3, -98.4}, 2), feb10);
  EXPECT_GT(dropped, 0u);
  const Evaluation after = engine_.evaluate(month);
  EXPECT_GT(after.breakdown.scan.records_scanned, 0u);

  StashGraph cold_graph(make_config());
  QueryEngine cold_engine(cold_graph, store_);
  expect_same_cells(cold_engine.evaluate(month).cells, after.cells);
}

TEST_F(QueryEngineTest, MaintenanceAccountsWorkAndEviction) {
  StashConfig tight = make_config();
  tight.max_cells = 8;
  tight.safe_limit_fraction = 0.5;
  StashGraph tight_graph(tight);
  QueryEngine tight_engine(tight_graph, store_);
  const auto query = county_query();
  const Evaluation eval = tight_engine.evaluate(query);
  const MaintenanceStats stats = tight_engine.absorb(eval, query.res, 0);
  EXPECT_GT(stats.cells_absorbed, 0u);
  EXPECT_GT(stats.freshness_updates, 0u);
  EXPECT_GT(stats.cells_evicted, 0u);  // 50-cell capacity forces eviction
  EXPECT_LE(tight_graph.total_cells(), tight.safe_limit());
}

TEST_F(QueryEngineTest, EmptyRegionQueryReturnsNoCells) {
  AggregationQuery ocean = county_query();
  ocean.area = {-10.0, -9.0, -30.0, -29.0};  // mid-Atlantic, outside coverage
  const Evaluation eval = engine_.evaluate(ocean);
  EXPECT_TRUE(eval.cells.empty());
  // The chunks are still tracked as known-empty after absorb: no rescan.
  engine_.absorb(eval, ocean.res, 0);
  const Evaluation again = engine_.evaluate(ocean);
  EXPECT_EQ(again.breakdown.chunks_scanned, 0u);
}

TEST_F(QueryEngineTest, EvaluatePartitionRestrictsToPartition) {
  const auto query = county_query();
  const auto partitions = geohash::covering(query.area, 2);
  Evaluation merged;
  for (const auto& p : partitions) {
    Evaluation part = engine_.evaluate_partition(p, query);
    for (const auto& [key, summary] : part.cells) {
      EXPECT_TRUE(geohash::decode(p).contains(key.bounds())) << key.label();
      EXPECT_TRUE(merged.cells.try_emplace(key, summary).second)
          << "cell in two partitions: " << key.label();
    }
  }
  expect_same_cells(merged.cells, engine_.evaluate(query).cells);
}

TEST_F(QueryEngineTest, TouchedChunksCoverQueryFootprint) {
  const auto query = county_query();
  const Evaluation eval = engine_.evaluate(query);
  EXPECT_EQ(eval.touched_chunks.size(), eval.breakdown.chunks_total);
  for (const auto& chunk : eval.touched_chunks)
    EXPECT_TRUE(chunk.bounds().intersects(query.area)) << chunk.label();
}

// DESIGN.md §13.2: at one resolution a cell belongs to exactly one chunk
// of one partition, which is what lets QueryEngine::fold_chunk build the
// answer as a plain union.  Each case evaluates every chunk of every
// partition into its own map, over every (spatial >= partition prefix,
// temporal) level, and asserts no CellKey comes from two chunks.  The
// cases cross boxes on and across chunk and partition edges with a
// one-day and a month-crossing range.  Cached mode walks the levels
// finest first in one graph and re-evaluates each level warm, so the
// sweep crosses the scan, roll-up and cache paths.
struct DisjointCase {
  std::string name;
  BoundingBox box;
  TimeRange range;
};

std::vector<DisjointCase> disjoint_cases() {
  const BoundingBox part = geohash::decode("9y");
  const BoundingBox chunk = geohash::decode("9yf5");
  const std::vector<std::pair<const char*, BoundingBox>> boxes = {
      // Exactly one chunk: every edge lies on a chunk edge.
      {"OnChunkEdges", chunk},
      // In a partition corner, two edges on the partition's.
      {"OnPartitionEdges",
       {part.lat_min, part.lat_min + 0.3, part.lng_min, part.lng_min + 0.6}},
      {"AcrossChunkCorner",
       {chunk.lat_max - 0.05, chunk.lat_max + 0.05, chunk.lng_max - 0.1,
        chunk.lng_max + 0.1}},
      // Four partitions.
      {"AcrossPartitionCorner",
       {part.lat_max - 0.05, part.lat_max + 0.05, part.lng_max - 0.1,
        part.lng_max + 0.1}},
  };
  const std::int64_t noon = 12 * 3600;
  const TimeRange one_day = TemporalBin(TemporalRes::Day, 2015, 2, 2).range();
  const TimeRange month_crossing{
      TemporalBin(TemporalRes::Day, 2015, 1, 31).range().begin + noon,
      TemporalBin(TemporalRes::Day, 2015, 2, 1).range().begin + noon};
  std::vector<DisjointCase> cases;
  for (const auto& [box_name, box] : boxes) {
    cases.push_back({std::string(box_name) + "_OneDay", box, one_day});
    cases.push_back(
        {std::string(box_name) + "_MonthCrossing", box, month_crossing});
  }
  return cases;
}

class ChunkDisjointnessTest
    : public QueryEngineTest,
      public ::testing::WithParamInterface<DisjointCase> {
 protected:
  struct PathCounts {
    std::size_t scanned = 0;
    std::size_t synthesized = 0;
    std::size_t from_cache = 0;
  };

  /// Evaluates `query` chunk by chunk, failing on any key seen twice, and
  /// returns the chunks folded into one Evaluation (for absorb).
  Evaluation evaluate_checked(const QueryEngine& engine,
                              const AggregationQuery& query, EvalMode mode,
                              PathCounts& counts) const {
    Evaluation eval;
    std::map<CellKey, std::string> owner;
    for (const auto& partition : geohash::covering(
             query.area, store_.partition_prefix_length())) {
      const auto plan = engine.plan_partition(partition, query);
      std::set<std::int64_t> days;
      for (const ChunkKey& chunk : plan.chunks) {
        CellSummaryMap cells;
        ChunkEvalResult r = engine.evaluate_chunk(
            partition, query, plan.clipped, chunk, mode, cells);
        const std::string where = partition + "/" + chunk.label();
        for (const auto& entry : cells) {
          const auto [it, fresh] = owner.emplace(entry.first, where);
          EXPECT_TRUE(fresh) << entry.first.label() << " from " << where
                             << " and " << it->second << " for "
                             << query.to_string();
        }
        counts.scanned += r.breakdown.chunks_scanned;
        counts.synthesized += r.breakdown.chunks_synthesized;
        counts.from_cache += r.breakdown.chunks_from_cache;
        QueryEngine::fold_chunk(eval, days, chunk, std::move(r), &cells);
      }
    }
    EXPECT_EQ(eval.cells.size(), owner.size());
    return eval;
  }
};

TEST_P(ChunkDisjointnessTest, NoCellComesFromTwoChunks) {
  const DisjointCase& c = GetParam();
  // Finest first, so coarser levels can roll up from resident ones.
  const TemporalRes temporal[] = {TemporalRes::Hour, TemporalRes::Day,
                                  TemporalRes::Month, TemporalRes::Year};
  PathCounts basic, cached;
  StashGraph graph(make_config());
  QueryEngine warm_engine(graph, store_);
  sim::SimTime now = 0;
  for (int spatial = 8; spatial >= store_.partition_prefix_length();
       --spatial) {
    for (const TemporalRes t : temporal) {
      const AggregationQuery query{c.box, c.range, {spatial, t}};
      (void)evaluate_checked(engine_, query, EvalMode::Basic, basic);
      const Evaluation cold =
          evaluate_checked(warm_engine, query, EvalMode::Cached, cached);
      (void)warm_engine.absorb(cold, query.res, now += kSecond);
      (void)evaluate_checked(warm_engine, query, EvalMode::Cached, cached);
    }
  }
  EXPECT_GT(basic.scanned, 0u);
  EXPECT_EQ(basic.synthesized + basic.from_cache, 0u);
  EXPECT_GT(cached.scanned, 0u);
  EXPECT_GT(cached.synthesized, 0u);
  EXPECT_GT(cached.from_cache, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EdgesAndRanges, ChunkDisjointnessTest,
    ::testing::ValuesIn(disjoint_cases()),
    [](const ::testing::TestParamInfo<DisjointCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace stash
