#include "storage/galileo_store.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/civil_time.hpp"
#include "dht/partitioner.hpp"

namespace stash {
namespace {

class GalileoStoreTest : public ::testing::Test {
 protected:
  std::shared_ptr<const NamGenerator> gen_ = std::make_shared<NamGenerator>();
  GalileoStore store_{gen_};
  TimeRange feb2_{unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 3})};
  Resolution res6_{6, TemporalRes::Day};
};

TEST_F(GalileoStoreTest, ConstructionValidation) {
  EXPECT_THROW(GalileoStore(nullptr), std::invalid_argument);
  EXPECT_THROW(GalileoStore(gen_, 0), std::invalid_argument);
  EXPECT_THROW(GalileoStore(gen_, 13), std::invalid_argument);
}

TEST_F(GalileoStoreTest, ScanPartitionValidatesInput) {
  EXPECT_THROW(
      (void)store_.scan_partition("9q8", BoundingBox::whole_world(), feb2_, res6_),
      std::invalid_argument);
  EXPECT_THROW((void)store_.scan_partition(
                   "9q", BoundingBox::whole_world(), feb2_,
                   Resolution{0, TemporalRes::Day}),
               std::invalid_argument);
}

TEST_F(GalileoStoreTest, ScanClipsToPartition) {
  // Scan "9q" (California-ish) with a world region: all cells stay inside.
  const auto result =
      store_.scan_partition("9q", BoundingBox::whole_world(), feb2_, res6_);
  ASSERT_FALSE(result.cells.empty());
  const BoundingBox partition_box = geohash::decode("9q");
  for (const auto& [key, summary] : result.cells) {
    EXPECT_TRUE(partition_box.contains(key.bounds())) << key.label();
    EXPECT_GT(summary.observation_count(), 0u);
  }
}

TEST_F(GalileoStoreTest, CellCountsAddUpToRecords) {
  const BoundingBox box{36.0, 38.0, -122.0, -120.0};
  const auto result = store_.scan_partition("9q", box, feb2_, res6_);
  std::uint64_t total = 0;
  for (const auto& [key, summary] : result.cells)
    total += summary.observation_count();
  EXPECT_EQ(total, result.stats.records_scanned);
  EXPECT_EQ(result.stats.records_scanned,
            gen_->count(box.intersection(geohash::decode("9q")), feb2_));
  EXPECT_EQ(result.stats.bytes_read,
            result.stats.records_scanned * kObservationBytes);
  EXPECT_EQ(result.stats.blocks_touched, 1u);  // one day = one block
}

TEST_F(GalileoStoreTest, EveryRecordLandsInItsCell) {
  const BoundingBox box{36.0, 37.0, -122.0, -121.0};
  const auto result = store_.scan_partition("9q", box, feb2_, res6_);
  for (const auto& obs : gen_->generate(box.intersection(geohash::decode("9q")),
                                        feb2_)) {
    const CellKey key(geohash::encode(obs.position, 6),
                      TemporalBin::of_timestamp(obs.timestamp, TemporalRes::Day));
    ASSERT_TRUE(result.cells.contains(key)) << key.label();
    EXPECT_TRUE(key.bounds().contains(obs.position));
  }
}

TEST_F(GalileoStoreTest, MultiDayScanTouchesOneBlockPerDay) {
  const TimeRange three_days{unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 5})};
  const BoundingBox box{36.0, 37.0, -122.0, -121.0};
  const auto result = store_.scan_partition("9q", box, three_days, res6_);
  EXPECT_EQ(result.stats.blocks_touched, 3u);
}

TEST_F(GalileoStoreTest, DisjointPartitionsDisjointCells) {
  const BoundingBox big{30.0, 45.0, -125.0, -100.0};
  const auto a = store_.scan_partition("9q", big, feb2_, res6_);
  const auto b = store_.scan_partition("9w", big, feb2_, res6_);
  for (const auto& [key, summary] : a.cells)
    EXPECT_FALSE(b.cells.contains(key)) << key.label();
}

TEST_F(GalileoStoreTest, FullScanEqualsSumOfPartitionScans) {
  const BoundingBox box{33.0, 40.0, -120.0, -110.0};  // spans several partitions
  const auto whole = store_.scan(box, feb2_, res6_);
  ScanResult manual;
  for (const auto& partition : geohash::covering(box, 2)) {
    const auto part = store_.scan_partition(partition, box, feb2_, res6_);
    manual.stats += part.stats;
    for (const auto& [key, summary] : part.cells) {
      auto [it, inserted] = manual.cells.try_emplace(key, summary);
      if (!inserted) it->second.merge(summary);
    }
  }
  EXPECT_EQ(whole.cells.size(), manual.cells.size());
  EXPECT_EQ(whole.stats.records_scanned, manual.stats.records_scanned);
  for (const auto& [key, summary] : whole.cells) {
    auto it = manual.cells.find(key);
    ASSERT_NE(it, manual.cells.end());
    EXPECT_TRUE(summary.approx_equals(it->second));
  }
}

TEST_F(GalileoStoreTest, ScanIsDeterministic) {
  const BoundingBox box{36.0, 38.0, -122.0, -120.0};
  const auto a = store_.scan(box, feb2_, res6_);
  const auto b = store_.scan(box, feb2_, res6_);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (const auto& [key, summary] : a.cells) {
    auto it = b.cells.find(key);
    ASSERT_NE(it, b.cells.end());
    EXPECT_EQ(summary, it->second);
  }
}

TEST_F(GalileoStoreTest, CoarserSpatialResolutionMergesCells) {
  const BoundingBox box{36.0, 38.0, -122.0, -120.0};
  const auto fine = store_.scan(box, feb2_, {5, TemporalRes::Day});
  const auto coarse = store_.scan(box, feb2_, {4, TemporalRes::Day});
  EXPECT_GT(fine.cells.size(), coarse.cells.size());
  // Rolling fine cells up into their spatial parents reproduces the coarse
  // scan exactly — the mergeability invariant STASH's roll-up relies on.
  CellSummaryMap rolled;
  for (const auto& [key, summary] : fine.cells) {
    const CellKey parent_key(*geohash::parent(key.geohash_str()), key.bin());
    auto [it, inserted] = rolled.try_emplace(parent_key, summary);
    if (!inserted) it->second.merge(summary);
  }
  ASSERT_EQ(rolled.size(), coarse.cells.size());
  for (const auto& [key, summary] : coarse.cells) {
    auto it = rolled.find(key);
    ASSERT_NE(it, rolled.end());
    EXPECT_TRUE(summary.approx_equals(it->second)) << key.label();
  }
}

TEST_F(GalileoStoreTest, CoarserTemporalResolutionMergesCells) {
  const BoundingBox box{36.0, 37.0, -122.0, -121.0};
  const auto hourly = store_.scan(box, feb2_, {6, TemporalRes::Hour});
  const auto daily = store_.scan(box, feb2_, {6, TemporalRes::Day});
  EXPECT_GT(hourly.cells.size(), daily.cells.size());
  CellSummaryMap rolled;
  for (const auto& [key, summary] : hourly.cells) {
    const CellKey parent_key(key.geohash_str(), *key.bin().parent());
    auto [it, inserted] = rolled.try_emplace(parent_key, summary);
    if (!inserted) it->second.merge(summary);
  }
  ASSERT_EQ(rolled.size(), daily.cells.size());
  for (const auto& [key, summary] : daily.cells) {
    auto it = rolled.find(key);
    ASSERT_NE(it, rolled.end());
    EXPECT_TRUE(summary.approx_equals(it->second)) << key.label();
  }
}

TEST_F(GalileoStoreTest, EmptyRegionsAndTimes) {
  EXPECT_TRUE(store_.scan_partition("9q", {70.0, 80.0, -122.0, -120.0}, feb2_,
                                    res6_)
                  .cells.empty());
  EXPECT_TRUE(
      store_.scan_partition("9q", {36.0, 37.0, -122.0, -121.0},
                            TimeRange{100, 100}, res6_)
          .cells.empty());
}

TEST_F(GalileoStoreTest, BlockBytesMatchesDensity) {
  const BlockKey key{"9q", days_from_civil({2015, 2, 2})};
  const std::size_t bytes = store_.block_bytes(key);
  EXPECT_EQ(bytes, gen_->count(geohash::decode("9q"),
                               {key.day * 86400, (key.day + 1) * 86400}) *
                       kObservationBytes);
  EXPECT_GT(bytes, 0u);
  // Ocean-only partition: no data, zero bytes.
  const BlockKey ocean{"s0", days_from_civil({2015, 2, 2})};
  EXPECT_EQ(store_.block_bytes(ocean), 0u);
}

TEST_F(GalileoStoreTest, BlockKeyHashDistinguishes) {
  const BlockKeyHash h;
  const BlockKey a{"9q", 100};
  const BlockKey b{"9q", 101};
  const BlockKey c{"9r", 100};
  EXPECT_NE(h(a), h(b));
  EXPECT_NE(h(a), h(c));
  EXPECT_EQ(h(a), h(BlockKey{"9q", 100}));
}

TEST_F(GalileoStoreTest, RottedBlockIsWithheldAndQuarantined) {
  const BlockKey block{"9q", unix_seconds({2015, 2, 2}) / 86400};
  store_.rot_block(block);
  EXPECT_TRUE(store_.block_rotted(block));
  EXPECT_FALSE(store_.verify_block(block));
  EXPECT_FALSE(store_.block_quarantined(block));  // nothing has read it yet

  const auto result =
      store_.scan_partition("9q", BoundingBox::whole_world(), feb2_, res6_);
  EXPECT_TRUE(result.cells.empty());  // withheld, not served wrong
  EXPECT_EQ(result.stats.blocks_corrupt, 1u);
  EXPECT_EQ(result.stats.blocks_touched, 1u);  // the seek that found the rot
  ASSERT_EQ(result.corrupt_blocks.size(), 1u);
  EXPECT_EQ(result.corrupt_blocks[0], block);
  EXPECT_TRUE(store_.block_quarantined(block));
  EXPECT_EQ(store_.integrity().checksum_failures, 1u);
  EXPECT_EQ(store_.integrity().blocks_quarantined, 1u);
  EXPECT_EQ(store_.integrity().blocks_rotted, 1u);
}

TEST_F(GalileoStoreTest, VerificationOffServesSilentlyWrongRecords) {
  // The counterfactual the checksums exist for: with verification off a
  // rotted block still yields records — plausible, but not the pristine
  // data.  This is the "silently wrong" baseline.
  const auto pristine =
      store_.scan_partition("9q", BoundingBox::whole_world(), feb2_, res6_);
  store_.rot_block({"9q", unix_seconds({2015, 2, 2}) / 86400});
  store_.set_verify_checksums(false);
  const auto rotted =
      store_.scan_partition("9q", BoundingBox::whole_world(), feb2_, res6_);
  EXPECT_EQ(rotted.stats.blocks_corrupt, 0u);  // nothing noticed
  EXPECT_TRUE(rotted.corrupt_blocks.empty());
  EXPECT_FALSE(rotted.cells.empty());
  EXPECT_NE(rotted.cells, pristine.cells);
}

TEST_F(GalileoStoreTest, RepairRestoresPristineContentExactly) {
  const BlockKey block{"9q", unix_seconds({2015, 2, 2}) / 86400};
  const auto pristine =
      store_.scan_partition("9q", BoundingBox::whole_world(), feb2_, res6_);
  store_.rot_block(block);
  (void)store_.scan_partition("9q", BoundingBox::whole_world(), feb2_, res6_);
  ASSERT_TRUE(store_.block_quarantined(block));

  EXPECT_TRUE(store_.repair_block(block));
  EXPECT_FALSE(store_.block_rotted(block));
  EXPECT_FALSE(store_.block_quarantined(block));
  EXPECT_EQ(store_.integrity().blocks_repaired, 1u);
  const auto repaired =
      store_.scan_partition("9q", BoundingBox::whole_world(), feb2_, res6_);
  EXPECT_EQ(repaired.cells, pristine.cells);
  // Repairing a healthy block is a no-op.
  EXPECT_FALSE(store_.repair_block(block));
  EXPECT_EQ(store_.integrity().blocks_repaired, 1u);
}

TEST_F(GalileoStoreTest, IngestRewriteHealsRot) {
  const BlockKey block{"9q", unix_seconds({2015, 2, 2}) / 86400};
  store_.rot_block(block);
  (void)store_.scan_partition("9q", BoundingBox::whole_world(), feb2_, res6_);
  ASSERT_TRUE(store_.block_quarantined(block));
  (void)store_.ingest_update(block);  // wholesale rewrite replaces the bytes
  EXPECT_FALSE(store_.block_rotted(block));
  EXPECT_FALSE(store_.block_quarantined(block));
  const auto after =
      store_.scan_partition("9q", BoundingBox::whole_world(), feb2_, res6_);
  EXPECT_EQ(after.stats.blocks_corrupt, 0u);
  EXPECT_FALSE(after.cells.empty());
}

TEST_F(GalileoStoreTest, ScrubFindsRotWithoutWaitingForQueries) {
  const BlockKey a{"9q", 100};
  const BlockKey b{"dr", 200};
  store_.rot_block(a);
  store_.rot_block(b);
  EXPECT_EQ(store_.scrub(), 2u);
  EXPECT_TRUE(store_.block_quarantined(a));
  EXPECT_TRUE(store_.block_quarantined(b));
  EXPECT_EQ(store_.quarantine_list().size(), 2u);
  EXPECT_EQ(store_.scrub(), 0u);  // idempotent: already quarantined
  EXPECT_EQ(store_.integrity().checksum_failures, 2u);
}

TEST_F(GalileoStoreTest, RotBlockValidatesPartitionKey) {
  EXPECT_THROW(store_.rot_block({"9q8", 0}), std::invalid_argument);
}

// --- fused scan vs the reference pipeline ---------------------------------

/// GalileoStore::rot_block's salt (the perturbation a rotted block serves
/// when verification is off).
std::uint64_t rot_salt(const BlockKey& key) {
  std::uint64_t salt = fnv1a(key.partition);
  hash_combine(salt, static_cast<std::uint64_t>(key.day));
  return salt == 0 ? 1 : salt;
}

/// scan_partition spelled out as a pipeline of public steps: generate each
/// block's records, encode each position and timestamp, add each record
/// to its cell.
ScanResult reference_scan(const GalileoStore& store, const std::string& partition,
                          const BoundingBox& region, const TimeRange& time,
                          const Resolution& res) {
  ScanResult out;
  const BoundingBox clipped = region.intersection(geohash::decode(partition));
  if (!clipped.valid() || time.begin >= time.end) return out;
  const std::int64_t first_day =
      time.begin / 86400 - (time.begin % 86400 < 0 ? 1 : 0);
  for (std::int64_t day = first_day; day <= (time.end - 1) / 86400; ++day) {
    const TimeRange day_range{std::max(time.begin, day * 86400),
                              std::min(time.end, (day + 1) * 86400)};
    const BlockKey block{partition, day};
    std::uint64_t version = store.block_version(block);
    if (store.block_rotted(block)) {
      if (store.verify_checksums()) {
        ++out.stats.blocks_touched;
        ++out.stats.blocks_corrupt;
        out.corrupt_blocks.push_back(block);
        continue;
      }
      version ^= rot_salt(block);
    }
    const ObservationList records =
        store.generator().generate(clipped, day_range, version);
    ++out.stats.blocks_touched;
    out.stats.records_scanned += records.size();
    out.stats.bytes_read += records.size() * kObservationBytes;
    for (const auto& obs : records) {
      const CellKey key(geohash::encode(obs.position, res.spatial),
                        TemporalBin::of_timestamp(obs.timestamp, res.temporal));
      auto [it, inserted] = out.cells.try_emplace(key, kNamAttributeCount);
      it->second.add_observation(obs.values.data(), obs.values.size());
    }
  }
  return out;
}

void expect_same_scan(const ScanResult& got, const ScanResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.stats.blocks_touched, want.stats.blocks_touched) << what;
  EXPECT_EQ(got.stats.records_scanned, want.stats.records_scanned) << what;
  EXPECT_EQ(got.stats.bytes_read, want.stats.bytes_read) << what;
  EXPECT_EQ(got.stats.blocks_corrupt, want.stats.blocks_corrupt) << what;
  EXPECT_EQ(got.corrupt_blocks, want.corrupt_blocks) << what;
  EXPECT_EQ(got.cells.size(), want.cells.size()) << what;
  // Exact, not approximate: same bisection, same per-cell addition order.
  EXPECT_TRUE(got.cells == want.cells) << what;
}

TEST(GalileoFusedScanTest, MatchesReferencePipelineExactly) {
  const auto gen = std::make_shared<const NamGenerator>();
  GalileoStore store(gen);
  struct Case {
    std::string partition;
    BoundingBox box;
  };
  const std::vector<Case> cases = {
      // Inside one partition.
      {"9y", {37.1, 38.3, -99.7, -98.2}},
      // Across the partition's north and west edges: clipped to it.
      {"9y", {38.9, 40.2, -102.0, -100.6}},
      // Edges exactly on grid lines (multiples of the 0.12° spacing).
      {"9y", {36.0, 36.96, -99.96, -99.0}},
      // Across the coverage's north edge (60°N) and west edge (135°W).
      {geohash::encode({59.5, -120.0}, 2), {58.9, 61.5, -121.0, -119.6}},
      {geohash::encode({40.0, -134.5}, 2), {39.4, 40.4, -136.0, -134.0}},
      // Outside the coverage entirely: nothing to scan.
      {geohash::encode({10.0, -120.0}, 2), {9.5, 10.5, -120.5, -119.5}},
  };
  const std::vector<TimeRange> times = {
      // One whole day.
      {unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 3})},
      // Partial days across a month end: slots filtered at both ends.
      {unix_seconds({2015, 1, 30}, 5), unix_seconds({2015, 2, 2}, 13)},
      // Across a year end: Month and Year bins change mid-scan.
      {unix_seconds({2015, 12, 31}), unix_seconds({2016, 1, 2})},
  };
  // Rewritten blocks (versions 1 and 2) and one rotted block.
  const std::string rewritten = "9y";
  const std::int64_t feb1 = unix_seconds({2015, 2, 1}) / 86400;
  store.ingest_update({rewritten, feb1});
  store.ingest_update({rewritten, feb1 + 1});
  store.ingest_update({rewritten, feb1 + 1});
  const BlockKey rotted{rewritten, unix_seconds({2015, 12, 31}) / 86400};
  store.rot_block(rotted);

  for (bool verify : {false, true}) {
    store.set_verify_checksums(verify);
    for (int spatial = 2; spatial <= 8; ++spatial) {
      for (TemporalRes temporal : {TemporalRes::Year, TemporalRes::Month,
                                   TemporalRes::Day, TemporalRes::Hour}) {
        const Resolution res{spatial, temporal};
        for (const Case& c : cases) {
          for (const TimeRange& t : times) {
            const std::string what = c.partition + " " + c.box.to_string() +
                                     " res " + res.to_string() + " t " +
                                     std::to_string(t.begin) + " verify " +
                                     std::to_string(verify);
            const ScanResult want =
                reference_scan(store, c.partition, c.box, t, res);
            expect_same_scan(store.scan_partition(c.partition, c.box, t, res),
                             want, what);
            if (HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_TRUE(store.block_quarantined(rotted));
}

TEST(GalileoFusedScanTest, ScansSomethingInEveryCoveredCase) {
  // Guards the sweep above against comparing empty scans only.
  const GalileoStore store(std::make_shared<const NamGenerator>());
  const TimeRange day{unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 3})};
  for (const auto& [partition, box] :
       std::vector<std::pair<std::string, BoundingBox>>{
           {"9y", {37.1, 38.3, -99.7, -98.2}},
           {geohash::encode({59.5, -120.0}, 2), {58.9, 61.5, -121.0, -119.6}},
           {geohash::encode({40.0, -134.5}, 2), {39.4, 40.4, -136.0, -134.0}}})
    EXPECT_GT(store.scan_partition(partition, box, day, {6, TemporalRes::Day})
                  .stats.records_scanned,
              0u)
        << partition;
}

TEST(GalileoFusedScanTest, AtEqualsTheRecordGenerateYields) {
  const NamGenerator gen;
  const double step = gen.config().grid_spacing_deg;
  const int hour_step = 24 / gen.config().observations_per_day;
  const TimeRange t{unix_seconds({2015, 7, 30}, 3), unix_seconds({2015, 8, 1}, 19)};
  for (std::uint64_t seed_mix : {0ULL, 1ULL, 0x9e3779b97f4a7c15ULL}) {
    const ObservationList records =
        gen.generate({44.9, 46.1, -93.5, -92.2}, t, seed_mix);
    ASSERT_FALSE(records.empty());
    for (const Observation& obs : records) {
      const auto i = static_cast<std::int64_t>(std::llround(obs.position.lat / step));
      const auto j = static_cast<std::int64_t>(std::llround(obs.position.lng / step));
      const std::int64_t day = obs.timestamp / 86400;
      const auto slot = static_cast<int>(obs.timestamp % 86400 / 3600 / hour_step);
      const Observation at = gen.at(i, j, day, slot, seed_mix);
      ASSERT_EQ(at.position.lat, obs.position.lat);
      ASSERT_EQ(at.position.lng, obs.position.lng);
      ASSERT_EQ(at.timestamp, obs.timestamp);
      ASSERT_EQ(at.values, obs.values);
    }
  }
}

}  // namespace
}  // namespace stash
