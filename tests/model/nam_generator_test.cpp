#include "model/nam_generator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "common/checksum.hpp"
#include "common/civil_time.hpp"

namespace stash {
namespace {

TimeRange day_range(int year, int month, int day) {
  const std::int64_t begin = unix_seconds({year, month, day});
  return {begin, begin + 86400};
}

TEST(NamGeneratorTest, ConfigValidation) {
  NamGeneratorConfig bad;
  bad.grid_spacing_deg = 0.0;
  EXPECT_THROW(NamGenerator{bad}, std::invalid_argument);
  bad = {};
  bad.observations_per_day = 0;
  EXPECT_THROW(NamGenerator{bad}, std::invalid_argument);
  bad = {};
  bad.coverage = {10.0, 0.0, 0.0, 10.0};
  EXPECT_THROW(NamGenerator{bad}, std::invalid_argument);
}

TEST(NamGeneratorTest, DeterministicAcrossInstances) {
  const NamGenerator a;
  const NamGenerator b;
  const BoundingBox box{30.0, 32.0, -100.0, -98.0};
  const auto r = day_range(2015, 2, 2);
  const auto obs_a = a.generate(box, r);
  const auto obs_b = b.generate(box, r);
  ASSERT_EQ(obs_a.size(), obs_b.size());
  ASSERT_FALSE(obs_a.empty());
  for (std::size_t i = 0; i < obs_a.size(); ++i) {
    EXPECT_EQ(obs_a[i].position, obs_b[i].position);
    EXPECT_EQ(obs_a[i].timestamp, obs_b[i].timestamp);
    EXPECT_EQ(obs_a[i].values, obs_b[i].values);
  }
}

TEST(NamGeneratorTest, SeedChangesValuesNotPositions) {
  NamGeneratorConfig cfg;
  cfg.seed = 1;
  const NamGenerator a{cfg};
  cfg.seed = 2;
  const NamGenerator b{cfg};
  const BoundingBox box{30.0, 31.0, -100.0, -99.0};
  const auto obs_a = a.generate(box, day_range(2015, 2, 2));
  const auto obs_b = b.generate(box, day_range(2015, 2, 2));
  ASSERT_EQ(obs_a.size(), obs_b.size());
  ASSERT_FALSE(obs_a.empty());
  int diff = 0;
  for (std::size_t i = 0; i < obs_a.size(); ++i) {
    EXPECT_EQ(obs_a[i].position, obs_b[i].position);
    if (obs_a[i].values != obs_b[i].values) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(NamGeneratorTest, AllRecordsInsideRequestAndCoverage) {
  const NamGenerator gen;
  const BoundingBox box{10.0, 20.0, -140.0, -130.0};  // straddles coverage edge
  const auto r = day_range(2015, 2, 2);
  for (const auto& obs : gen.generate(box, r)) {
    EXPECT_TRUE(box.contains(obs.position));
    EXPECT_TRUE(gen.config().coverage.contains(obs.position));
    EXPECT_TRUE(r.contains(obs.timestamp));
  }
}

TEST(NamGeneratorTest, CountMatchesGenerate) {
  const NamGenerator gen;
  const BoundingBox boxes[] = {
      {30.0, 34.0, -100.0, -92.0},
      {30.0, 30.01, -100.0, -99.99},       // smaller than grid spacing
      {70.0, 80.0, 0.0, 10.0},             // outside coverage
      {59.9, 60.5, -60.0, -54.0},          // straddles coverage corner
  };
  for (const auto& box : boxes) {
    EXPECT_EQ(gen.generate(box, day_range(2015, 2, 2)).size(),
              gen.count(box, day_range(2015, 2, 2)))
        << box.to_string();
  }
}

TEST(NamGeneratorTest, DensityMatchesGridSpacing) {
  const NamGenerator gen;  // 0.12° grid, 4 obs/day
  const BoundingBox box{30.0, 34.0, -100.0, -92.0};  // 4° x 8° state query
  const std::size_t n = gen.count(box, day_range(2015, 2, 2));

  // Expect ~ (4/0.12)*(8/0.12)*4 = 8889, +/- one grid row/col.
  EXPECT_NEAR(static_cast<double>(n), 8889.0, 600.0);
}

TEST(NamGeneratorTest, AdjacentRegionsPartitionRecords) {
  // Splitting a region in half must not duplicate or drop grid points.
  const NamGenerator gen;
  const auto r = day_range(2015, 2, 2);
  const BoundingBox whole{30.0, 32.0, -100.0, -98.0};
  const BoundingBox west{30.0, 32.0, -100.0, -99.0};
  const BoundingBox east{30.0, 32.0, -99.0, -98.0};
  EXPECT_EQ(gen.count(west, r) + gen.count(east, r), gen.count(whole, r));
}

TEST(NamGeneratorTest, AdjacentDaysPartitionRecords) {
  const NamGenerator gen;
  const BoundingBox box{30.0, 31.0, -100.0, -99.0};
  const TimeRange two_days{unix_seconds({2015, 2, 2}), unix_seconds({2015, 2, 4})};
  EXPECT_EQ(gen.count(box, day_range(2015, 2, 2)) +
                gen.count(box, day_range(2015, 2, 3)),
            gen.count(box, two_days));
}

TEST(NamGeneratorTest, SynopticTimestamps) {
  const NamGenerator gen;  // 4 obs/day: 00, 06, 12, 18 UTC
  const BoundingBox box{30.0, 30.5, -100.0, -99.5};
  std::set<std::int64_t> hours;
  for (const auto& obs : gen.generate(box, day_range(2015, 2, 2)))
    hours.insert((obs.timestamp % 86400) / 3600);
  EXPECT_EQ(hours, (std::set<std::int64_t>{0, 6, 12, 18}));
}

TEST(NamGeneratorTest, PartialDayReturnsOnlyMatchingSlots) {
  const NamGenerator gen;
  const BoundingBox box{30.0, 30.5, -100.0, -99.5};
  const std::int64_t midnight = unix_seconds({2015, 2, 2});
  const TimeRange morning{midnight, midnight + 7 * 3600};  // 00 and 06 only
  std::set<std::int64_t> hours;
  for (const auto& obs : gen.generate(box, morning))
    hours.insert((obs.timestamp % 86400) / 3600);
  EXPECT_EQ(hours, (std::set<std::int64_t>{0, 6}));
}

TEST(NamGeneratorTest, PhysicallyPlausibleValues) {
  const NamGenerator gen;
  const BoundingBox box{20.0, 55.0, -130.0, -60.0};
  for (const auto& obs : gen.generate(box, day_range(2015, 2, 2))) {
    const double temp = obs.value(NamAttribute::SurfaceTemperatureK);
    EXPECT_GT(temp, 180.0);
    EXPECT_LT(temp, 340.0);
    const double rh = obs.value(NamAttribute::RelativeHumidityPct);
    EXPECT_GE(rh, 0.0);
    EXPECT_LE(rh, 100.0);
    EXPECT_GE(obs.value(NamAttribute::PrecipitationMm), 0.0);
    EXPECT_GE(obs.value(NamAttribute::SnowDepthM), 0.0);
  }
}

TEST(NamGeneratorTest, WinterIsColderThanSummer) {
  const NamGenerator gen;
  const BoundingBox box{40.0, 45.0, -100.0, -95.0};
  double winter_sum = 0.0;
  double summer_sum = 0.0;
  std::size_t n_winter = 0;
  std::size_t n_summer = 0;
  for (const auto& obs : gen.generate(box, day_range(2015, 1, 15))) {
    winter_sum += obs.value(NamAttribute::SurfaceTemperatureK);
    ++n_winter;
  }
  for (const auto& obs : gen.generate(box, day_range(2015, 7, 15))) {
    summer_sum += obs.value(NamAttribute::SurfaceTemperatureK);
    ++n_summer;
  }
  ASSERT_GT(n_winter, 0u);
  ASSERT_GT(n_summer, 0u);
  EXPECT_LT(winter_sum / static_cast<double>(n_winter),
            summer_sum / static_cast<double>(n_summer) - 10.0);
}

TEST(NamGeneratorTest, EmptyOutsideCoverage) {
  const NamGenerator gen;
  EXPECT_TRUE(gen.generate({-40.0, -30.0, 100.0, 110.0},  // southern hemisphere
                            day_range(2015, 2, 2))
                  .empty());
}

TEST(NamGeneratorTest, InvalidInputsThrow) {
  const NamGenerator gen;
  EXPECT_THROW((void)gen.generate({10.0, 0.0, 0.0, 10.0}, day_range(2015, 2, 2)),
               std::invalid_argument);
  EXPECT_THROW((void)gen.generate({0.0, 10.0, 0.0, 10.0}, TimeRange{10, 5}),
               std::invalid_argument);
}

TEST(NamGeneratorTest, RecordsArePinned) {
  // Bit-exact fingerprint of a fixed request (positions, timestamps and
  // attribute doubles, two block versions).  The record formula is split
  // into per-slot, per-row and per-point pieces; any drift in how they
  // combine changes this value.
  const NamGenerator gen;
  const TimeRange t{unix_seconds({2015, 7, 30}, 3), unix_seconds({2015, 8, 1}, 19)};
  Checksum64 h;
  std::size_t records = 0;
  for (std::uint64_t seed_mix : {0ULL, 3ULL}) {
    for (const Observation& obs :
         gen.generate({44.9, 46.1, -93.5, -92.2}, t, seed_mix)) {
      h.mix(std::bit_cast<std::uint64_t>(obs.position.lat))
          .mix(std::bit_cast<std::uint64_t>(obs.position.lng))
          .mix(static_cast<std::uint64_t>(obs.timestamp));
      for (double v : obs.values) h.mix(std::bit_cast<std::uint64_t>(v));
      ++records;
    }
  }
  EXPECT_EQ(records, 2420u);
  EXPECT_EQ(h.digest(), 0x2e96314b8aa2d4b7ULL);
}

}  // namespace
}  // namespace stash
