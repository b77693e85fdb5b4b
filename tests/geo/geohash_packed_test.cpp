// Packed geometry vs the string geohash algorithms.
//
// The packed functions (decode_packed, neighbor_packed, lat/lng_index,
// pack_index) must agree exactly — same doubles, same keys, same order —
// with the classic string algorithms: per-character bisection for
// encode/decode, "step one cell from the centre and re-encode" for
// neighbours.  The references below are those algorithms, kept here so the
// library's string functions (which now route through the packed ones) are
// checked against an independent implementation.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/chunk.hpp"
#include "geo/geohash.hpp"

namespace stash::geohash {
namespace {

std::string ref_encode(const LatLng& point, int precision) {
  double lat_lo = -90.0, lat_hi = 90.0;
  double lng_lo = -180.0, lng_hi = 180.0;
  std::string out;
  bool even = true;
  int bit = 0;
  int value = 0;
  while (out.size() < static_cast<std::size_t>(precision)) {
    if (even) {
      const double mid = (lng_lo + lng_hi) / 2.0;
      if (point.lng >= mid) {
        value = value * 2 + 1;
        lng_lo = mid;
      } else {
        value *= 2;
        lng_hi = mid;
      }
    } else {
      const double mid = (lat_lo + lat_hi) / 2.0;
      if (point.lat >= mid) {
        value = value * 2 + 1;
        lat_lo = mid;
      } else {
        value *= 2;
        lat_hi = mid;
      }
    }
    even = !even;
    if (++bit == 5) {
      out.push_back(kAlphabet[static_cast<std::size_t>(value)]);
      bit = 0;
      value = 0;
    }
  }
  return out;
}

BoundingBox ref_decode(const std::string& gh) {
  double lat_lo = -90.0, lat_hi = 90.0;
  double lng_lo = -180.0, lng_hi = 180.0;
  bool even = true;
  for (char c : gh) {
    const auto value = static_cast<int>(kAlphabet.find(c));
    for (int b = 4; b >= 0; --b) {
      const int bit = (value >> b) & 1;
      if (even) {
        const double mid = (lng_lo + lng_hi) / 2.0;
        (bit != 0 ? lng_lo : lng_hi) = mid;
      } else {
        const double mid = (lat_lo + lat_hi) / 2.0;
        (bit != 0 ? lat_lo : lat_hi) = mid;
      }
      even = !even;
    }
  }
  return {lat_lo, lat_hi, lng_lo, lng_hi};
}

std::optional<std::string> ref_neighbor(const std::string& gh, Direction dir) {
  const BoundingBox box = ref_decode(gh);
  const LatLng c = box.center();
  double dlat = 0.0;
  double dlng = 0.0;
  switch (dir) {
    case Direction::N: dlat = 1; break;
    case Direction::NE: dlat = 1; dlng = 1; break;
    case Direction::E: dlng = 1; break;
    case Direction::SE: dlat = -1; dlng = 1; break;
    case Direction::S: dlat = -1; break;
    case Direction::SW: dlat = -1; dlng = -1; break;
    case Direction::W: dlng = -1; break;
    case Direction::NW: dlat = 1; dlng = -1; break;
  }
  const double lat = c.lat + dlat * box.height();
  if (lat > 90.0 || lat < -90.0) return std::nullopt;
  double lng = c.lng + dlng * box.width();
  if (lng >= 180.0) lng -= 360.0;
  if (lng < -180.0) lng += 360.0;
  return ref_encode({lat, lng}, static_cast<int>(gh.size()));
}

/// The string-based chunk neighbourhood: spatial neighbours in direction
/// order, then the previous and next bin.
std::vector<ChunkKey> ref_chunk_neighbors(const ChunkKey& key) {
  std::vector<ChunkKey> out;
  const std::string prefix = key.prefix_str();
  const TemporalBin bin = key.bin();
  for (Direction d : kAllDirections)
    if (const auto n = ref_neighbor(prefix, d)) out.emplace_back(*n, bin);
  out.emplace_back(prefix, bin.prev());
  out.emplace_back(prefix, bin.next());
  return out;
}

bool same_doubles(const BoundingBox& a, const BoundingBox& b) {
  return a.lat_min == b.lat_min && a.lat_max == b.lat_max &&
         a.lng_min == b.lng_min && a.lng_max == b.lng_max;
}

/// Checks every packed function on one hash against the references.
void check_hash(const std::string& gh, const TemporalBin& bin) {
  const std::uint64_t packed = pack(gh);
  const BoundingBox ref = ref_decode(gh);
  ASSERT_TRUE(same_doubles(decode_packed(packed), ref)) << gh;
  ASSERT_TRUE(same_doubles(decode(unpack(packed)), ref)) << gh;
  for (Direction d : kAllDirections) {
    const auto want = ref_neighbor(gh, d);
    const auto got = neighbor_packed(packed, d);
    ASSERT_EQ(got.has_value(), want.has_value())
        << gh << " dir " << static_cast<int>(d);
    if (want) {
      ASSERT_EQ(*got, pack(*want)) << gh << " dir " << static_cast<int>(d);
      ASSERT_EQ(neighbor(gh, d), want);
    }
  }
  const ChunkKey chunk(gh, bin);
  ASSERT_EQ(chunk_neighbors(chunk), ref_chunk_neighbors(chunk)) << gh;
  // Encoding the cell's corners and centre finds the same cell both ways:
  // the south-west corner sits exactly on bisection midpoints, and the
  // point one ulp inside the north-east corner is where a floor(x / w)
  // formula would round into the next cell.
  const int precision = static_cast<int>(gh.size());
  const LatLng inside_ne{std::nextafter(ref.lat_max, -90.0),
                         std::nextafter(ref.lng_max, -180.0)};
  for (const LatLng p : {LatLng{ref.lat_min, ref.lng_min}, ref.center(), inside_ne}) {
    ASSERT_EQ(encode(p, precision), ref_encode(p, precision)) << gh;
    ASSERT_EQ(pack_index({lat_index(p.lat, precision), lng_index(p.lng, precision)},
                         precision),
              packed)
        << gh;
  }
}

const TemporalBin kDay(TemporalRes::Day, 2015, 2, 2);

TEST(GeohashPackedTest, ExhaustiveAtPrecisionsOneToThree) {
  std::vector<std::string> level{""};
  for (int precision = 1; precision <= 3; ++precision) {
    std::vector<std::string> next;
    for (const std::string& gh : level)
      for (char c : kAlphabet) next.push_back(gh + c);
    for (const std::string& gh : next)
      ASSERT_NO_FATAL_FAILURE(check_hash(gh, kDay));
    level = std::move(next);
  }
  EXPECT_EQ(level.size(), 32u * 32u * 32u);
}

TEST(GeohashPackedTest, SeededRandomAtPrecisionsFourToTwelve) {
  Rng rng(13);
  const TemporalBin month(TemporalRes::Month, 2015, 12);
  for (int precision = 4; precision <= kMaxPrecision; ++precision) {
    for (int i = 0; i < 400; ++i) {
      std::string gh;
      for (int k = 0; k < precision; ++k)
        gh.push_back(kAlphabet[rng.next_u64() % 32]);
      ASSERT_NO_FATAL_FAILURE(check_hash(gh, i % 2 == 0 ? kDay : month));
    }
  }
}

TEST(GeohashPackedTest, PolesAndAntimeridian) {
  for (int precision = 1; precision <= kMaxPrecision; ++precision) {
    // The four corner cells of the world: two pole cut-offs, one wrap each.
    for (const LatLng p : {LatLng{90.0, 180.0}, LatLng{90.0, -180.0},
                           LatLng{-90.0, 180.0}, LatLng{-90.0, -180.0}}) {
      const std::string gh = ref_encode(p, precision);
      ASSERT_NO_FATAL_FAILURE(check_hash(gh, kDay));
      const std::uint64_t packed = pack(gh);
      EXPECT_FALSE(neighbor_packed(packed, p.lat > 0 ? Direction::N
                                                     : Direction::S));
      // Across the antimeridian: the last column's east neighbour is
      // column 0 and the first column's west neighbour the last column.
      const std::uint32_t last_col = lng_index(180.0, precision);
      const auto across = neighbor_packed(packed, p.lng > 0 ? Direction::E
                                                            : Direction::W);
      ASSERT_TRUE(across);
      EXPECT_EQ(unpack_index(*across).lng, p.lng > 0 ? 0u : last_col);
    }
  }
}

TEST(GeohashPackedTest, IndexPackingIsSeparableAndInvertible) {
  Rng rng(17);
  for (int precision = 1; precision <= kMaxPrecision; ++precision) {
    for (int i = 0; i < 200; ++i) {
      const LatLng p{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
      const CellIndex index{lat_index(p.lat, precision),
                            lng_index(p.lng, precision)};
      const std::uint64_t key = pack_index(index, precision);
      EXPECT_EQ(key, pack(ref_encode(p, precision)));
      EXPECT_EQ(key, pack_index({index.lat, 0}, precision) |
                         pack_index({0, index.lng}, precision));
      const CellIndex back = unpack_index(key);
      EXPECT_EQ(back.lat, index.lat);
      EXPECT_EQ(back.lng, index.lng);
    }
  }
}

TEST(GeohashPackedTest, RejectsMalformedKeys) {
  EXPECT_THROW((void)decode_packed(0), std::invalid_argument);
  EXPECT_THROW((void)decode_packed(13ULL << 60), std::invalid_argument);
  // A bit above the 5-bit character of a length-1 key.
  EXPECT_THROW((void)decode_packed((1ULL << 60) | (1ULL << 5)),
               std::invalid_argument);
  EXPECT_THROW((void)neighbor_packed(0, Direction::N), std::invalid_argument);
  EXPECT_THROW((void)pack_index({4, 0}, 1), std::invalid_argument);  // 2 lat bits
  EXPECT_THROW((void)pack_index({0, 0}, 0), std::invalid_argument);
  EXPECT_THROW((void)lat_index(0.0, 13), std::invalid_argument);
}

}  // namespace
}  // namespace stash::geohash
