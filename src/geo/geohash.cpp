#include "geo/geohash.hpp"

#include <cmath>
#include <stdexcept>

namespace stash::geohash {
namespace {

/// Reverse alphabet lookup: character -> value 0..31, or -1.
constexpr std::array<int, 128> build_reverse_table() {
  std::array<int, 128> table{};
  for (auto& v : table) v = -1;
  for (int i = 0; i < 32; ++i)
    table[static_cast<std::size_t>(kAlphabet[static_cast<std::size_t>(i)])] = i;
  return table;
}
constexpr auto kReverse = build_reverse_table();

int char_value(char c) {
  const auto uc = static_cast<unsigned char>(c);
  const int v = uc < 128 ? kReverse[uc] : -1;
  if (v < 0) throw std::invalid_argument("geohash: invalid character");
  return v;
}

void check_valid(std::string_view gh) {
  if (!is_valid(gh)) throw std::invalid_argument("geohash: malformed hash");
}

/// Number of longitude / latitude bits at a precision (bits alternate
/// starting with longitude).
constexpr int lng_bits(int precision) noexcept { return (5 * precision + 1) / 2; }
constexpr int lat_bits(int precision) noexcept { return (5 * precision) / 2; }

/// The low `length` bits of `packed`, after checking its length nibble.
/// Bits above the packed characters must be zero, or two different keys
/// alias the same hash (and pack(unpack(x)) != x) — rejecting them keeps
/// the wire decoder strict.  Found by the pack/unpack fuzz harness.
std::uint64_t packed_bits(std::uint64_t packed, int& length) {
  length = static_cast<int>(packed >> 60);
  if (length < 1 || length > kMaxPrecision)
    throw std::invalid_argument("geohash: bad packed length nibble");
  const std::uint64_t bits = packed & ((1ULL << 60) - 1);
  if ((bits >> (5 * length)) != 0)
    throw std::invalid_argument("geohash: garbage bits above packed length");
  return bits;
}

}  // namespace

bool is_valid(std::string_view gh) noexcept {
  if (gh.empty() || gh.size() > static_cast<std::size_t>(kMaxPrecision))
    return false;
  for (char c : gh) {
    const auto uc = static_cast<unsigned char>(c);
    if (uc >= 128 || kReverse[uc] < 0) return false;
  }
  return true;
}

std::string encode(const LatLng& point, int precision) {
  if (precision < 1 || precision > kMaxPrecision)
    throw std::invalid_argument("geohash::encode: precision out of range");
  // Negated range check so NaN coordinates fail it too (NaN compares false
  // against both bounds, so the direct form silently encoded garbage —
  // found by the geohash fuzz harness).
  if (!(point.lat >= -90.0 && point.lat <= 90.0 && point.lng >= -180.0 &&
        point.lng <= 180.0))
    throw std::invalid_argument("geohash::encode: point out of range");
  return unpack(pack_index(
      {lat_index(point.lat, precision), lng_index(point.lng, precision)},
      precision));
}

BoundingBox decode(std::string_view gh) { return decode_packed(pack(gh)); }

LatLng decode_center(std::string_view gh) { return decode(gh).center(); }

double cell_width_deg(int precision) noexcept {
  return 360.0 / std::exp2(lng_bits(precision));
}

double cell_height_deg(int precision) noexcept {
  return 180.0 / std::exp2(lat_bits(precision));
}

std::optional<std::string> parent(std::string_view gh) {
  check_valid(gh);
  if (gh.size() == 1) return std::nullopt;
  return std::string(gh.substr(0, gh.size() - 1));
}

std::vector<std::string> children(std::string_view gh) {
  check_valid(gh);
  if (gh.size() >= static_cast<std::size_t>(kMaxPrecision))
    throw std::invalid_argument("geohash::children: already at max precision");
  std::vector<std::string> out;
  out.reserve(kChildrenPerCell);
  for (char c : kAlphabet) {
    std::string child(gh);
    child.push_back(c);
    out.push_back(std::move(child));
  }
  return out;
}

std::optional<std::string> neighbor(std::string_view gh, Direction dir) {
  const auto n = neighbor_packed(pack(gh), dir);
  if (!n) return std::nullopt;
  return unpack(*n);
}

std::vector<std::string> neighbors(std::string_view gh) {
  std::vector<std::string> out;
  out.reserve(8);
  for (Direction d : kAllDirections)
    if (auto n = neighbor(gh, d)) out.push_back(std::move(*n));
  return out;
}

std::string antipode(std::string_view gh) {
  const LatLng c = decode_center(gh);
  double lng = c.lng + 180.0;
  if (lng >= 180.0) lng -= 360.0;
  return encode({-c.lat, lng}, static_cast<int>(gh.size()));
}

namespace {

struct IndexRange {
  std::int64_t lo = 0;
  std::int64_t hi = -1;  // inclusive; empty when hi < lo
  [[nodiscard]] std::int64_t count() const noexcept {
    return hi < lo ? 0 : hi - lo + 1;
  }
};

/// Grid cells (size `step`, origin `origin`) whose interior intersects
/// [min, max], clamped to `max_index` cells.
IndexRange grid_range(double min, double max, double origin, double step,
                      std::int64_t max_index) {
  IndexRange r;
  r.lo = static_cast<std::int64_t>(std::floor((min - origin) / step));
  // Cell r.lo must have its top strictly above `min` to share interior.
  if (origin + static_cast<double>(r.lo + 1) * step <= min) ++r.lo;
  r.hi = static_cast<std::int64_t>(std::floor((max - origin) / step));
  // Cell r.hi must have its bottom strictly below `max`.
  if (origin + static_cast<double>(r.hi) * step >= max) --r.hi;
  r.lo = std::max<std::int64_t>(r.lo, 0);
  r.hi = std::min<std::int64_t>(r.hi, max_index - 1);
  return r;
}

}  // namespace

std::vector<std::string> covering(const BoundingBox& box, int precision) {
  if (precision < 1 || precision > kMaxPrecision)
    throw std::invalid_argument("geohash::covering: precision out of range");
  if (!box.valid()) throw std::invalid_argument("geohash::covering: bad box");
  const double h = cell_height_deg(precision);
  const double w = cell_width_deg(precision);
  const auto lat_cells = static_cast<std::int64_t>(std::llround(180.0 / h));
  const auto lng_cells = static_cast<std::int64_t>(std::llround(360.0 / w));
  const IndexRange lat_r = grid_range(box.lat_min, box.lat_max, -90.0, h, lat_cells);
  const IndexRange lng_r = grid_range(box.lng_min, box.lng_max, -180.0, w, lng_cells);

  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(lat_r.count() * lng_r.count()));
  for (std::int64_t i = lat_r.lo; i <= lat_r.hi; ++i)
    for (std::int64_t j = lng_r.lo; j <= lng_r.hi; ++j)
      out.push_back(unpack(pack_index(
          {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)},
          precision)));
  return out;
}

std::size_t covering_size(const BoundingBox& box, int precision) {
  if (precision < 1 || precision > kMaxPrecision)
    throw std::invalid_argument("geohash::covering_size: precision out of range");
  if (!box.valid()) throw std::invalid_argument("geohash::covering_size: bad box");
  const double h = cell_height_deg(precision);
  const double w = cell_width_deg(precision);
  const auto lat_cells = static_cast<std::int64_t>(std::llround(180.0 / h));
  const auto lng_cells = static_cast<std::int64_t>(std::llround(360.0 / w));
  const IndexRange lat_r = grid_range(box.lat_min, box.lat_max, -90.0, h, lat_cells);
  const IndexRange lng_r = grid_range(box.lng_min, box.lng_max, -180.0, w, lng_cells);
  return static_cast<std::size_t>(lat_r.count()) *
         static_cast<std::size_t>(lng_r.count());
}

std::uint64_t pack(std::string_view gh) {
  check_valid(gh);
  std::uint64_t bits = 0;
  for (char c : gh) bits = (bits << 5) | static_cast<std::uint64_t>(char_value(c));
  return (static_cast<std::uint64_t>(gh.size()) << 60) | bits;
}

std::string unpack(std::uint64_t packed) {
  int length = 0;
  std::uint64_t bits = packed_bits(packed, length);
  std::string out(static_cast<std::size_t>(length), '0');
  for (auto i = static_cast<std::size_t>(length); i-- > 0;) {
    out[i] = kAlphabet[static_cast<std::size_t>(bits & 31)];
    bits >>= 5;
  }
  return out;
}

namespace {

/// Moves bit i of `v` to bit 2i.
constexpr std::uint64_t spread_bits(std::uint32_t v) noexcept {
  std::uint64_t x = v;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

/// Inverse of spread_bits: bit 2i of `x` to bit i.
constexpr std::uint32_t compact_bits(std::uint64_t x) noexcept {
  x &= 0x5555555555555555ULL;
  x = (x | (x >> 1)) & 0x3333333333333333ULL;
  x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x >> 4)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x >> 8)) & 0x0000ffff0000ffffULL;
  x = (x | (x >> 16)) & 0x00000000ffffffffULL;
  return static_cast<std::uint32_t>(x);
}

/// The first geohash bit is a longitude bit, so the last (least
/// significant) is a longitude bit exactly when 5 * precision is odd:
/// longitude bit i then sits at 2i, else at 2i + 1; latitude fills the rest.
constexpr int lng_shift(int precision) noexcept { return (5 * precision + 1) % 2; }

/// Index of the cell holding `x` among 2^bits equal cells of [lo, hi].
std::uint32_t bisect(double x, double lo, double hi, int bits) noexcept {
  std::uint32_t index = 0;
  for (int b = 0; b < bits; ++b) {
    const double mid = (lo + hi) / 2.0;
    if (x >= mid) {
      index = index * 2 + 1;
      lo = mid;
    } else {
      index *= 2;
      hi = mid;
    }
  }
  return index;
}

void check_precision(int precision) {
  if (precision < 1 || precision > kMaxPrecision)
    throw std::invalid_argument("geohash: precision out of range");
}

}  // namespace

std::uint32_t lat_index(double lat, int precision) {
  check_precision(precision);
  return bisect(lat, -90.0, 90.0, lat_bits(precision));
}

std::uint32_t lng_index(double lng, int precision) {
  check_precision(precision);
  return bisect(lng, -180.0, 180.0, lng_bits(precision));
}

std::uint64_t pack_index(CellIndex index, int precision) {
  check_precision(precision);
  if ((index.lat >> lat_bits(precision)) != 0 ||
      (index.lng >> lng_bits(precision)) != 0)
    throw std::invalid_argument("geohash::pack_index: index out of range");
  const int s = lng_shift(precision);
  return (static_cast<std::uint64_t>(precision) << 60) |
         (spread_bits(index.lng) << s) | (spread_bits(index.lat) << (1 - s));
}

CellIndex unpack_index(std::uint64_t packed) {
  int precision = 0;
  const std::uint64_t bits = packed_bits(packed, precision);
  const int s = lng_shift(precision);
  return {compact_bits(bits >> (1 - s)), compact_bits(bits >> s)};
}

BoundingBox decode_packed(std::uint64_t packed) {
  const CellIndex index = unpack_index(packed);
  const auto precision = static_cast<int>(packed >> 60);
  // Exact: every bisection midpoint is a multiple of the cell size with
  // at most 31 significant bits, so these products and sums are the very
  // doubles the bisection reaches.
  const double h = cell_height_deg(precision);
  const double w = cell_width_deg(precision);
  return {-90.0 + static_cast<double>(index.lat) * h,
          -90.0 + static_cast<double>(index.lat + 1) * h,
          -180.0 + static_cast<double>(index.lng) * w,
          -180.0 + static_cast<double>(index.lng + 1) * w};
}

std::optional<std::uint64_t> neighbor_packed(std::uint64_t packed,
                                             Direction dir) {
  const CellIndex index = unpack_index(packed);
  const auto precision = static_cast<int>(packed >> 60);
  std::int64_t dlat = 0;
  std::int64_t dlng = 0;
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
  const std::int64_t rows = std::int64_t{1} << lat_bits(precision);
  const std::int64_t cols = std::int64_t{1} << lng_bits(precision);
  const std::int64_t lat = index.lat + dlat;
  if (lat < 0 || lat >= rows) return std::nullopt;  // would cross a pole
  const std::int64_t lng = (index.lng + dlng + cols) % cols;  // antimeridian
  return pack_index(
      {static_cast<std::uint32_t>(lat), static_cast<std::uint32_t>(lng)},
      precision);
}

}  // namespace stash::geohash
