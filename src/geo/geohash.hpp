// Geohash: hierarchical base-32 spatial encoding (Niemeyer 1999).
//
// STASH labels the spatial extent of every Cell with a geohash (§IV-A);
// hierarchical edges are derived by dropping/appending characters, lateral
// edges by the 8-neighborhood at equal precision (§IV-B), and the DHT
// partitions data on a geohash prefix (§VI-C).  Hotspot handling (§VII-B.3)
// needs the geohash *antipode*.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "geo/latlng.hpp"

namespace stash::geohash {

inline constexpr std::string_view kAlphabet = "0123456789bcdefghjkmnpqrstuvwxyz";
inline constexpr int kMaxPrecision = 12;
inline constexpr int kChildrenPerCell = 32;

/// 8 compass directions for lateral (spatial) neighbors.
enum class Direction { N, NE, E, SE, S, SW, W, NW };
inline constexpr std::array<Direction, 8> kAllDirections = {
    Direction::N, Direction::NE, Direction::E, Direction::SE,
    Direction::S, Direction::SW, Direction::W, Direction::NW};

/// True iff `gh` is a well-formed geohash (non-empty, valid alphabet,
/// length <= kMaxPrecision).
[[nodiscard]] bool is_valid(std::string_view gh) noexcept;

/// Encodes a point at the given precision (number of characters, 1..12).
[[nodiscard]] std::string encode(const LatLng& point, int precision);

/// Bounding box of a geohash cell. Throws std::invalid_argument on bad input.
[[nodiscard]] BoundingBox decode(std::string_view gh);

/// Center point of a geohash cell.
[[nodiscard]] LatLng decode_center(std::string_view gh);

/// Cell width/height in degrees at a precision.
[[nodiscard]] double cell_width_deg(int precision) noexcept;
[[nodiscard]] double cell_height_deg(int precision) noexcept;

/// Parent (one character shorter). Empty optional for precision-1 hashes.
[[nodiscard]] std::optional<std::string> parent(std::string_view gh);

/// The 32 children (one character longer), in alphabet order.
[[nodiscard]] std::vector<std::string> children(std::string_view gh);

/// Neighbor in a direction; empty optional when it would cross a pole.
[[nodiscard]] std::optional<std::string> neighbor(std::string_view gh,
                                                  Direction dir);

/// All existing neighbors (up to 8), paper Fig 1a.
[[nodiscard]] std::vector<std::string> neighbors(std::string_view gh);

/// Geohash of the diametrically opposite cell (§VII-B.3): latitude negated,
/// longitude rotated by 180°.
[[nodiscard]] std::string antipode(std::string_view gh);

/// All geohash cells at `precision` whose interiors intersect `box`.
/// Cells are returned in row-major (south→north, west→east) order.
[[nodiscard]] std::vector<std::string> covering(const BoundingBox& box,
                                                int precision);

/// Number of cells `covering` would return, without materialising them.
[[nodiscard]] std::size_t covering_size(const BoundingBox& box, int precision);

/// Packs a geohash into a 64-bit integer key (5 bits/char + length nibble);
/// stable and collision-free for precisions 1..12.
[[nodiscard]] std::uint64_t pack(std::string_view gh);
[[nodiscard]] std::string unpack(std::uint64_t packed);

// --- packed geometry ---
// A geohash's bits interleave a longitude index (even bit positions) with
// a latitude index (odd ones).  The functions below work on those integer
// indices directly, so the hot paths never build a string.

/// Integer coordinates of a cell at its precision: `lat` counts rows
/// south→north, `lng` columns west→east.
struct CellIndex {
  std::uint32_t lat = 0;
  std::uint32_t lng = 0;
};

/// Row / column of the cell holding a coordinate in [-90, 90] / [-180, 180],
/// found by the same bisection comparisons `encode` makes.
[[nodiscard]] std::uint32_t lat_index(double lat, int precision);
[[nodiscard]] std::uint32_t lng_index(double lng, int precision);

/// Packed key (the `pack` format) of the cell at `index`.  Separable: the
/// key of {lat, lng} is the key of {lat, 0} OR the key of {0, lng}.
[[nodiscard]] std::uint64_t pack_index(CellIndex index, int precision);
/// Inverse of pack_index; throws std::invalid_argument on a malformed key.
[[nodiscard]] CellIndex unpack_index(std::uint64_t packed);

/// `decode` of a packed key.
[[nodiscard]] BoundingBox decode_packed(std::uint64_t packed);
/// `neighbor` of a packed key: empty past a pole, wrapped at ±180°.
[[nodiscard]] std::optional<std::uint64_t> neighbor_packed(std::uint64_t packed,
                                                           Direction dir);

}  // namespace stash::geohash
