// Procedural NAM-like observation generator.
//
// Substitution for the ~1.1 TB NOAA NAM dataset (§VIII-B): observations on
// a fixed lat/lon grid, several synoptic times per day, with physically
// plausible (latitude-, season- and hour-dependent) attribute values plus
// seeded noise.  Generation is *deterministic per (region, day)*: the same
// spatiotemporal request always yields byte-identical records, so the
// storage layer can generate block contents on demand instead of holding
// terabytes, and tests can assert exact cache-vs-disk equivalence.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geo/latlng.hpp"
#include "geo/temporal.hpp"
#include "model/observation.hpp"

namespace stash {

struct NamGeneratorConfig {
  /// Grid spacing in degrees (NAM is ~12 km ≈ 0.11°; the default is slightly coarser
  /// to keep laptop-scale benches in bounds while preserving density shape).
  double grid_spacing_deg = 0.12;
  /// Synoptic observation hours within each day (NAM: 00/06/12/18 UTC).
  int observations_per_day = 4;
  /// Spatial extent with data coverage (North America for NAM).
  BoundingBox coverage{15.0, 60.0, -135.0, -55.0};
  /// Base seed mixed into every record's noise.
  std::uint64_t seed = 0x4e414d2d32303135ULL;  // "NAM-2015"
};

class NamGenerator {
 public:
  explicit NamGenerator(NamGeneratorConfig config = {});

  [[nodiscard]] const NamGeneratorConfig& config() const noexcept { return config_; }

  /// All observations with position strictly inside `region` ∩ coverage and
  /// timestamp in `time` (half-open).  Deterministic: depends only on the
  /// generator config, the absolute grid/day, and `seed_mix` — NOT on the
  /// request shape, so overlapping requests see identical records.
  /// `seed_mix` perturbs the attribute values (not positions/timestamps);
  /// the storage layer uses it to model real-time updates re-writing a
  /// block's contents (version v => seed_mix v).
  [[nodiscard]] ObservationList generate(const BoundingBox& region,
                                         const TimeRange& time,
                                         std::uint64_t seed_mix = 0) const;

  /// Number of observations `generate` would return, without materialising.
  [[nodiscard]] std::size_t count(const BoundingBox& region,
                                  const TimeRange& time) const;

  /// The single observation for grid indices (i, j) at a synoptic hour of a
  /// day; exposed for tests that pin down determinism.
  [[nodiscard]] Observation at(std::int64_t lat_idx, std::int64_t lng_idx,
                               std::int64_t day, int synoptic_slot,
                               std::uint64_t seed_mix = 0) const;

  // --- the record formula, factored for callers that aggregate records
  // without materialising them (GalileoStore::scan_partition).  `at` and
  // `generate` evaluate records through the same pieces.

  /// Inclusive range of grid indices along one axis; empty when hi < lo.
  struct GridRange {
    std::int64_t lo = 0;
    std::int64_t hi = -1;
    [[nodiscard]] std::size_t size() const noexcept {
      return hi < lo ? 0 : static_cast<std::size_t>(hi - lo + 1);
    }
  };

  /// One grid row or column: its index, its coordinate in degrees, and the
  /// index already mixed for the per-record noise hash.
  struct Axis {
    std::int64_t index = 0;
    double coord = 0.0;
    std::uint64_t mixed = 0;
  };

  /// One synoptic time of one day: the per-(day, slot) invariants of the
  /// record formula, shared by every grid point.
  struct Slot {
    std::int64_t timestamp = 0;
    double season = 0.0;
    double diurnal = 0.0;
    std::uint64_t noise_seed = 0;  ///< config seed + mix64(seed_mix)
    std::uint64_t day_mixed = 0;
    std::uint64_t slot_mixed = 0;
  };

  /// The records `generate` returns, as a grid: every slot × every row ×
  /// every column, enumerated in that (slot, row, column) order.
  struct Grid {
    GridRange lats;
    GridRange lngs;
    std::vector<Slot> slots;
    [[nodiscard]] std::size_t size() const noexcept {
      return slots.size() * lats.size() * lngs.size();
    }
  };

  /// The grid of `generate(region, time, seed_mix)`; empty (not an error)
  /// for an invalid or empty request.
  [[nodiscard]] Grid grid(const BoundingBox& region, const TimeRange& time,
                          std::uint64_t seed_mix = 0) const;

  [[nodiscard]] Axis lat_axis(std::int64_t lat_idx) const noexcept;
  [[nodiscard]] Axis lng_axis(std::int64_t lng_idx) const noexcept;
  [[nodiscard]] Slot slot(std::int64_t day, int synoptic_slot,
                          std::uint64_t seed_mix) const;

  /// Attribute values of the record at (lat, lng) in `slot`.
  [[nodiscard]] std::array<double, kNamAttributeCount> values(
      const Slot& slot, const Axis& lat, const Axis& lng) const noexcept;

 private:
  [[nodiscard]] GridRange axis_range(double lo, double hi) const noexcept;

  NamGeneratorConfig config_;
};

}  // namespace stash
