#include "model/nam_generator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/civil_time.hpp"
#include "common/hash.hpp"

namespace stash {
namespace {

/// Deterministic unit-interval noise from a record's identity (the grid
/// indices, day and slot, each pre-mixed once for all four draws).
double noise01(std::uint64_t seed, const NamGenerator::Axis& lat,
               const NamGenerator::Axis& lng, const NamGenerator::Slot& slot) {
  std::uint64_t h = seed;
  hash_combine_mixed(h, lat.mixed);
  hash_combine_mixed(h, lng.mixed);
  hash_combine_mixed(h, slot.day_mixed);
  hash_combine_mixed(h, slot.slot_mixed);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

NamGenerator::NamGenerator(NamGeneratorConfig config) : config_(config) {
  if (config_.grid_spacing_deg <= 0.0)
    throw std::invalid_argument("NamGenerator: grid spacing must be positive");
  if (config_.observations_per_day < 1 || config_.observations_per_day > 24)
    throw std::invalid_argument("NamGenerator: observations_per_day in [1,24]");
  if (!config_.coverage.valid())
    throw std::invalid_argument("NamGenerator: invalid coverage box");
}

NamGenerator::GridRange NamGenerator::axis_range(double lo,
                                                 double hi) const noexcept {
  const double step = config_.grid_spacing_deg;
  GridRange r;
  r.lo = static_cast<std::int64_t>(std::ceil(lo / step));
  r.hi = static_cast<std::int64_t>(std::floor(hi / step));
  // Exclusive upper edge: a grid point exactly on `hi` belongs to the next
  // region, keeping adjacent block scans disjoint.
  if (static_cast<double>(r.hi) * step >= hi) --r.hi;
  if (static_cast<double>(r.lo) * step < lo) ++r.lo;
  return r;
}

NamGenerator::Axis NamGenerator::lat_axis(std::int64_t lat_idx) const noexcept {
  return {lat_idx, static_cast<double>(lat_idx) * config_.grid_spacing_deg,
          mix64(static_cast<std::uint64_t>(lat_idx))};
}

NamGenerator::Axis NamGenerator::lng_axis(std::int64_t lng_idx) const noexcept {
  return lat_axis(lng_idx);  // same axis-independent arithmetic
}

NamGenerator::Slot NamGenerator::slot(std::int64_t day, int synoptic_slot,
                                      std::uint64_t seed_mix) const {
  const int hour = synoptic_slot * (24 / config_.observations_per_day);
  const CivilDate date = civil_from_days(day);
  const double day_of_year = static_cast<double>(days_from_civil(date) -
                                                 days_from_civil({date.year, 1, 1}));
  constexpr double kTau = 2.0 * std::numbers::pi;
  Slot s;
  s.timestamp = day * 86400 + hour * 3600;
  // Season phase peaks in early July in the northern hemisphere.
  s.season = std::cos(kTau * (day_of_year - 186.0) / 365.0);
  s.diurnal = std::cos(kTau * (static_cast<double>(hour) - 15.0) / 24.0);
  s.noise_seed = config_.seed + mix64(seed_mix);
  s.day_mixed = mix64(static_cast<std::uint64_t>(day));
  s.slot_mixed = mix64(static_cast<std::uint64_t>(synoptic_slot));
  return s;
}

std::array<double, kNamAttributeCount> NamGenerator::values(
    const Slot& slot, const Axis& lat, const Axis& lng) const noexcept {
  const auto u = [&](std::uint64_t salt) {
    return noise01(slot.noise_seed + salt, lat, lng, slot);
  };
  const double season = slot.season;
  const double diurnal = slot.diurnal;
  std::array<double, kNamAttributeCount> v;
  // Surface temperature: warm equator, cold poles, seasonal + diurnal swing.
  v[0] = 288.0 - 0.55 * std::fabs(lat.coord) + 12.0 * season +
         5.0 * diurnal + 4.0 * (u(1) - 0.5);
  // Relative humidity: anticorrelated with temperature anomaly, bounded.
  v[1] = std::clamp(65.0 - 8.0 * season - 6.0 * diurnal + 30.0 * (u(2) - 0.5),
                    0.0, 100.0);
  // Precipitation: mostly zero, occasional events.
  const double rain_draw = u(3);
  v[2] = rain_draw > 0.8 ? (rain_draw - 0.8) * 60.0 : 0.0;
  // Snow depth: only cold latitudes in cold season.
  const double cold =
      std::max(0.0, 0.02 * (std::fabs(lat.coord) - 35.0) * (1.0 - season));
  v[3] = cold * u(4);
  return v;
}

Observation NamGenerator::at(std::int64_t lat_idx, std::int64_t lng_idx,
                             std::int64_t day, int synoptic_slot,
                             std::uint64_t seed_mix) const {
  const Slot s = slot(day, synoptic_slot, seed_mix);
  const Axis lat = lat_axis(lat_idx);
  const Axis lng = lng_axis(lng_idx);
  return {{lat.coord, lng.coord}, s.timestamp, values(s, lat, lng)};
}

NamGenerator::Grid NamGenerator::grid(const BoundingBox& region,
                                      const TimeRange& time,
                                      std::uint64_t seed_mix) const {
  Grid g;
  if (!region.valid() || !time.valid()) return g;
  const BoundingBox box = region.intersection(config_.coverage);
  if (!box.valid() || time.begin >= time.end) return g;
  g.lats = axis_range(box.lat_min, box.lat_max);
  g.lngs = axis_range(box.lng_min, box.lng_max);
  if (g.lats.size() == 0 || g.lngs.size() == 0) return g;

  const int hour_step = 24 / config_.observations_per_day;
  const std::int64_t first_day = time.begin / 86400 - (time.begin % 86400 < 0 ? 1 : 0);
  const std::int64_t last_day = (time.end - 1) / 86400;
  for (std::int64_t day = first_day; day <= last_day; ++day)
    for (int s = 0; s < config_.observations_per_day; ++s)
      if (time.contains(day * 86400 + s * hour_step * 3600))
        g.slots.push_back(slot(day, s, seed_mix));
  return g;
}

ObservationList NamGenerator::generate(const BoundingBox& region,
                                       const TimeRange& time,
                                       std::uint64_t seed_mix) const {
  if (!region.valid()) throw std::invalid_argument("NamGenerator: bad region");
  if (!time.valid()) throw std::invalid_argument("NamGenerator: bad time range");
  const Grid g = grid(region, time, seed_mix);
  ObservationList out;
  out.reserve(g.size());
  for (const Slot& s : g.slots) {
    for (std::int64_t i = g.lats.lo; i <= g.lats.hi; ++i) {
      const Axis lat = lat_axis(i);
      for (std::int64_t j = g.lngs.lo; j <= g.lngs.hi; ++j) {
        const Axis lng = lng_axis(j);
        out.push_back({{lat.coord, lng.coord}, s.timestamp, values(s, lat, lng)});
      }
    }
  }
  return out;
}

std::size_t NamGenerator::count(const BoundingBox& region,
                                const TimeRange& time) const {
  return grid(region, time).size();
}

}  // namespace stash
