// Mergeable summary statistics — the payload of a STASH Cell.
//
// A Cell (paper §IV-A, Table I) stores "aggregated summary statistics" for
// every attribute of the observations that fall inside its spatiotemporal
// bin.  The statistics must be *mergeable* so that
//   * a coarse Cell can be synthesised by rolling up its children, and
//   * partial scans over several storage blocks can be combined.
// count / min / max / sum / sum-of-squares satisfy this and yield
// mean / variance / stddev on demand.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <string>

namespace stash {

/// Statistics for a single numeric attribute over a set of observations.
struct AttributeSummary {
  std::uint64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  double sum_sq = 0.0;

  void add(double value) noexcept;
  void merge(const AttributeSummary& other) noexcept;

  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  [[nodiscard]] double mean() const noexcept;
  /// Population variance; 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

  bool operator==(const AttributeSummary&) const = default;

  /// True when the two summaries agree within a relative tolerance —
  /// merge order perturbs floating-point sums.
  [[nodiscard]] bool approx_equals(const AttributeSummary& other,
                                   double rel_tol = 1e-9) const noexcept;
};

/// Summary over all attributes of a dataset schema, in schema order.
///
/// Up to kInlineAttributes statistics live inside the object, so a
/// schema-sized Summary (the NAM schema has four attributes) is built,
/// copied and merged without touching the heap — one allocation per Cell
/// node instead of two, the GeoBlocks-style allocation-free aggregation
/// the scan and fold loops rely on.  Wider schemas spill to a heap array.
class Summary {
 public:
  static constexpr std::size_t kInlineAttributes = 4;

  Summary() = default;
  explicit Summary(std::size_t num_attributes);
  Summary(const Summary& other);
  Summary(Summary&& other) noexcept;
  Summary& operator=(const Summary& other);
  Summary& operator=(Summary&& other) noexcept;
  ~Summary() = default;

  /// Reassembles a Summary from per-attribute statistics (deserialization).
  /// All attributes must report the same observation count.
  [[nodiscard]] static Summary from_attributes(
      std::span<const AttributeSummary> attrs);
  [[nodiscard]] static Summary from_attributes(
      std::initializer_list<AttributeSummary> attrs) {
    return from_attributes(std::span(attrs.begin(), attrs.size()));
  }

  void add_observation(const double* values, std::size_t n);
  void merge(const Summary& other);

  [[nodiscard]] std::size_t num_attributes() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t observation_count() const noexcept {
    return size_ == 0 ? 0 : data()[0].count;
  }
  [[nodiscard]] bool empty() const noexcept { return observation_count() == 0; }

  [[nodiscard]] const AttributeSummary& attribute(std::size_t i) const;
  [[nodiscard]] std::span<const AttributeSummary> attributes() const noexcept {
    return {data(), size_};
  }

  [[nodiscard]] bool approx_equals(const Summary& other,
                                   double rel_tol = 1e-9) const noexcept;

  /// In-memory footprint used by the cache-capacity accounting.  The
  /// model predates the inline storage and is kept as it was — a 24-byte
  /// header plus one AttributeSummary per attribute — so capacity limits
  /// and reported cache sizes mean what they always meant.
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return kAccountedHeaderBytes + size_ * sizeof(AttributeSummary);
  }

  bool operator==(const Summary& other) const noexcept;

  /// Compact single-line rendering, e.g. for JSON responses and examples.
  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr std::size_t kAccountedHeaderBytes = 24;

  [[nodiscard]] const AttributeSummary* data() const noexcept {
    return heap_ ? heap_.get() : inline_.data();
  }
  [[nodiscard]] AttributeSummary* data() noexcept {
    return heap_ ? heap_.get() : inline_.data();
  }

  std::size_t size_ = 0;
  std::array<AttributeSummary, kInlineAttributes> inline_{};
  /// Non-null exactly when size_ > kInlineAttributes.
  std::unique_ptr<AttributeSummary[]> heap_;
};

}  // namespace stash
