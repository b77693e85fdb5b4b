#include "common/summary.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace stash {

void AttributeSummary::add(double value) noexcept {
  ++count;
  min = std::min(min, value);
  max = std::max(max, value);
  sum += value;
  sum_sq += value * value;
}

void AttributeSummary::merge(const AttributeSummary& other) noexcept {
  if (other.count == 0) return;
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  sum_sq += other.sum_sq;
}

double AttributeSummary::mean() const noexcept {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double AttributeSummary::variance() const noexcept {
  if (count < 2) return 0.0;
  const double n = static_cast<double>(count);
  const double m = sum / n;
  // Guard against catastrophic cancellation producing a tiny negative value.
  return std::max(0.0, sum_sq / n - m * m);
}

double AttributeSummary::stddev() const noexcept { return std::sqrt(variance()); }

namespace {
bool close(double a, double b, double rel_tol) noexcept {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= rel_tol * scale;
}
}  // namespace

bool AttributeSummary::approx_equals(const AttributeSummary& other,
                                     double rel_tol) const noexcept {
  if (count != other.count) return false;
  if (count == 0) return true;
  return close(min, other.min, rel_tol) && close(max, other.max, rel_tol) &&
         close(sum, other.sum, rel_tol) && close(sum_sq, other.sum_sq, rel_tol);
}

Summary::Summary(std::size_t num_attributes) : size_(num_attributes) {
  if (size_ > kInlineAttributes)
    heap_ = std::make_unique<AttributeSummary[]>(size_);
}

Summary::Summary(const Summary& other) : Summary(other.size_) {
  std::copy_n(other.data(), size_, data());
}

Summary::Summary(Summary&& other) noexcept
    : size_(other.size_), inline_(other.inline_),
      heap_(std::move(other.heap_)) {
  other.size_ = 0;
}

Summary& Summary::operator=(const Summary& other) {
  if (this == &other) return *this;
  if (size_ != other.size_) *this = Summary(other.size_);
  std::copy_n(other.data(), size_, data());
  return *this;
}

Summary& Summary::operator=(Summary&& other) noexcept {
  if (this == &other) return *this;
  size_ = other.size_;
  inline_ = other.inline_;
  heap_ = std::move(other.heap_);
  other.size_ = 0;
  return *this;
}

Summary Summary::from_attributes(std::span<const AttributeSummary> attrs) {
  for (const auto& a : attrs) {
    if (a.count != attrs.front().count)
      throw std::invalid_argument(
          "Summary::from_attributes: inconsistent observation counts");
  }
  Summary out(attrs.size());
  std::copy(attrs.begin(), attrs.end(), out.data());
  return out;
}

const AttributeSummary& Summary::attribute(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("Summary::attribute: index");
  return data()[i];
}

void Summary::add_observation(const double* values, std::size_t n) {
  if (n != size_)
    throw std::invalid_argument("Summary::add_observation: attribute count mismatch");
  AttributeSummary* attrs = data();
  for (std::size_t i = 0; i < n; ++i) attrs[i].add(values[i]);
}

void Summary::merge(const Summary& other) {
  if (size_ == 0) {
    *this = other;
    return;
  }
  if (other.size_ == 0) return;
  if (size_ != other.size_)
    throw std::invalid_argument("Summary::merge: attribute count mismatch");
  AttributeSummary* attrs = data();
  const AttributeSummary* theirs = other.data();
  for (std::size_t i = 0; i < size_; ++i) attrs[i].merge(theirs[i]);
}

bool Summary::approx_equals(const Summary& other, double rel_tol) const noexcept {
  if (size_ != other.size_) return false;
  for (std::size_t i = 0; i < size_; ++i)
    if (!data()[i].approx_equals(other.data()[i], rel_tol)) return false;
  return true;
}

bool Summary::operator==(const Summary& other) const noexcept {
  return std::ranges::equal(attributes(), other.attributes());
}

std::string Summary::to_string() const {
  std::ostringstream out;
  out << "{n=" << observation_count();
  for (std::size_t i = 0; i < size_; ++i) {
    const auto& a = data()[i];
    out << ", a" << i << "=[min=" << a.min << ", max=" << a.max
        << ", mean=" << a.mean() << "]";
  }
  out << "}";
  return out.str();
}

}  // namespace stash
