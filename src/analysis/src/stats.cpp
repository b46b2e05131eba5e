#include "hpcwhisk/analysis/stats.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

namespace hpcwhisk::analysis {

namespace {

/// A key whose unsigned order is the order of the (non-NaN) doubles,
/// with -0.0 just below +0.0: negatives flip every bit, the rest flip
/// the sign bit.
std::uint64_t order_key(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

}  // namespace

double percentile(const std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const std::size_t k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  // Radix select on order_key: fix the key's digits from the top, a
  // digit per pass over `values`. Each pass counts the next digit among
  // the values that share the digits fixed so far and steps into the
  // bucket holding the wanted rank, until one value is left or the
  // whole key is fixed; a last pass returns a value with that key.
  // Equal keys are equal doubles, so this is the element nth_element
  // would place at the rank (equal up to the sign of a zero).
  constexpr unsigned kDigitBits = 11;
  std::size_t rank = k == 0 ? 0 : k - 1;  // among the matching values
  std::size_t matching = values.size();
  std::uint64_t fixed_mask = 0;  // key bits fixed so far
  std::uint64_t prefix = 0;      // their value
  unsigned hi = 64;              // bits below this are not yet fixed
  while (matching > 1 && hi > 0) {
    const unsigned lo = hi > kDigitBits ? hi - kDigitBits : 0;
    const std::uint64_t digit_mask = (std::uint64_t{1} << (hi - lo)) - 1;
    std::array<std::size_t, std::size_t{1} << kDigitBits> counts{};
    for (const double v : values) {
      const std::uint64_t key = order_key(v);
      if ((key & fixed_mask) == prefix) ++counts[(key >> lo) & digit_mask];
    }
    std::size_t digit = 0;
    while (rank >= counts[digit]) rank -= counts[digit++];
    matching = counts[digit];
    prefix |= static_cast<std::uint64_t>(digit) << lo;
    fixed_mask |= digit_mask << lo;
    hi = lo;
  }
  for (const double v : values) {
    if ((order_key(v) & fixed_mask) == prefix) return v;
  }
  return 0.0;  // unreachable: `matching` values share the prefix
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&sorted](double p) {
    const std::size_t k = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[k == 0 ? 0 : k - 1];
  };
  s.p25 = at(0.25);
  s.p50 = at(0.50);
  s.p75 = at(0.75);
  s.avg = mean(values);
  s.min = sorted.front();
  s.max = sorted.back();
  return s;
}

std::vector<CdfPoint> cdf_points(std::vector<double> values,
                                 std::size_t max_points) {
  std::vector<CdfPoint> out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t step = std::max<std::size_t>(1, n / max_points);
  for (std::size_t i = step - 1; i < n; i += step) {
    out.push_back({values[i], static_cast<double>(i + 1) / n});
  }
  if (out.empty() || out.back().prob < 1.0)
    out.push_back({values.back(), 1.0});
  return out;
}

double fraction_at_most(const std::vector<double>& values, double x) {
  if (values.empty()) return 0.0;
  std::size_t count = 0;
  for (const double v : values)
    if (v <= x) ++count;
  return static_cast<double>(count) / static_cast<double>(values.size());
}

}  // namespace hpcwhisk::analysis
