#pragma once
// Small statistics toolkit used by the reports: percentiles, CDF
// extraction for the paper's figures, and time-weighted aggregates.

#include <cstdint>
#include <vector>

#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::analysis {

/// p in [0,1]; nearest-rank percentile of unsorted, NaN-free values;
/// 0 when empty. Returns exactly what std::nth_element on a copy would
/// leave at the rank, without copying or reordering `values`.
[[nodiscard]] double percentile(const std::vector<double>& values, double p);

[[nodiscard]] double mean(const std::vector<double>& values);

/// Summary of a sample: mean plus the quartiles the paper tabulates.
struct Summary {
  double p25{0};
  double p50{0};
  double p75{0};
  double avg{0};
  double min{0};
  double max{0};
};
[[nodiscard]] Summary summarize(const std::vector<double>& values);

/// CDF points (value, cumulative probability) from raw samples, thinned
/// to at most `max_points` for printing figure series.
struct CdfPoint {
  double value;
  double prob;
};
[[nodiscard]] std::vector<CdfPoint> cdf_points(std::vector<double> values,
                                               std::size_t max_points = 50);

/// Fraction of `values` that are <= x.
[[nodiscard]] double fraction_at_most(const std::vector<double>& values,
                                      double x);

/// Longest run (in consecutive samples) satisfying a predicate, returned
/// in sample counts; used for "longest period with zero ready workers".
template <typename T, typename Pred>
[[nodiscard]] std::size_t longest_run(const std::vector<T>& xs, Pred pred) {
  std::size_t best = 0, cur = 0;
  for (const T& x : xs) {
    cur = pred(x) ? cur + 1 : 0;
    if (cur > best) best = cur;
  }
  return best;
}

}  // namespace hpcwhisk::analysis
