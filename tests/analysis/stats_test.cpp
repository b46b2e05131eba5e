#include "hpcwhisk/analysis/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "hpcwhisk/analysis/report.hpp"
#include "hpcwhisk/sim/rng.hpp"

namespace hpcwhisk::analysis {
namespace {

TEST(Stats, PercentileNearestRank) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

/// What percentile() returned before it stopped copying: nth_element
/// on a copy.
double nth_element_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const std::size_t k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const std::size_t idx = k == 0 ? 0 : k - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

/// Seeded non-NaN doubles. `mode` 0 draws from a small pool (heavy
/// duplicates, both zeros, infinities, subnormals and the extremes), 1
/// draws raw bit patterns (every sign and magnitude), 2 mixes the pool
/// with uniform values around zero.
std::vector<double> differential_input(sim::Rng& rng, std::size_t n,
                                       int mode) {
  using L = std::numeric_limits<double>;
  const double pool[] = {0.0,       -0.0,     1.0,          -1.0,
                         L::min(),  -L::min(), L::denorm_min(),
                         -L::denorm_min(),     L::max(),     -L::max(),
                         L::infinity(),        -L::infinity(), 1e300,
                         -1e-300,   2.5,      -2.5};
  constexpr std::int64_t kPool = sizeof pool / sizeof pool[0];
  std::vector<double> xs;
  xs.reserve(n);
  while (xs.size() < n) {
    double v;
    if (mode == 0 || (mode == 2 && rng.uniform_int(0, 1) == 0)) {
      v = pool[rng.uniform_int(0, kPool - 1)];
    } else if (mode == 1) {
      v = std::bit_cast<double>(rng.next_u64());
      if (std::isnan(v)) continue;
    } else {
      v = rng.uniform(-1e3, 1e3);
    }
    xs.push_back(v);
  }
  return xs;
}

TEST(Stats, PercentileMatchesNthElementOnACopy) {
  sim::Rng rng{2024};
  const std::size_t sizes[] = {1, 2, 3, 5, 17, 1000, 4097, 100000};
  for (const std::size_t n : sizes) {
    for (int mode = 0; mode < 3; ++mode) {
      const std::vector<double> xs = differential_input(rng, n, mode);
      std::vector<std::uint64_t> bits;
      for (const double v : xs) bits.push_back(std::bit_cast<std::uint64_t>(v));
      const double ps[] = {0.0,  1e-9, 1.0 / static_cast<double>(n),
                           0.5,  0.95, 0.99,
                           1.0};
      for (const double p : ps) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " mode=" << mode << " p=" << p);
        EXPECT_TRUE(percentile(xs, p) == nth_element_percentile(xs, p));
      }
      // The input is read, never reordered.
      for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(xs[i]), bits[i]);
    }
  }
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Stats, SummaryQuartilesAndMean) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.p25, 25.0);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p75, 75.0);
  EXPECT_DOUBLE_EQ(s.avg, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(Stats, SummaryOfEmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_DOUBLE_EQ(s.avg, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
}

TEST(Stats, CdfPointsMonotonic) {
  std::vector<double> xs;
  sim::Rng rng{1};
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.uniform(0, 100));
  const auto points = cdf_points(xs, 25);
  ASSERT_GE(points.size(), 2u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].value, points[i - 1].value);
    EXPECT_GT(points[i].prob, points[i - 1].prob);
  }
  EXPECT_DOUBLE_EQ(points.back().prob, 1.0);
  EXPECT_LE(points.size(), 27u);
}

TEST(Stats, FractionAtMost) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(fraction_at_most(xs, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_most(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(fraction_at_most(xs, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(fraction_at_most({}, 1.0), 0.0);
}

TEST(Stats, LongestRun) {
  const std::vector<int> xs{0, 1, 1, 1, 0, 1, 1, 0};
  EXPECT_EQ(longest_run(xs, [](int x) { return x == 1; }), 3u);
  EXPECT_EQ(longest_run(xs, [](int x) { return x == 2; }), 0u);
}

TEST(Report, FormattersRound) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.5, 0), "2");
  EXPECT_EQ(fmt_pct(0.12345, 2), "12.35%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

TEST(Report, TableAlignsColumns) {
  std::ostringstream os;
  print_table(os, "t", {"a", "long-header"}, {{"xxx", "1"}, {"y", "22"}});
  const std::string out = os.str();
  EXPECT_NE(out.find("== t =="), std::string::npos);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  // Every data row must have the same width.
  std::istringstream is{out};
  std::string line;
  std::size_t width = 0;
  std::getline(is, line);  // title
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '-') continue;
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Report, SlurmLevelReportComputesCoverage) {
  std::vector<StateCounts> samples(4);
  for (auto& s : samples) {
    s.pilot = 3;
    s.idle = 1;
    s.hpc = 10;
  }
  samples[3].pilot = 0;
  samples[3].idle = 0;
  const auto report = slurm_level_report(samples);
  // covered = 9 pilot samples of 12 available samples.
  EXPECT_NEAR(report.coverage, 9.0 / 12.0, 1e-9);
  EXPECT_NEAR(report.zero_available_share, 0.25, 1e-9);
  EXPECT_NEAR(report.zero_pilot_share, 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(report.pilot_workers.max, 3.0);
}

TEST(Report, SeriesDownsamplesByAveraging) {
  std::ostringstream os;
  std::vector<double> xs(100, 0.0);
  for (std::size_t i = 50; i < 100; ++i) xs[i] = 10.0;
  print_series(os, "s", xs, 1.0, 10);
  const std::string out = os.str();
  EXPECT_NE(out.find("-- series: s"), std::string::npos);
  // First bucket all zeros, last bucket all tens.
  EXPECT_NE(out.find("0 0.00"), std::string::npos);
  EXPECT_NE(out.find("90 10.00"), std::string::npos);
}

}  // namespace
}  // namespace hpcwhisk::analysis
