#include "core/sws.h"

#include <gtest/gtest.h>

namespace sqlog::core {
namespace {

Pattern MakePattern(std::vector<uint64_t> ids, uint64_t frequency, size_t users) {
  Pattern pattern;
  pattern.template_ids = std::move(ids);
  pattern.frequency = frequency;
  for (size_t u = 0; u < users; ++u) pattern.users.push_back(static_cast<uint32_t>(u + 1));
  return pattern;
}

TEST(SwsTest, FrequentSingleUserPatternIsSws) {
  std::vector<Pattern> patterns;
  patterns.push_back(MakePattern({1}, 5000, 1));
  SwsOptions options;
  options.frequency_fraction = 0.01;
  options.max_user_popularity = 1;
  SwsReport report = DetectSws(patterns, 100000, options);
  ASSERT_EQ(report.patterns.size(), 1u);
  EXPECT_EQ(report.covered_queries, 5000u);
  EXPECT_DOUBLE_EQ(report.coverage, 0.05);
}

TEST(SwsTest, PopularPatternIsNotSws) {
  std::vector<Pattern> patterns;
  patterns.push_back(MakePattern({1}, 5000, 40));
  SwsOptions options;
  options.max_user_popularity = 2;
  SwsReport report = DetectSws(patterns, 100000, options);
  EXPECT_TRUE(report.patterns.empty());
  EXPECT_EQ(report.coverage, 0.0);
}

TEST(SwsTest, InfrequentPatternIsNotSws) {
  std::vector<Pattern> patterns;
  patterns.push_back(MakePattern({1}, 5, 1));
  SwsOptions options;
  options.frequency_fraction = 0.01;
  SwsReport report = DetectSws(patterns, 100000, options);
  EXPECT_TRUE(report.patterns.empty());
}

TEST(SwsTest, LongerPatternsDoNotDoubleCount) {
  std::vector<Pattern> patterns;
  patterns.push_back(MakePattern({1}, 5000, 1));
  patterns.push_back(MakePattern({1, 2}, 2500, 1));
  SwsOptions options;
  options.frequency_fraction = 0.001;
  SwsReport report = DetectSws(patterns, 100000, options);
  ASSERT_EQ(report.patterns.size(), 1u);
  EXPECT_EQ(report.patterns[0].pattern_index, 0u);
}

TEST(SwsTest, CoverageGridIsMonotone) {
  // Table 8's shape: coverage grows with userPopularity and with a
  // looser frequency threshold.
  std::vector<Pattern> patterns;
  patterns.push_back(MakePattern({1}, 9000, 1));
  patterns.push_back(MakePattern({2}, 4000, 2));
  patterns.push_back(MakePattern({3}, 900, 4));
  patterns.push_back(MakePattern({4}, 80, 8));
  const size_t total = 100000;

  double previous_row = -1.0;
  for (size_t user_pop : {1u, 2u, 4u, 8u, 16u}) {
    double previous_cell = -1.0;
    double row_at_tightest = 0.0;
    for (double freq : {0.1, 0.01, 0.001, 0.0001}) {
      SwsOptions options;
      options.frequency_fraction = freq;
      options.max_user_popularity = user_pop;
      double coverage = DetectSws(patterns, total, options).coverage;
      EXPECT_GE(coverage, previous_cell);  // looser frequency ⇒ ≥ coverage
      previous_cell = coverage;
      if (freq == 0.1) row_at_tightest = coverage;
    }
    EXPECT_GE(row_at_tightest, previous_row);  // looser popularity ⇒ ≥
    previous_row = row_at_tightest;
  }
}

TEST(SwsTest, EmptyInputsAreSafe) {
  SwsReport report = DetectSws({}, 0, SwsOptions{});
  EXPECT_TRUE(report.patterns.empty());
  EXPECT_EQ(report.coverage, 0.0);
}

}  // namespace
}  // namespace sqlog::core
