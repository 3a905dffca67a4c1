#include "util/stats.h"

#include <gtest/gtest.h>

#include "util/contract.h"

namespace ccs {
namespace {

TEST(OnlineStats, EmptyIsZeroed) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownSequence) {
  OnlineStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(GeometricMean, KnownValues) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_NEAR(geometric_mean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(GeometricMean, RejectsNonPositive) {
  EXPECT_THROW(geometric_mean({1.0, 0.0}), ContractViolation);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

}  // namespace
}  // namespace ccs
