// latency::Histogram exactness properties: integer-only accumulation,
// associative/commutative merge, boundary-exact quantiles, and the
// from_state validation the swap codec relies on.

#include "latency/histogram.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/contract.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccs::latency {
namespace {

TEST(Histogram, BucketOfMatchesLog2Boundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  // Bucket k >= 1 spans [2^(k-1), 2^k - 1]; its floor is its first value.
  for (std::int32_t k = 1; k < Histogram::kBucketCount; ++k) {
    const std::int64_t lo = Histogram::bucket_floor(k);
    EXPECT_EQ(Histogram::bucket_of(lo), k) << k;
    EXPECT_EQ(Histogram::bucket_of(lo - 1), k - 1) << k;
  }
  EXPECT_EQ(Histogram::bucket_floor(0), 0);
}

TEST(Histogram, EmptyReportsZeros) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.p50(), 0);
  EXPECT_EQ(h.p99(), 0);
  EXPECT_EQ(h.quantile_permille(1000), 0);
}

TEST(Histogram, RecordTracksCountSumMax) {
  Histogram h;
  h.record(0);
  h.record(5);
  h.record(1024);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 1029);
  EXPECT_EQ(h.max(), 1024);
  EXPECT_EQ(h.bucket(0), 1);                         // the 0 sample
  EXPECT_EQ(h.bucket(Histogram::bucket_of(5)), 1);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(1024)), 1);
}

TEST(Histogram, QuantilesAreExactAtBucketBoundaries) {
  // 100 samples, all exactly at bucket floors: every quantile must report
  // the recorded value itself, not an approximation.
  Histogram h;
  for (int i = 0; i < 50; ++i) h.record(64);    // bucket floor 64
  for (int i = 0; i < 45; ++i) h.record(256);   // bucket floor 256
  for (int i = 0; i < 5; ++i) h.record(4096);   // bucket floor 4096
  EXPECT_EQ(h.p50(), 64);     // rank 50 falls in the 64-bucket
  EXPECT_EQ(h.p95(), 256);    // rank 95 falls in the 256-bucket
  EXPECT_EQ(h.p99(), 4096);   // rank 99 falls in the topmost bucket
  EXPECT_EQ(h.quantile_permille(1000), 4096);
}

TEST(Histogram, TopmostBucketReportsTheExactMax) {
  // 4100 is NOT a bucket floor; the topmost occupied bucket reports the
  // exact tracked maximum instead of the floor, so the upper tail is exact.
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(8);
  h.record(4100);
  EXPECT_EQ(h.p50(), 8);
  EXPECT_EQ(h.quantile_permille(1000), 4100);
  EXPECT_EQ(h.max(), 4100);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  // Three histograms of deterministic pseudo-random samples: merging in any
  // order and grouping must produce bit-identical state (the property that
  // lets per-tenant histograms fold into the aggregate in any order).
  Rng rng(7);
  std::vector<Histogram> parts(3);
  for (Histogram& h : parts) {
    for (int i = 0; i < 200; ++i) h.record(rng.uniform(0, 1 << 20));
  }
  const Histogram ab_c = (parts[0] + parts[1]) + parts[2];
  const Histogram a_bc = parts[0] + (parts[1] + parts[2]);
  const Histogram cba = parts[2] + parts[1] + parts[0];
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c, cba);
  Histogram accum;
  accum += parts[1];
  accum += parts[2];
  accum += parts[0];
  EXPECT_EQ(accum, ab_c);
}

TEST(Histogram, PerTenantHistogramsSumToTheAggregate) {
  // Interleave samples across tenants exactly as a serving loop would, and
  // record every sample into a reference aggregate too: folding the tenant
  // histograms must reproduce the reference exactly.
  Rng rng(11);
  std::vector<Histogram> tenants(5);
  Histogram reference;
  for (int i = 0; i < 1000; ++i) {
    const auto t = static_cast<std::size_t>(rng.uniform(0, 4));
    const std::int64_t sample = rng.uniform(0, 1 << 16);
    tenants[t].record(sample);
    reference.record(sample);
  }
  Histogram folded;
  for (const Histogram& t : tenants) folded += t;
  EXPECT_EQ(folded, reference);
  EXPECT_EQ(folded.count(), 1000);
  EXPECT_EQ(folded.p99(), reference.p99());
}

TEST(Histogram, FromStateRoundTripsRecordedState) {
  Rng rng(3);
  Histogram h;
  for (int i = 0; i < 300; ++i) h.record(rng.uniform(0, 1 << 12));
  const Histogram back = Histogram::from_state(h.buckets(), h.max(), h.sum());
  EXPECT_EQ(back, h);
  // An empty histogram round-trips too.
  const Histogram empty;
  EXPECT_EQ(Histogram::from_state(empty.buckets(), 0, 0), empty);
}

TEST(Histogram, FromStateRejectsImpossibleState) {
  Histogram h;
  h.record(100);
  auto buckets = h.buckets();
  // Max outside the topmost occupied bucket.
  EXPECT_THROW(Histogram::from_state(buckets, 9999, h.sum()), Error);
  // Negative bucket count.
  buckets[3] = -1;
  EXPECT_THROW(Histogram::from_state(buckets, h.max(), h.sum()), Error);
  // Empty buckets with nonzero max/sum.
  const Histogram empty;
  EXPECT_THROW(Histogram::from_state(empty.buckets(), 1, 0), Error);
  EXPECT_THROW(Histogram::from_state(empty.buckets(), 0, 1), Error);
  // Negative max or sum.
  EXPECT_THROW(Histogram::from_state(h.buckets(), -1, h.sum()), Error);
  EXPECT_THROW(Histogram::from_state(h.buckets(), h.max(), -1), Error);
}

TEST(Histogram, RejectsNegativeSamplesAndBadRanks) {
  Histogram h;
  EXPECT_THROW(h.record(-1), ContractViolation);
  EXPECT_THROW(h.quantile_permille(-1), ContractViolation);
  EXPECT_THROW(h.quantile_permille(1001), ContractViolation);
}

}  // namespace
}  // namespace ccs::latency
