#include "latency/histogram.h"

#include <algorithm>
#include <bit>

#include "util/contract.h"
#include "util/error.h"

namespace ccs::latency {

std::int32_t Histogram::bucket_of(std::int64_t value) noexcept {
  return static_cast<std::int32_t>(std::bit_width(static_cast<std::uint64_t>(value)));
}

std::int64_t Histogram::bucket_floor(std::int32_t bucket) noexcept {
  return bucket == 0 ? 0 : std::int64_t{1} << (bucket - 1);
}

void Histogram::record(std::int64_t value) {
  CCS_EXPECTS(value >= 0, "latency samples are modeled cycle counts, never negative");
  ++buckets_[static_cast<std::size_t>(bucket_of(value))];
  ++count_;
  sum_ += value;
  if (value > max_) max_ = value;
}

Histogram& Histogram::operator+=(const Histogram& other) noexcept {
  for (std::int32_t b = 0; b < kBucketCount; ++b) {
    buckets_[static_cast<std::size_t>(b)] +=
        other.buckets_[static_cast<std::size_t>(b)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
  return *this;
}

std::int64_t Histogram::quantile_permille(std::int64_t permille) const {
  CCS_EXPECTS(permille >= 0 && permille <= 1000, "permille rank out of [0, 1000]");
  if (count_ == 0) return 0;
  // Smallest rank the permille covers, at least 1 so p0 reports the
  // minimum's bucket. Integer ceiling; count_ * permille stays far below
  // 2^63 for any feasible sample count.
  const std::int64_t rank = std::max<std::int64_t>(1, (count_ * permille + 999) / 1000);
  std::int64_t cumulative = 0;
  std::int32_t top = 0;  // highest occupied bucket, for the exact-max arm
  for (std::int32_t b = kBucketCount - 1; b >= 0; --b) {
    if (buckets_[static_cast<std::size_t>(b)] > 0) {
      top = b;
      break;
    }
  }
  for (std::int32_t b = 0; b < kBucketCount; ++b) {
    cumulative += buckets_[static_cast<std::size_t>(b)];
    if (cumulative >= rank) return b == top ? max_ : bucket_floor(b);
  }
  return max_;  // unreachable: cumulative reaches count_ >= rank
}

Histogram Histogram::from_state(const std::array<std::int64_t, kBucketCount>& buckets,
                                std::int64_t max, std::int64_t sum) {
  Histogram h;
  std::int64_t count = 0;
  std::int32_t top = -1;
  for (std::int32_t b = 0; b < kBucketCount; ++b) {
    const std::int64_t n = buckets[static_cast<std::size_t>(b)];
    if (n < 0) throw Error("corrupt latency histogram: negative bucket count");
    if (n > 0) top = b;
    count += n;
  }
  if (max < 0 || sum < 0) {
    throw Error("corrupt latency histogram: negative max or sum");
  }
  if (count == 0) {
    if (max != 0 || sum != 0) {
      throw Error("corrupt latency histogram: empty buckets with nonzero max/sum");
    }
  } else if (bucket_of(max) != top) {
    throw Error("corrupt latency histogram: max outside the topmost bucket");
  }
  h.buckets_ = buckets;
  h.count_ = count;
  h.sum_ = sum;
  h.max_ = max;
  return h;
}

}  // namespace ccs::latency
