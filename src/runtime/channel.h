// FIFO channel backed by a ring buffer in the simulated address space.
//
// Tokens are unit-sized words. push/pop touch the cache at *block*
// granularity: a contiguous span of k words covers a fixed set of blocks,
// and touching each block once produces exactly the same miss count (and
// LRU recency order) as touching every word, while costing O(k/B) simulator
// work instead of O(k). push/pop are inline: they sit on the per-firing hot
// path, and only their error paths are out of line.
#pragma once

#include <algorithm>
#include <cstdint>

#include "iomodel/cache.h"
#include "iomodel/layout.h"
#include "util/contract.h"

namespace ccs::runtime {

/// Bounded FIFO queue of unit-size tokens with simulated memory traffic.
class Channel {
 public:
  /// `region.words` must equal `capacity` (one word per token slot).
  Channel(iomodel::Region region, std::int64_t capacity);

  std::int64_t capacity() const noexcept { return capacity_; }
  std::int64_t size() const noexcept { return size_; }
  std::int64_t space() const noexcept { return capacity_ - size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == capacity_; }

  /// Appends `count` tokens, writing their slots. Requires space() >= count
  /// (ScheduleError otherwise, before any memory traffic).
  void push(std::int64_t count, iomodel::CacheSim& cache) {
    CCS_EXPECTS(count >= 0, "negative push count");
    if (count > space()) throw_overflow(count);
    std::int64_t offset = head_ + size_;
    if (offset >= capacity_) offset -= capacity_;
    touch(offset, count, cache, iomodel::AccessMode::kWrite);
    size_ += count;
  }

  /// Removes `count` tokens, reading their slots. Requires size() >= count
  /// (ScheduleError otherwise, before any memory traffic).
  void pop(std::int64_t count, iomodel::CacheSim& cache) {
    CCS_EXPECTS(count >= 0, "negative pop count");
    if (count > size_) throw_underflow(count);
    touch(head_, count, cache, iomodel::AccessMode::kRead);
    head_ += count;
    if (head_ >= capacity_) head_ -= capacity_;
    size_ -= count;
  }

  /// Empties the queue without memory traffic (used between measurement
  /// phases; the data is dead by construction).
  void reset() noexcept {
    head_ = 0;
    size_ = 0;
  }

  /// Ring cursor of the oldest token, in [0, capacity). Together with
  /// size() this is the channel's complete mutable state -- the swap tier
  /// serializes exactly this pair.
  std::int64_t head() const noexcept { return head_; }

  /// Restores the ring cursors without memory traffic (swap-tier
  /// rehydration). Token *contents* are not modeled beyond block residency,
  /// so cursors are all there is to restore; the blocks themselves stay in
  /// (or fall out of) the simulated cache independently.
  void restore(std::int64_t head, std::int64_t size);

 private:
  /// Touches every block overlapping [offset, offset+count) within the ring:
  /// the wrapped span splits into at most two contiguous pieces, each issued
  /// as one bulk CacheSim::access_span transaction.
  void touch(std::int64_t offset, std::int64_t count, iomodel::CacheSim& cache,
             iomodel::AccessMode mode) const {
    // A ring span wraps at most once (count <= capacity), so the whole
    // operation is at most two bulk cache transactions.
    const std::int64_t run = std::min(count, capacity_ - offset);
    if (run > 0) cache.access_span(region_.base + offset, run, mode);
    if (count > run) cache.access_span(region_.base, count - run, mode);
  }

  [[noreturn]] void throw_overflow(std::int64_t count) const;
  [[noreturn]] void throw_underflow(std::int64_t count) const;

  iomodel::Region region_;
  std::int64_t capacity_;
  std::int64_t head_ = 0;  // index of the oldest token
  std::int64_t size_ = 0;
};

}  // namespace ccs::runtime
