// Cache simulators for the I/O model.
//
// CacheSim is the interface the streaming runtime drives; implementations:
//  * LruCache          -- fully associative LRU (the paper's analysis model;
//                         an ideal cache in the sense of Frigo et al.)
//  * SetAssociativeCache -- k-way set-associative LRU, for checking that the
//                         paper's conclusions survive on realistic geometry.
//
// All implementations count *block transfers*: an access to an uncached
// block is one miss; evicting a dirty block is one writeback.
//
// Hot path: the runtime touches memory in contiguous spans (channel ring
// segments, module state regions), so CacheSim exposes a block-granular bulk
// API -- access_blocks() and the word-range wrapper access_span() -- that
// costs one simulated access per block with a single virtual dispatch per
// span. Implementations override do_access_blocks() to run the whole span
// through their non-virtual per-block fast path; the default falls back to
// one access() per block. Bulk and per-access paths produce bit-identical
// CacheStats and replacement state (tests/iomodel/bulk_access_test.cc checks
// this differentially).
//
// LruCache's bulk path is the simulator's inner loop, and has three tiers:
//  * a span whose blocks already sit in the recency list as one contiguous
//    run (last, last-1, ..., first -- what touching the span last time
//    left behind) is verified by one table probe plus a walk of the run,
//    then moved to the MRU end with one O(1) splice;
//  * a one-block span takes a direct hit/miss path;
//  * everything else runs the batched group-probe loop.
// The same entry reports each block it missed, in ascending order, to an
// optional MissSink -- how SharedLlcCache and HierarchyCache forward a span's
// private misses to the next level without a per-block loop of their own.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "iomodel/types.h"

namespace ccs::iomodel {

/// Abstract word-addressed cache.
class CacheSim {
 public:
  virtual ~CacheSim() = default;

  /// Block size shared by every level/way of this cache, in words.
  std::int64_t block_words() const noexcept { return block_words_; }

  /// Touches one word; loads the containing block on a miss.
  virtual void access(Addr addr, AccessMode mode) = 0;

  /// Touches `count` consecutive blocks starting at `first`: one simulated
  /// access per block, in ascending order. Equivalent to (but much cheaper
  /// than) calling access(b * B, mode) for each block b. Returns the
  /// accumulated modeled cost of exactly this call under the attached
  /// AccessCosts (0 under the all-zero default); because pricing is linear
  /// in the counters, per-call costs sum to the price of the whole window's
  /// stats() delta, exactly.
  std::int64_t access_blocks(BlockId first, std::int64_t count, AccessMode mode);

  /// Word-range wrapper around access_blocks(): one simulated access per
  /// block overlapping [addr, addr + words). This is how the runtime touches
  /// a contiguous span -- identical misses and recency order to touching
  /// every word, at O(words/B) simulator work. Returns the call's modeled
  /// cost, like access_blocks().
  std::int64_t access_span(Addr addr, std::int64_t words, AccessMode mode);

  /// Attaches per-counter cycle costs (latency::CostModel::access_costs());
  /// subsequent bulk calls return their priced delta. The default all-zero
  /// costs price every call at 0 and skip the delta bookkeeping entirely.
  void set_access_costs(const AccessCosts& costs) noexcept { costs_ = costs; }
  const AccessCosts& access_costs() const noexcept { return costs_; }

  /// Evicts everything (dirty blocks count as writebacks). Statistics are
  /// preserved; only contents are dropped.
  virtual void flush() = 0;

  /// True if the containing block is resident.
  virtual bool contains(Addr addr) const = 0;

  /// Cumulative transfer counters. The returned reference must stay valid
  /// for the cache's lifetime and track subsequent accesses live (callers
  /// such as the runtime engine hold it across accesses and re-read the
  /// counters for per-phase deltas) — return a reference to the internal
  /// counters, not to a lazily assembled snapshot.
  virtual const CacheStats& stats() const = 0;

  /// Geometry this cache was built with.
  virtual const CacheConfig& config() const = 0;

  /// Convenience: touch `count` consecutive words starting at addr (one
  /// simulated access per *word*, unlike the block-granular span API).
  void access_range(Addr addr, std::int64_t count, AccessMode mode);

 protected:
  /// `block_words` must match config().block_words; the base class caches it
  /// (plus its log2 when it is a power of two) so the span-to-block
  /// arithmetic on the hot path needs no virtual dispatch and no division.
  explicit CacheSim(std::int64_t block_words);

  /// Block containing a (non-negative) word address.
  BlockId block_of(Addr addr) const {
    return block_shift_ >= 0 ? addr >> block_shift_ : addr / block_words_;
  }

  /// Bulk implementation hook; called with a validated, non-empty range.
  /// The default loops access() once per block.
  virtual void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode);

 private:
  std::int64_t block_words_;
  std::int32_t block_shift_;  // log2(block_words), or -1 if not a power of two
  AccessCosts costs_;         // all-zero unless a cost model is attached
};

/// Non-owning callback through which LruCache's bulk probe reports each
/// block it missed, in ascending order, right after installing it. The
/// callable must outlive the sink.
class MissSink {
 public:
  template <class F>
  explicit MissSink(const F& fn) noexcept
      : fn_(&fn), call_([](const void* f, BlockId block) { (*static_cast<const F*>(f))(block); }) {}

  void operator()(BlockId block) const { call_(fn_, block); }

 private:
  const void* fn_;
  void (*call_)(const void*, BlockId);
};

/// Fully associative LRU with write-back/write-allocate.
///
/// Replacement state is an intrusive doubly-linked list threaded through a
/// flat node slab, indexed by an open-addressing (linear probing, backward-
/// shift deletion) hash table. The table is sized for the full capacity at
/// construction for ordinary geometries, so the steady state performs zero
/// heap allocations; absurdly large capacities start small and double
/// geometrically, which is still allocation-free once the working set
/// stabilizes.
class LruCache final : public CacheSim {
 public:
  explicit LruCache(const CacheConfig& config);

  void access(Addr addr, AccessMode mode) override;
  void flush() override;
  bool contains(Addr addr) const override;
  const CacheStats& stats() const override { return stats_; }
  const CacheConfig& config() const override { return config_; }

  /// Touches one whole block (one simulated access); returns true on a hit.
  /// Non-virtual hot path used by the bulk API and HierarchyCache.
  bool access_block(BlockId block, AccessMode mode) {
    CCS_EXPECTS(block >= 0, "negative block id");
    ++stats_.accesses;
    const bool hit = touch_block(block, mode == AccessMode::kWrite);
    hit ? ++stats_.hits : ++stats_.misses;
    return hit;
  }

  /// Blocks currently resident (for tests).
  std::int64_t resident_blocks() const { return size_; }

  /// Heavy cross-consistency walk of the three replacement-state planes:
  /// the recency list visits exactly size_ nodes with consistent back links
  /// and closes on the sentinel, every resident block is findable through
  /// the open-addressing table, and the table holds exactly size_ live
  /// entries. O(capacity + table). Throws ContractViolation on the first
  /// inconsistency. Audit builds (-DCCS_AUDIT=ON) run it automatically at
  /// bulk-access and flush boundaries; tests may call it in any build.
  void audit_invariants() const;

 protected:
  void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) override {
    access_run(first, count, mode == AccessMode::kWrite, nullptr);
  }

 private:
  // The two-level caches drive access_run() directly: they have already
  // validated the range in their own CacheSim::access_blocks().
  friend class HierarchyCache;
  friend class SharedLlcCache;

  static constexpr std::int32_t kNil = -1;

  /// One block's replacement state. slab_[0] is a sentinel that closes the
  /// recency list into a circle (sentinel.next = MRU, sentinel.prev = LRU),
  /// so relinking needs no nil/head/tail branches. Live nodes are exactly
  /// slab_[1 .. size_].
  struct Node {
    BlockId block;
    std::int32_t prev;
    std::int32_t next;
    bool dirty;
  };

  std::size_t home_slot(BlockId block) const {
    // Fibonacci hashing: multiply spreads nearby block ids, the top bits
    // index the power-of-two table.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(block) * 0x9e3779b97f4a7c15ULL) >> table_shift_);
  }

  /// Bulk implementation: touches blocks first .. first+count-1 in
  /// ascending order (count >= 1, range validated) and bumps the counters.
  /// If `on_miss` is non-null it receives every missed block, in the order
  /// a per-block loop would have missed them.
  void access_run(BlockId first, std::int64_t count, bool write, const MissSink* on_miss);

  /// Resident-run fast path: if blocks last, last-1, ..., first follow one
  /// another in the recency list, the span is all hits and its exact LRU
  /// outcome is that run moved to the MRU end -- done as one splice, with
  /// counters and dirty bits applied. Returns false, having changed
  /// nothing, on the first block out of place.
  bool splice_resident_run(BlockId first, std::int64_t count, bool write);

  /// Hit/miss/eviction core; updates everything except the accesses/hits/
  /// misses counters (callers batch those so span loops are not serialized
  /// on read-modify-write chains). Returns true on a hit.
  bool touch_block(BlockId block, bool write);
  void move_to_front(std::int32_t idx);
  std::size_t find_slot(BlockId block) const;
  void erase_slot(std::size_t slot);
  void grow_table();

  CacheConfig config_;
  std::int64_t capacity_blocks_;
  CacheStats stats_;
  std::vector<Node> slab_;
  std::vector<std::int32_t> table_;  // node index or kNil
  std::size_t table_mask_ = 0;
  std::int32_t table_shift_ = 64;    // 64 - log2(table size)
  std::int64_t size_ = 0;

  /// Bulk-loop execution hint: whether the last probe group was all
  /// home-slot hits, i.e. whether attempting the batched group probe is
  /// likely to pay off. Pure strategy state -- it never changes counters or
  /// replacement order, only which (bit-identical) loop body runs -- kept
  /// across calls so a streaming all-miss phase stops paying for doomed
  /// batch probes after its first group.
  bool batch_hint_ = true;

  /// Resident-run execution hint, pure strategy state like batch_hint_:
  /// after a failed splice attempt the next splice_skip_ multi-block spans
  /// go straight to the group loop, with the skip doubling (up to 63) on
  /// each consecutive failure and reset by a success. A workload whose
  /// spans are never resident runs (random overlapping spans, streaming
  /// scans) thus stops paying for doomed walks, while one that re-touches
  /// whole spans (module state) splices nearly every time.
  std::int32_t splice_skip_ = 0;
  std::int32_t splice_backoff_ = 0;

  /// Audit-mode sampling counter: a full audit_invariants() walk per bulk
  /// call would turn O(n) runs into O(n^2), so audit builds walk every
  /// 64th bulk boundary. Unused (but harmless) outside audit builds.
  [[maybe_unused]] std::int64_t audit_tick_ = 0;
};

/// k-way set-associative LRU. `ways == 1` gives a direct-mapped cache.
///
/// Line state is stored structure-of-arrays, row-major by set: a tag plane
/// (kEmptyTag = -1 marks an empty way; block ids are non-negative, so empty
/// ways never match without a separate valid-bit check) and a meta plane
/// packing each way's recency stamp and dirty bit into one word. The bulk
/// path probes simd::kProbeBatch consecutive sets' tag rows -- one
/// contiguous, dependence-free compare sweep -- per group; the single-access
/// path keeps the classic one-pass early-exit scan, which wins when the
/// simulator's own memory traffic (not the compare loop) dominates.
class SetAssociativeCache final : public CacheSim {
 public:
  /// Requires capacity_blocks % ways == 0 and a power-of-two set count (so
  /// the index function is a mask, as in real hardware).
  SetAssociativeCache(const CacheConfig& config, std::int32_t ways);

  void access(Addr addr, AccessMode mode) override;
  void flush() override;
  bool contains(Addr addr) const override;
  const CacheStats& stats() const override { return stats_; }
  const CacheConfig& config() const override { return config_; }

  std::int32_t ways() const noexcept { return ways_; }
  std::int64_t sets() const noexcept { return num_sets_; }

  /// Heavy walk of the tag/meta planes: every resident tag indexes its own
  /// set, no set holds a duplicate tag, and no recency stamp is newer than
  /// the current tick. Throws ContractViolation on the first inconsistency.
  /// Audit builds run it at bulk-access and flush boundaries.
  void audit_invariants() const;

 protected:
  void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) override;

 private:
  static constexpr BlockId kEmptyTag = -1;

  std::size_t set_index(BlockId block) const {
    return static_cast<std::size_t>(block & (num_sets_ - 1));
  }

  /// Hit/miss/eviction core; returns true on a hit. Callers batch the
  /// accesses/hits/misses counters.
  bool touch_block(BlockId block, bool write);

  /// Miss handling for a probed set row: victim choice, writeback count,
  /// fill. `base` indexes the row, tick_ has already been advanced.
  void fill_way(std::size_t base, BlockId block, bool write);

  CacheConfig config_;
  std::int32_t ways_;
  std::int64_t num_sets_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
  // Structure-of-arrays line state, num_sets_ * ways_ entries row-major by
  // set: tags_[base + w] pairs with meta_[base + w]. Meta packs the recency
  // stamp above the dirty bit -- (tick << 1) | dirty -- so LRU victim
  // selection is one integer compare (stamps are unique, the stamp field
  // dominates) and a line's whole state is two planes, not three.
  std::vector<BlockId> tags_;           // kEmptyTag = way is empty
  std::vector<std::uint64_t> meta_;     // (last-use tick << 1) | dirty

  /// Audit-mode sampling counter (see LruCache::audit_tick_).
  [[maybe_unused]] std::int64_t audit_tick_ = 0;
};

/// Factory helpers.
std::unique_ptr<CacheSim> make_lru(std::int64_t capacity_words, std::int64_t block_words);
std::unique_ptr<CacheSim> make_set_associative(std::int64_t capacity_words,
                                               std::int64_t block_words, std::int32_t ways);

}  // namespace ccs::iomodel
