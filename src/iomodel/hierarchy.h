// Multi-level cache hierarchy simulation.
//
// The paper analyzes a two-level hierarchy (cache + memory); Savage's
// extension of Hong–Kung to deeper hierarchies [24] is cited as the natural
// generalization. HierarchyCache stacks fully-associative LRU levels:
// an access probes L1; on a miss it probes L2, and so on; the block is then
// installed in every level above the one that hit (inclusive hierarchy).
// Per-level stats expose where the partitioned scheduler's savings land —
// experiment E13 shows partitioning built for the L2 size removes L2/memory
// traffic while leaving L1 behaviour unchanged.
//
// A span runs through each level's bulk path once: L1 takes the whole span
// and reports each block it missed, in ascending order; exactly those blocks
// go on to L2, whose misses go on to L3, and so on. A level's state depends
// only on the sequence of blocks it is probed with, and that sequence --
// the blocks every level below missed, in ascending order -- is the one a
// block-at-a-time walk down the levels produces, so the result is
// bit-identical to it. SharedLlcCache forwards its private misses to the
// shared LLC the same way.
#pragma once

#include <memory>
#include <vector>

#include "iomodel/cache.h"
#include "iomodel/sharded_cache.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ccs::iomodel {

/// Inclusive multi-level LRU hierarchy. Level 0 is the smallest/fastest.
class HierarchyCache final : public CacheSim {
 public:
  /// `level_words` are capacities from L1 upward, strictly increasing; all
  /// levels share one block size.
  HierarchyCache(std::vector<std::int64_t> level_words, std::int64_t block_words);

  void access(Addr addr, AccessMode mode) override;
  void flush() override;
  bool contains(Addr addr) const override;

  /// CacheSim::stats() reports the *last* level (transfers from backing
  /// memory) so the hierarchy drops into any harness expecting a two-level
  /// model whose cost is block transfers from slow memory.
  const CacheStats& stats() const override { return levels_.back()->stats(); }
  const CacheConfig& config() const override { return levels_.back()->config(); }

  std::size_t depth() const noexcept { return levels_.size(); }

  /// Per-level counters; level 0 counts all word accesses, level i>0 only
  /// sees accesses that missed every level below.
  const CacheStats& level_stats(std::size_t level) const;

  /// Capacity of one level, in words.
  std::int64_t level_words(std::size_t level) const;

 protected:
  void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) override;

 private:
  /// Runs blocks first .. first+count-1 through `level`, forwarding each
  /// miss to the next level; every probed level installs the block, giving
  /// an inclusive hierarchy.
  void access_level(std::size_t level, BlockId first, std::int64_t count, bool write);

  std::vector<std::unique_ptr<LruCache>> levels_;
};

/// One core's view of a multicore cache hierarchy: a private LRU level in
/// front of an optional *shared* last-level cache owned by someone else
/// (runtime::WorkerPool). The private level behaves exactly like a
/// standalone LruCache of the same geometry -- stats(), config(),
/// contains(), and replacement state are the private level's, so per-worker
/// counters are independent of who else shares the LLC. A private miss
/// additionally probes-and-installs the shared LLC (inclusive, like
/// HierarchyCache); that probe is the only synchronization a pool of worker
/// threads needs, because private levels are single-owner by construction.
/// Two shared-LLC backends are supported:
///
///  * a flat LruCache guarded by a pool-wide `llc_mutex` (the original
///    single-mutex design -- every cross-worker miss serializes), or
///  * a ShardedLruCache, which locks only the stripe owning the missed
///    block internally, so workers missing on different stripes proceed in
///    parallel.
///
/// With a null LLC the class degenerates to a plain private LRU, so one
/// worker type covers the flat-cache and both shared-LLC configurations.
class SharedLlcCache final : public CacheSim {
 public:
  /// `llc` and `llc_mutex` must either both be provided (and outlive this
  /// cache) or both be null; the LLC must share the private block size and
  /// be strictly larger than the private level.
  SharedLlcCache(const CacheConfig& private_config, LruCache* llc, Mutex* llc_mutex);

  /// Sharded backend: `llc` (may be null for no LLC) locks per stripe
  /// internally, so no pool-wide mutex exists at all. Same geometry
  /// requirements as the single-mutex ctor.
  SharedLlcCache(const CacheConfig& private_config, ShardedLruCache* llc);

  void access(Addr addr, AccessMode mode) override;
  void flush() override;  ///< Flushes the private level only; the LLC is shared.
  bool contains(Addr addr) const override { return l1_.contains(addr); }

  /// The private level's counters/geometry: a worker's own traffic.
  const CacheStats& stats() const override { return l1_.stats(); }
  const CacheConfig& config() const override { return l1_.config(); }

  bool has_llc() const noexcept { return llc_ != nullptr || sharded_llc_ != nullptr; }

  /// Resident blocks in the private level (for placement-affinity probes).
  LruCache& private_level() noexcept { return l1_; }
  const LruCache& private_level() const noexcept { return l1_; }

 protected:
  void do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) override;

 private:
  /// Probe-and-install of one private miss in the shared LLC -- under the
  /// pool-wide mutex (flat backend) or the owning stripe's internal lock
  /// (sharded backend).
  void forward_miss(BlockId block, AccessMode mode);

  LruCache l1_;
  LruCache* llc_ CCS_PT_GUARDED_BY(llc_mutex_);  ///< Pointee guarded by the pool mutex.
  Mutex* llc_mutex_;
  ShardedLruCache* sharded_llc_ = nullptr;
};

}  // namespace ccs::iomodel
