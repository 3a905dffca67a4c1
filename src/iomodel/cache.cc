#include "iomodel/cache.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "iomodel/simd.h"
#include "util/int_math.h"

namespace ccs::iomodel {

namespace {

constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();

inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace

CacheSim::CacheSim(std::int64_t block_words)
    : block_words_(block_words),
      block_shift_(is_pow2(block_words)
                       ? static_cast<std::int32_t>(
                             std::countr_zero(static_cast<std::uint64_t>(block_words)))
                       : -1) {
  CCS_EXPECTS(block_words > 0, "block size must be positive");
}

std::int64_t CacheSim::access_blocks(BlockId first, std::int64_t count, AccessMode mode) {
  CCS_EXPECTS(first >= 0, "negative block id");
  CCS_EXPECTS(count >= 0, "negative block count");
  CCS_EXPECTS(first <= kMaxInt64 - count, "block range overflows");
  if (count == 0) return 0;
  // Every block in the range must have an addressable first word, so the
  // bulk path and the word-at-a-time reference agree on their domain.
  CCS_EXPECTS(first + count - 1 <= kMaxInt64 / block_words_,
              "block range exceeds address space");
  if (!costs_.any()) {
    do_access_blocks(first, count, mode);
    return 0;
  }
  // Price the call from its own counter delta. The snapshot is four int64
  // loads; implementations never touch counters outside their own stats_,
  // so the delta covers exactly this call.
  const CacheStats before = stats();
  do_access_blocks(first, count, mode);
  CacheStats delta = stats();
  delta.accesses -= before.accesses;
  delta.hits -= before.hits;
  delta.misses -= before.misses;
  delta.writebacks -= before.writebacks;
  return costs_.price(delta);
}

std::int64_t CacheSim::access_span(Addr addr, std::int64_t words, AccessMode mode) {
  CCS_EXPECTS(addr >= 0, "negative address");
  CCS_EXPECTS(words >= 0, "negative span length");
  CCS_EXPECTS(addr <= kMaxInt64 - words, "span overflows address space");
  if (words == 0) return 0;
  const BlockId first = block_of(addr);
  const BlockId last = block_of(addr + words - 1);
  return access_blocks(first, last - first + 1, mode);
}

void CacheSim::access_range(Addr addr, std::int64_t count, AccessMode mode) {
  CCS_EXPECTS(addr >= 0, "negative address");
  CCS_EXPECTS(count >= 0, "negative access count");
  CCS_EXPECTS(addr <= kMaxInt64 - count, "range overflows address space");
  for (std::int64_t i = 0; i < count; ++i) access(addr + i, mode);
}

void CacheSim::do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) {
  for (BlockId b = first, e = first + count; b != e; ++b) access(b * block_words_, mode);
}

LruCache::LruCache(const CacheConfig& config)
    : CacheSim(config.block_words),
      config_(config),
      capacity_blocks_(config.capacity_blocks()) {
  CCS_EXPECTS(capacity_blocks_ >= 1, "cache must hold at least one block");
  CCS_EXPECTS(capacity_blocks_ < (std::int64_t{1} << 31) - 1,
              "LRU capacity too large for the flat node slab");
  // Size the probe table for the full capacity up front when it is modest
  // (<= 2^16 blocks: load factor <= 1/2 forever, no rehash ever). Larger
  // capacities start there and double as the working set grows; growth
  // stops once it stabilizes, so the steady state is allocation-free
  // either way.
  const auto eager = static_cast<std::uint64_t>(
      std::min<std::int64_t>(capacity_blocks_, std::int64_t{1} << 16));
  const std::size_t table_size = std::bit_ceil(std::max<std::uint64_t>(16, 2 * eager));
  table_.assign(table_size, kNil);
  table_mask_ = table_size - 1;
  table_shift_ = static_cast<std::int32_t>(
      64 - std::countr_zero(static_cast<std::uint64_t>(table_size)));
  slab_.reserve(static_cast<std::size_t>(eager) + 1);
  slab_.push_back(Node{-1, 0, 0, false});  // sentinel; empty circular list
}

std::size_t LruCache::find_slot(BlockId block) const {
  std::size_t slot = home_slot(block);
  while (table_[slot] != kNil &&
         slab_[static_cast<std::size_t>(table_[slot])].block != block) {
    slot = (slot + 1) & table_mask_;
  }
  return slot;
}

void LruCache::erase_slot(std::size_t slot) {
  // Backward-shift deletion keeps probe sequences contiguous without
  // tombstones: walk forward from the hole, moving back every entry whose
  // home slot does not lie strictly inside (hole, probe].
  std::size_t hole = slot;
  std::size_t probe = slot;
  while (true) {
    probe = (probe + 1) & table_mask_;
    const std::int32_t idx = table_[probe];
    if (idx == kNil) break;
    const std::size_t home = home_slot(slab_[static_cast<std::size_t>(idx)].block);
    if (((probe - home) & table_mask_) >= ((probe - hole) & table_mask_)) {
      table_[hole] = idx;
      hole = probe;
    }
  }
  table_[hole] = kNil;
}

void LruCache::grow_table() {
  const std::size_t table_size = table_.size() * 2;
  table_.assign(table_size, kNil);
  table_mask_ = table_size - 1;
  table_shift_ = static_cast<std::int32_t>(
      64 - std::countr_zero(static_cast<std::uint64_t>(table_size)));
  for (std::int32_t i = 1; i <= size_; ++i) {
    std::size_t slot = home_slot(slab_[static_cast<std::size_t>(i)].block);
    while (table_[slot] != kNil) slot = (slot + 1) & table_mask_;
    table_[slot] = i;
  }
}

void LruCache::move_to_front(std::int32_t idx) {
  if (slab_[0].next == idx) return;  // already MRU
  Node& n = slab_[static_cast<std::size_t>(idx)];
  // Branch-free circular relink through the sentinel.
  slab_[static_cast<std::size_t>(n.prev)].next = n.next;
  slab_[static_cast<std::size_t>(n.next)].prev = n.prev;
  const std::int32_t old_head = slab_[0].next;
  n.prev = 0;
  n.next = old_head;
  slab_[static_cast<std::size_t>(old_head)].prev = idx;
  slab_[0].next = idx;
}

bool LruCache::touch_block(BlockId block, bool write) {
  std::size_t slot = find_slot(block);
  std::int32_t idx = table_[slot];
  if (idx != kNil) {
    if (write) slab_[static_cast<std::size_t>(idx)].dirty = true;
    move_to_front(idx);
    return true;
  }
  if (size_ == capacity_blocks_) {
    // Evict the LRU block in place: reuse its node for the incoming block.
    idx = slab_[0].prev;
    Node& victim = slab_[static_cast<std::size_t>(idx)];
    if (victim.dirty) ++stats_.writebacks;
    erase_slot(find_slot(victim.block));
    slot = find_slot(block);  // erase may have shifted entries
    victim.block = block;
    victim.dirty = write;
    move_to_front(idx);
  } else {
    if (2 * static_cast<std::size_t>(size_ + 1) > table_.size()) {
      grow_table();
      slot = find_slot(block);
    }
    idx = static_cast<std::int32_t>(++size_);
    if (static_cast<std::size_t>(idx) == slab_.size()) {
      slab_.push_back(Node{block, 0, 0, write});
    } else {
      slab_[static_cast<std::size_t>(idx)] = Node{block, 0, 0, write};
    }
    const std::int32_t old_head = slab_[0].next;
    slab_[static_cast<std::size_t>(idx)].next = old_head;
    slab_[static_cast<std::size_t>(old_head)].prev = idx;
    slab_[0].next = idx;
  }
  table_[slot] = idx;
  return false;
}

void LruCache::access(Addr addr, AccessMode mode) {
  CCS_EXPECTS(addr >= 0, "negative address");
  ++stats_.accesses;
  if (touch_block(block_of(addr), mode == AccessMode::kWrite)) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
}

bool LruCache::splice_resident_run(BlockId first, std::int64_t count, bool write) {
  const BlockId last = first + count - 1;
  const std::int32_t top = table_[find_slot(last)];
  if (top == kNil) return false;
  // Walk toward LRU from `last`; the run must continue last-1, ..., first.
  // The sentinel's block is -1, never a valid id, so a run cut short by the
  // LRU end fails the compare like any other stranger.
  std::int32_t bottom = top;
  for (BlockId b = last - 1; b >= first; --b) {
    bottom = slab_[static_cast<std::size_t>(bottom)].next;
    if (slab_[static_cast<std::size_t>(bottom)].block != b) return false;
  }
  // Verified: every block of the span hits. Touching them in ascending
  // order would move each to MRU in turn, leaving last, ..., first at the
  // front and every other block in its old relative order -- exactly the
  // run spliced, unchanged, to the front.
  if (write) {
    for (std::int32_t i = top;; i = slab_[static_cast<std::size_t>(i)].next) {
      slab_[static_cast<std::size_t>(i)].dirty = true;
      if (i == bottom) break;
    }
  }
  const std::int32_t above = slab_[static_cast<std::size_t>(top)].prev;
  if (above != 0) {  // not already at MRU
    const std::int32_t below = slab_[static_cast<std::size_t>(bottom)].next;
    const std::int32_t old_head = slab_[0].next;
    slab_[static_cast<std::size_t>(above)].next = below;
    slab_[static_cast<std::size_t>(below)].prev = above;  // below may be the sentinel
    slab_[static_cast<std::size_t>(bottom)].next = old_head;
    slab_[static_cast<std::size_t>(old_head)].prev = bottom;
    slab_[static_cast<std::size_t>(top)].prev = 0;
    slab_[0].next = top;
  }
  stats_.accesses += count;
  stats_.hits += count;
  return true;
}

void LruCache::access_run(BlockId first, std::int64_t count, bool write,
                          const MissSink* on_miss) {
  if (count == 1) {
    // One-block span (a channel slot): direct hit/miss, no group set-up.
    // The hit stays inline; routing it through touch_block() cost ~10% of
    // the serving benchmark's firings/s.
    const std::int32_t idx = table_[find_slot(first)];
    ++stats_.accesses;
    if (idx != kNil) {
      ++stats_.hits;
      if (write) slab_[static_cast<std::size_t>(idx)].dirty = true;
      move_to_front(idx);
    } else {
      ++stats_.misses;
      touch_block(first, write);
      if (on_miss != nullptr) (*on_miss)(first);
    }
    CCS_AUDIT_BLOCK(if ((++audit_tick_ & 63) == 0) audit_invariants(););
    return;
  }
  if (splice_skip_ > 0) {
    --splice_skip_;
  } else if (splice_resident_run(first, count, write)) {
    splice_backoff_ = 0;
    CCS_AUDIT_BLOCK(if ((++audit_tick_ & 63) == 0) audit_invariants(););
    return;
  } else {
    splice_backoff_ = std::min(2 * splice_backoff_ + 1, 63);
    splice_skip_ = splice_backoff_;
  }

  std::int64_t hits = 0;
  // Keep the MRU head in a register across the span: the per-block relink
  // otherwise carries a store/load dependency through slab_[0].next.
  std::int32_t head = slab_[0].next;

  // Scalar per-block body: exact hit/miss handling, shared by the group
  // tail and the fallback when a probe group is not all home-slot hits.
  const auto scalar_block = [&](BlockId b) {
    prefetch(&table_[home_slot(b + 1)]);  // harmless one-past-the-end probe
    const std::int32_t idx = table_[find_slot(b)];
    if (idx != kNil) {
      ++hits;
      Node& n = slab_[static_cast<std::size_t>(idx)];
      if (write) n.dirty = true;
      if (head != idx) {
        // idx is not the head, so n.prev != 0 and nothing here reads the
        // (stale) slab_[0].next; n.next may be the sentinel, whose .prev
        // (the LRU tail) stays exact.
        slab_[static_cast<std::size_t>(n.prev)].next = n.next;
        slab_[static_cast<std::size_t>(n.next)].prev = n.prev;
        n.prev = 0;
        n.next = head;
        slab_[static_cast<std::size_t>(head)].prev = idx;
        head = idx;
      }
    } else {
      // The miss path walks the list through the sentinel (eviction, table
      // maintenance): sync the cached head around it.
      slab_[0].next = head;
      touch_block(b, write);
      head = slab_[0].next;
      if (on_miss != nullptr) (*on_miss)(b);
    }
  };

  constexpr std::int64_t kGroup = simd::kProbeBatch;
  BlockId b = first;
  const BlockId e = first + count;
  while (e - b >= kGroup) {
    if (!batch_hint_) {
      // Recent groups were not all home-slot hits (a streaming or
      // collision-heavy phase): a batch probe would be pure overhead on top
      // of the scalar work. Run scalar, and re-arm batching only when a
      // whole group hits again.
      const std::int64_t before = hits;
      for (std::int64_t i = 0; i < kGroup; ++i) scalar_block(b + i);
      batch_hint_ = hits - before == kGroup;
      b += kGroup;
      continue;
    }
    // Probe kGroup consecutive blocks' home slots in one constant-trip,
    // dependence-free pass (hash multiply, table gather, tag compare): the
    // stage a one-block loop serializes on its load-to-use chain. Nothing
    // mutates here, so the probes are independent by construction. An entry
    // found at its exact home slot is what find_slot() would return without
    // probing; mapping kNil to the sentinel (whose block is -1, never a
    // valid id) makes the compare branch-free.
    std::int32_t idx[simd::kProbeBatch];
    bool all_home_hit = true;
    CCS_SIMD_LOOP
    for (std::int64_t i = 0; i < kGroup; ++i) {
      const std::int32_t cand = table_[home_slot(b + i)];
      idx[i] = cand;
      all_home_hit &=
          slab_[static_cast<std::size_t>(std::max(cand, 0))].block == b + i;
    }
    prefetch(&table_[home_slot(b + kGroup)]);
    if (all_home_hit) {
      // Every block hit at its home slot: only the (inherently serial) LRU
      // relink remains, in the same ascending order as the scalar loop --
      // probing never mutates, so state and counters stay bit-identical.
      for (std::int64_t i = 0; i < kGroup; ++i) {
        const std::int32_t id = idx[i];
        Node& n = slab_[static_cast<std::size_t>(id)];
        if (write) n.dirty = true;
        if (head != id) {
          slab_[static_cast<std::size_t>(n.prev)].next = n.next;
          slab_[static_cast<std::size_t>(n.next)].prev = n.prev;
          n.prev = 0;
          n.next = head;
          slab_[static_cast<std::size_t>(head)].prev = id;
          head = id;
        }
      }
      hits += kGroup;
    } else {
      for (std::int64_t i = 0; i < kGroup; ++i) scalar_block(b + i);
      batch_hint_ = false;
    }
    b += kGroup;
  }
  for (; b != e; ++b) scalar_block(b);

  slab_[0].next = head;
  stats_.accesses += count;
  stats_.hits += hits;
  stats_.misses += count - hits;
  CCS_AUDIT_BLOCK(if ((++audit_tick_ & 63) == 0) audit_invariants(););
}

void LruCache::flush() {
  CCS_AUDIT_BLOCK(audit_invariants(););
  for (std::int32_t i = 1; i <= size_; ++i) {
    if (slab_[static_cast<std::size_t>(i)].dirty) ++stats_.writebacks;
  }
  std::fill(table_.begin(), table_.end(), kNil);
  slab_[0].prev = slab_[0].next = 0;
  size_ = 0;
}

void LruCache::audit_invariants() const {
  CCS_CHECK(size_ >= 0 && size_ <= capacity_blocks_,
            "resident count outside [0, capacity]");
  // Recency plane: exactly size_ nodes reachable forward from the sentinel,
  // back links consistent at every hop, circle closed by the sentinel's LRU
  // link. The walk is bounded by size_ so a corrupt cycle fails fast
  // instead of spinning.
  std::int64_t walked = 0;
  std::int32_t prev = 0;
  for (std::int32_t idx = slab_[0].next; idx != 0;
       idx = slab_[static_cast<std::size_t>(idx)].next) {
    CCS_CHECK(idx >= 1 && idx <= size_, "recency link points outside the live slab");
    const Node& n = slab_[static_cast<std::size_t>(idx)];
    CCS_CHECK(n.prev == prev, "recency list back link broken");
    CCS_CHECK(n.block >= 0, "resident node holds an invalid block id");
    CCS_CHECK(walked++ < size_, "recency list longer than resident count (cycle?)");
    // Table plane: every resident block must be findable at the slot the
    // probe sequence ends on, mapping back to this very node.
    CCS_CHECK(table_[find_slot(n.block)] == idx,
              "table does not map a resident block to its node");
    prev = idx;
  }
  CCS_CHECK(walked == size_, "recency list shorter than resident count");
  CCS_CHECK(slab_[0].prev == prev, "sentinel LRU link does not close the circle");
  // Table plane: exactly size_ live entries, all within the live slab range
  // (a duplicate table entry would already have failed the walk above,
  // since two slots cannot both be find_slot of one block).
  std::int64_t live = 0;
  for (const std::int32_t idx : table_) {
    if (idx == kNil) continue;
    ++live;
    CCS_CHECK(idx >= 1 && idx <= size_, "table entry outside the live slab range");
  }
  CCS_CHECK(live == size_, "table entry count disagrees with resident count");
}

bool LruCache::contains(Addr addr) const {
  if (addr < 0) return false;
  return table_[find_slot(block_of(addr))] != kNil;
}

SetAssociativeCache::SetAssociativeCache(const CacheConfig& config, std::int32_t ways)
    : CacheSim(config.block_words), config_(config), ways_(ways) {
  CCS_EXPECTS(ways >= 1, "need at least one way");
  const std::int64_t blocks = config.capacity_blocks();
  CCS_EXPECTS(blocks % ways == 0, "capacity_blocks must be divisible by ways");
  num_sets_ = blocks / ways;
  CCS_EXPECTS(is_pow2(num_sets_), "number of sets must be a power of two");
  const auto lines = static_cast<std::size_t>(num_sets_) * static_cast<std::size_t>(ways_);
  tags_.assign(lines, kEmptyTag);
  meta_.assign(lines, 0);
}

void SetAssociativeCache::fill_way(std::size_t base, BlockId block, bool write) {
  const BlockId* tags = tags_.data() + base;
  // Victim: the last empty way if any way is empty, else the unique
  // least-recently-used way (meta compares as the stamp because stamps are
  // distinct and sit above the dirty bit).
  std::int32_t victim = 0;
  for (std::int32_t w = 1; w < ways_; ++w) {
    if (tags[w] == kEmptyTag) {
      victim = w;
    } else if (tags[victim] != kEmptyTag &&
               meta_[base + static_cast<std::size_t>(w)] <
                   meta_[base + static_cast<std::size_t>(victim)]) {
      victim = w;
    }
  }
  const std::size_t line = base + static_cast<std::size_t>(victim);
  if (tags_[line] != kEmptyTag && (meta_[line] & 1) != 0) ++stats_.writebacks;
  tags_[line] = block;
  meta_[line] = (tick_ << 1) | (write ? 1 : 0);
}

bool SetAssociativeCache::touch_block(BlockId block, bool write) {
  ++tick_;
  const std::size_t base = set_index(block) * static_cast<std::size_t>(ways_);
  const BlockId* tags = tags_.data() + base;
  // One-pass early-exit scan tracking the victim as it goes: on the random
  // single-access path the simulator's own cache misses dominate, so
  // touching the fewest lines beats a branch-free sweep. Empty ways never
  // match a valid id.
  std::int32_t victim = 0;
  for (std::int32_t w = 0; w < ways_; ++w) {
    if (tags[w] == block) {
      const std::size_t line = base + static_cast<std::size_t>(w);
      meta_[line] = (tick_ << 1) | (meta_[line] & 1) | (write ? 1 : 0);
      return true;
    }
    if (tags[w] == kEmptyTag) {
      victim = w;
    } else if (w > 0 && tags[victim] != kEmptyTag &&
               meta_[base + static_cast<std::size_t>(w)] <
                   meta_[base + static_cast<std::size_t>(victim)]) {
      victim = w;
    }
  }
  const std::size_t line = base + static_cast<std::size_t>(victim);
  if (tags_[line] != kEmptyTag && (meta_[line] & 1) != 0) ++stats_.writebacks;
  tags_[line] = block;
  meta_[line] = (tick_ << 1) | (write ? 1 : 0);
  return false;
}

void SetAssociativeCache::access(Addr addr, AccessMode mode) {
  CCS_EXPECTS(addr >= 0, "negative address");
  ++stats_.accesses;
  if (touch_block(block_of(addr), mode == AccessMode::kWrite)) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
}

void SetAssociativeCache::do_access_blocks(BlockId first, std::int64_t count,
                                           AccessMode mode) {
  const bool write = mode == AccessMode::kWrite;
  std::int64_t hits = 0;
  constexpr std::int64_t kGroup = simd::kProbeBatch;
  BlockId b = first;
  const BlockId e = first + count;

  // Consecutive blocks map to consecutive sets, so when a group of kGroup
  // blocks neither wraps the set index nor exceeds the set count, its tag
  // rows are one contiguous, mutually disjoint stretch of the tag plane:
  // probe them in a single dependence-free sweep (kGroup * ways_ compares),
  // then apply the per-block updates in order. Disjointness makes the
  // precomputed probe exact -- updating row i cannot change row j -- and
  // the tick stamps advance per block exactly as in the scalar loop.
  while (e - b >= kGroup) {
    const std::size_t set0 = set_index(b);
    if (set0 + kGroup > static_cast<std::size_t>(num_sets_)) {
      // Group would wrap past the last set; step one block scalar.
      hits += touch_block(b, write) ? 1 : 0;
      ++b;
      continue;
    }
    const BlockId* tags = tags_.data() + set0 * static_cast<std::size_t>(ways_);
    std::int32_t hit_way[simd::kProbeBatch];
    for (std::int64_t i = 0; i < kGroup; ++i) {
      const BlockId* row = tags + i * ways_;
      std::int32_t found = -1;
      CCS_SIMD_LOOP
      for (std::int32_t w = 0; w < ways_; ++w) {
        if (row[w] == b + i) found = w;  // at most one way matches
      }
      hit_way[i] = found;
    }
    for (std::int64_t i = 0; i < kGroup; ++i) {
      ++tick_;
      const std::size_t base =
          (set0 + static_cast<std::size_t>(i)) * static_cast<std::size_t>(ways_);
      if (hit_way[i] >= 0) {
        ++hits;
        const std::size_t line = base + static_cast<std::size_t>(hit_way[i]);
        meta_[line] = (tick_ << 1) | (meta_[line] & 1) | (write ? 1 : 0);
      } else {
        fill_way(base, b + i, write);
      }
    }
    b += kGroup;
  }
  for (; b != e; ++b) {
    hits += touch_block(b, write) ? 1 : 0;
  }
  stats_.accesses += count;
  stats_.hits += hits;
  stats_.misses += count - hits;
  CCS_AUDIT_BLOCK(if ((++audit_tick_ & 63) == 0) audit_invariants(););
}

void SetAssociativeCache::flush() {
  CCS_AUDIT_BLOCK(audit_invariants(););
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] != kEmptyTag && (meta_[i] & 1) != 0) ++stats_.writebacks;
  }
  std::fill(tags_.begin(), tags_.end(), kEmptyTag);
  std::fill(meta_.begin(), meta_.end(), std::uint64_t{0});
}

void SetAssociativeCache::audit_invariants() const {
  CCS_CHECK(stats_.hits + stats_.misses == stats_.accesses,
            "hit/miss split disagrees with the access count");
  for (std::int64_t set = 0; set < num_sets_; ++set) {
    const std::size_t base =
        static_cast<std::size_t>(set) * static_cast<std::size_t>(ways_);
    for (std::int32_t w = 0; w < ways_; ++w) {
      const BlockId tag = tags_[base + static_cast<std::size_t>(w)];
      if (tag == kEmptyTag) continue;
      CCS_CHECK(tag >= 0, "resident tag holds an invalid block id");
      CCS_CHECK(set_index(tag) == static_cast<std::size_t>(set),
                "resident tag indexes a different set");
      CCS_CHECK(meta_[base + static_cast<std::size_t>(w)] >> 1 <= tick_,
                "recency stamp is newer than the current tick");
      for (std::int32_t w2 = w + 1; w2 < ways_; ++w2) {
        CCS_CHECK(tags_[base + static_cast<std::size_t>(w2)] != tag,
                  "one block resident in two ways of a set");
      }
    }
  }
}

bool SetAssociativeCache::contains(Addr addr) const {
  // A negative address has no block; letting it through would compute a
  // negative id (matching kEmptyTag for -1) or round toward block 0.
  if (addr < 0) return false;
  const BlockId block = block_of(addr);
  const std::size_t base = set_index(block) * static_cast<std::size_t>(ways_);
  const BlockId* tags = tags_.data() + base;
  for (std::int32_t w = 0; w < ways_; ++w) {
    if (tags[w] == block) return true;
  }
  return false;
}

std::unique_ptr<CacheSim> make_lru(std::int64_t capacity_words, std::int64_t block_words) {
  return std::make_unique<LruCache>(CacheConfig{capacity_words, block_words});
}

std::unique_ptr<CacheSim> make_set_associative(std::int64_t capacity_words,
                                               std::int64_t block_words, std::int32_t ways) {
  return std::make_unique<SetAssociativeCache>(CacheConfig{capacity_words, block_words}, ways);
}

}  // namespace ccs::iomodel
