#include "iomodel/hierarchy.h"

#include "util/contracts.h"

namespace ccs::iomodel {

HierarchyCache::HierarchyCache(std::vector<std::int64_t> level_words,
                               std::int64_t block_words)
    : CacheSim(block_words) {
  CCS_EXPECTS(!level_words.empty(), "hierarchy needs at least one level");
  std::int64_t prev = 0;
  for (const std::int64_t words : level_words) {
    CCS_EXPECTS(words > prev, "level capacities must strictly increase");
    prev = words;
    levels_.push_back(std::make_unique<LruCache>(CacheConfig{words, block_words}));
  }
}

void HierarchyCache::access(Addr addr, AccessMode mode) {
  CCS_EXPECTS(addr >= 0, "negative address");
  access_level(0, block_of(addr), 1, mode == AccessMode::kWrite);
}

void HierarchyCache::do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) {
  access_level(0, first, count, mode == AccessMode::kWrite);
}

void HierarchyCache::access_level(std::size_t level, BlockId first, std::int64_t count,
                                  bool write) {
  const auto forward = [&](BlockId block) { access_level(level + 1, block, 1, write); };
  const MissSink on_miss(forward);
  levels_[level]->access_run(first, count, write,
                             level + 1 < levels_.size() ? &on_miss : nullptr);
}

void HierarchyCache::flush() {
  for (auto& level : levels_) level->flush();
}

bool HierarchyCache::contains(Addr addr) const {
  return levels_.front()->contains(addr);
}

const CacheStats& HierarchyCache::level_stats(std::size_t level) const {
  CCS_EXPECTS(level < levels_.size(), "level out of range");
  return levels_[level]->stats();
}

std::int64_t HierarchyCache::level_words(std::size_t level) const {
  CCS_EXPECTS(level < levels_.size(), "level out of range");
  return levels_[level]->config().capacity_words;
}

namespace {

void check_llc_geometry(const CacheConfig& llc, const CacheConfig& l1) {
  CCS_EXPECTS(llc.block_words == l1.block_words,
              "shared LLC must use the private level's block size");
  CCS_EXPECTS(llc.capacity_words > l1.capacity_words,
              "shared LLC must be strictly larger than a private level");
}

}  // namespace

SharedLlcCache::SharedLlcCache(const CacheConfig& private_config, LruCache* llc,
                               Mutex* llc_mutex)
    : CacheSim(private_config.block_words),
      l1_(private_config),
      llc_(llc),
      llc_mutex_(llc_mutex) {
  CCS_EXPECTS((llc == nullptr) == (llc_mutex == nullptr),
              "a shared LLC and its mutex must be provided together");
  if (llc_ != nullptr) check_llc_geometry(llc_->config(), private_config);
}

SharedLlcCache::SharedLlcCache(const CacheConfig& private_config, ShardedLruCache* llc)
    : CacheSim(private_config.block_words),
      l1_(private_config),
      llc_(nullptr),
      llc_mutex_(nullptr),
      sharded_llc_(llc) {
  if (sharded_llc_ != nullptr) check_llc_geometry(sharded_llc_->config(), private_config);
}

void SharedLlcCache::access(Addr addr, AccessMode mode) {
  CCS_EXPECTS(addr >= 0, "negative address");
  do_access_blocks(block_of(addr), 1, mode);
}

void SharedLlcCache::do_access_blocks(BlockId first, std::int64_t count, AccessMode mode) {
  const auto forward = [&](BlockId block) { forward_miss(block, mode); };
  const MissSink on_miss(forward);
  l1_.access_run(first, count, mode == AccessMode::kWrite, has_llc() ? &on_miss : nullptr);
}

void SharedLlcCache::forward_miss(BlockId block, AccessMode mode) {
  if (sharded_llc_ != nullptr) {
    sharded_llc_->access_block(block, mode);
  } else {
    const MutexLock lock(*llc_mutex_);
    llc_->access_block(block, mode);
  }
}

void SharedLlcCache::flush() { l1_.flush(); }

}  // namespace ccs::iomodel
