#include "runtime/worker_pool.h"

#include "util/contract.h"
#include "util/error.h"
#include "util/int_math.h"

namespace ccs::runtime {

WorkerPool::WorkerPool(WorkerPoolOptions options) : options_(options) {
  if (options_.workers < 1) throw Error("worker pool needs at least one worker");
  if (options_.l1.block_words <= 0) {
    throw MemoryError("worker cache block size must be positive");
  }
  if (options_.l1.capacity_words < options_.l1.block_words) {
    throw MemoryError("worker cache must hold at least one block");
  }
  if (options_.llc_words < 0) throw Error("shared LLC capacity must be non-negative");
  if (options_.llc_shards < 0) throw Error("LLC shard count must be non-negative");
  if (options_.llc_words > 0) {
    if (options_.llc_words <= options_.l1.capacity_words) {
      throw Error("shared LLC must be strictly larger than a worker's private cache");
    }
    const iomodel::CacheConfig llc_config{options_.llc_words, options_.l1.block_words};
    if (options_.llc_shards >= 1) {
      if (!is_pow2(options_.llc_shards)) {
        throw Error("LLC shard count must be a power of two");
      }
      if (llc_config.capacity_blocks() < options_.llc_shards) {
        throw Error("LLC too small: every shard needs at least one block");
      }
      sharded_llc_ =
          std::make_unique<iomodel::ShardedLruCache>(llc_config, options_.llc_shards);
    } else {
      llc_ = std::make_unique<iomodel::LruCache>(llc_config);
    }
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (std::int32_t w = 0; w < options_.workers; ++w) {
    if (sharded_llc_ != nullptr) {
      workers_.push_back(
          std::make_unique<iomodel::SharedLlcCache>(options_.l1, sharded_llc_.get()));
    } else {
      workers_.push_back(std::make_unique<iomodel::SharedLlcCache>(
          options_.l1, llc_.get(), llc_ != nullptr ? &llc_mutex_ : nullptr));
    }
  }
}

iomodel::SharedLlcCache& WorkerPool::worker_cache(std::int32_t w) {
  CCS_EXPECTS(w >= 0 && w < size(), "worker id out of range");
  return *workers_[static_cast<std::size_t>(w)];
}

const iomodel::SharedLlcCache& WorkerPool::worker_cache(std::int32_t w) const {
  CCS_EXPECTS(w >= 0 && w < size(), "worker id out of range");
  return *workers_[static_cast<std::size_t>(w)];
}

const iomodel::CacheStats& WorkerPool::llc_stats() const {
  CCS_EXPECTS(has_llc(), "pool has no shared LLC");
  if (sharded_llc_ != nullptr) return sharded_llc_->stats();
  // The flat backend's counters live inside the mutex-guarded cache; take
  // the lock for the read so a stats poll never races an in-flight probe.
  const MutexLock lock(llc_mutex_);
  return llc_->stats();
}

std::int64_t WorkerPool::resident_blocks(std::int32_t w, const iomodel::Region& region) const {
  const iomodel::SharedLlcCache& cache = worker_cache(w);
  const std::int64_t block = cache.block_words();
  std::int64_t resident = 0;
  if (region.words <= 0) return 0;
  const iomodel::Addr last = region.end() - 1;
  for (iomodel::Addr a = (region.base / block) * block; a <= last; a += block) {
    if (cache.contains(a)) ++resident;
  }
  return resident;
}

std::int64_t WorkerPool::resident_words(std::int32_t w, const iomodel::Region& region) const {
  return resident_blocks(w, region) * worker_cache(w).block_words();
}

}  // namespace ccs::runtime
