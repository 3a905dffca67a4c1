#include "iomodel/cache.h"

#include <gtest/gtest.h>

#include "util/contracts.h"

namespace ccs::iomodel {
namespace {

CacheConfig small_config() { return CacheConfig{32, 8}; }  // 4 blocks of 8 words

TEST(LruCache, ColdMissThenHit) {
  LruCache cache(small_config());
  cache.access(0, AccessMode::kRead);
  EXPECT_EQ(cache.stats().misses, 1);
  cache.access(1, AccessMode::kRead);  // same block
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().accesses, 2);
}

TEST(LruCache, DistinctBlocksMissSeparately) {
  LruCache cache(small_config());
  for (Addr a : {0, 8, 16, 24}) cache.access(a, AccessMode::kRead);
  EXPECT_EQ(cache.stats().misses, 4);
  EXPECT_EQ(cache.resident_blocks(), 4);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(small_config());
  for (Addr a : {0, 8, 16, 24}) cache.access(a, AccessMode::kRead);
  cache.access(0, AccessMode::kRead);   // refresh block 0; LRU is now block 1
  cache.access(32, AccessMode::kRead);  // evicts block 1 (addr 8..15)
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(8));
  EXPECT_TRUE(cache.contains(16));
  EXPECT_TRUE(cache.contains(32));
}

TEST(LruCache, CapacityBoundsResidency) {
  LruCache cache(small_config());
  for (Addr a = 0; a < 100 * 8; a += 8) cache.access(a, AccessMode::kRead);
  EXPECT_EQ(cache.resident_blocks(), 4);
  EXPECT_EQ(cache.stats().misses, 100);
}

TEST(LruCache, SequentialScanMissesOncePerBlock) {
  LruCache cache(CacheConfig{1024, 8});
  for (Addr a = 0; a < 256; ++a) cache.access(a, AccessMode::kRead);
  EXPECT_EQ(cache.stats().misses, 256 / 8);
  EXPECT_EQ(cache.stats().hits, 256 - 256 / 8);
}

TEST(LruCache, DirtyEvictionCountsWriteback) {
  LruCache cache(small_config());
  cache.access(0, AccessMode::kWrite);
  for (Addr a : {8, 16, 24, 32}) cache.access(a, AccessMode::kRead);  // evicts block 0
  EXPECT_EQ(cache.stats().writebacks, 1);
}

TEST(LruCache, CleanEvictionNoWriteback) {
  LruCache cache(small_config());
  for (Addr a = 0; a < 6 * 8; a += 8) cache.access(a, AccessMode::kRead);
  EXPECT_EQ(cache.stats().writebacks, 0);
}

TEST(LruCache, FlushWritesBackDirtyAndEmpties) {
  LruCache cache(small_config());
  cache.access(0, AccessMode::kWrite);
  cache.access(8, AccessMode::kRead);
  cache.flush();
  EXPECT_EQ(cache.stats().writebacks, 1);
  EXPECT_EQ(cache.resident_blocks(), 0);
  cache.access(0, AccessMode::kRead);
  EXPECT_EQ(cache.stats().misses, 3);  // 2 cold + 1 after flush
}

TEST(LruCache, AccessRangeTouchesEveryWord) {
  LruCache cache(CacheConfig{1024, 8});
  cache.access_range(3, 20, AccessMode::kRead);  // words 3..22: blocks 0,1,2
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().accesses, 20);
}

TEST(LruCache, RejectsNegativeAddress) {
  LruCache cache(small_config());
  EXPECT_THROW(cache.access(-1, AccessMode::kRead), ContractViolation);
}

TEST(LruCache, MissRate) {
  LruCache cache(CacheConfig{1024, 8});
  for (Addr a = 0; a < 8; ++a) cache.access(a, AccessMode::kRead);
  EXPECT_DOUBLE_EQ(cache.stats().miss_rate(), 1.0 / 8.0);
}

TEST(SetAssociative, HitsWithinSet) {
  SetAssociativeCache cache(CacheConfig{32, 8}, 2);  // 2 sets x 2 ways
  cache.access(0, AccessMode::kRead);
  cache.access(0, AccessMode::kRead);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(SetAssociative, ConflictMissesDespiteCapacity) {
  // Blocks 0, 2, 4 all map to set 0 of a 2-set cache; 3 > 2 ways thrashes.
  SetAssociativeCache cache(CacheConfig{32, 8}, 2);
  for (int round = 0; round < 3; ++round) {
    for (Addr a : {0, 16, 32}) cache.access(a, AccessMode::kRead);
  }
  // A fully associative cache of the same size would miss only 3 times.
  EXPECT_GT(cache.stats().misses, 3);
}

TEST(SetAssociative, LruWithinSet) {
  SetAssociativeCache cache(CacheConfig{32, 8}, 2);
  cache.access(0, AccessMode::kRead);   // set 0
  cache.access(16, AccessMode::kRead);  // set 0
  cache.access(0, AccessMode::kRead);   // refresh block 0
  cache.access(32, AccessMode::kRead);  // set 0: evicts block 2 (addr 16)
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(16));
}

TEST(SetAssociative, DirectMappedIsOneWay) {
  SetAssociativeCache cache(CacheConfig{32, 8}, 1);
  EXPECT_EQ(cache.ways(), 1);
  EXPECT_EQ(cache.sets(), 4);
  cache.access(0, AccessMode::kRead);
  cache.access(32, AccessMode::kRead);  // same set, evicts
  cache.access(0, AccessMode::kRead);
  EXPECT_EQ(cache.stats().misses, 3);
}

TEST(SetAssociative, ContainsRejectsNegativeAddresses) {
  // Block -1 must not match an empty way's tag, and -3 must not round
  // toward block 0.
  SetAssociativeCache cache(CacheConfig{32, 8}, 2);
  EXPECT_FALSE(cache.contains(-8));
  cache.access(0, AccessMode::kRead);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(-3));
  EXPECT_FALSE(cache.contains(-1));
}

TEST(SetAssociative, RejectsBadGeometry) {
  EXPECT_THROW(SetAssociativeCache(CacheConfig{24, 8}, 2), ContractViolation);  // 3 blocks % 2
  EXPECT_THROW(SetAssociativeCache(CacheConfig{48, 8}, 2), ContractViolation);  // 3 sets !pow2
}

TEST(SetAssociative, FullyAssociativeMatchesLruOnSmallTrace) {
  // ways == capacity_blocks makes the set-associative cache fully
  // associative; on any trace it must then match LruCache exactly.
  const CacheConfig config{64, 8};
  LruCache lru(config);
  SetAssociativeCache sa(config, static_cast<std::int32_t>(config.capacity_blocks()));
  ASSERT_EQ(sa.sets(), 1);
  std::uint64_t seed = 42;
  for (int i = 0; i < 2000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const Addr a = static_cast<Addr>(seed % 512);
    lru.access(a, AccessMode::kRead);
    sa.access(a, AccessMode::kRead);
  }
  EXPECT_EQ(lru.stats().misses, sa.stats().misses);
}

TEST(Factories, ProduceWorkingCaches) {
  auto lru = make_lru(1024, 8);
  lru->access(0, AccessMode::kRead);
  EXPECT_EQ(lru->stats().misses, 1);
  auto sa = make_set_associative(1024, 8, 4);
  sa->access(0, AccessMode::kRead);
  EXPECT_EQ(sa->stats().misses, 1);
}

TEST(CacheConfig, CapacityBlocks) {
  EXPECT_EQ((CacheConfig{64, 8}).capacity_blocks(), 8);
  EXPECT_THROW((CacheConfig{4, 8}).capacity_blocks(), ContractViolation);
}

}  // namespace
}  // namespace ccs::iomodel
