#include "iomodel/layout.h"

#include <gtest/gtest.h>

#include "util/contract.h"

namespace ccs::iomodel {
namespace {

TEST(Layout, AllocationsAreDisjointAndAligned) {
  MemoryLayout layout(8);
  const Region a = layout.allocate(10, "a");
  const Region b = layout.allocate(5, "b");
  EXPECT_EQ(a.base, 0);
  EXPECT_EQ(a.words, 10);
  EXPECT_EQ(b.base, 16);  // 10 rounded up to block boundary
  EXPECT_EQ(b.words, 5);
  EXPECT_EQ(b.base % 8, 0);
}

TEST(Layout, ZeroSizeRegionsAllowed) {
  MemoryLayout layout(8);
  const Region z = layout.allocate(0, "z");
  EXPECT_EQ(z.words, 0);
  const Region a = layout.allocate(4, "a");
  EXPECT_EQ(a.base, 0);  // zero region consumed no space
}

TEST(Layout, FootprintTracksCursor) {
  MemoryLayout layout(8);
  layout.allocate(3, "a");
  EXPECT_EQ(layout.footprint(), 3);
  layout.allocate(8, "b");  // aligned: starts at 8
  EXPECT_EQ(layout.footprint(), 16);
  EXPECT_EQ(layout.regions(), 2u);
}

TEST(Layout, PackedRegionsShareBlocks) {
  MemoryLayout layout(8);
  const Region a = layout.allocate(3, "a", /*block_align=*/false);
  const Region b = layout.allocate(3, "b", /*block_align=*/false);
  EXPECT_EQ(a.base, 0);
  EXPECT_EQ(b.base, 3);  // no padding between packed regions
  EXPECT_EQ(layout.footprint(), 6);
}

TEST(Layout, PackedThenAlignedRealigns) {
  MemoryLayout layout(8);
  layout.allocate(3, "packed", /*block_align=*/false);
  const Region aligned = layout.allocate(4, "aligned");
  EXPECT_EQ(aligned.base, 8);
  EXPECT_EQ(aligned.base % 8, 0);
}

TEST(Layout, LabelLookup) {
  MemoryLayout layout(8);
  layout.allocate(8, "state:foo");
  layout.allocate(8, "buf:foo>bar");
  EXPECT_EQ(layout.label_at(3), "state:foo");
  EXPECT_EQ(layout.label_at(9), "buf:foo>bar");
  EXPECT_EQ(layout.label_at(1000), "");
}

TEST(Layout, RegionContains) {
  const Region r{8, 4};
  EXPECT_TRUE(r.contains(8));
  EXPECT_TRUE(r.contains(11));
  EXPECT_FALSE(r.contains(12));
  EXPECT_FALSE(r.contains(7));
  EXPECT_EQ(r.end(), 12);
}

TEST(Layout, RejectsNegativeSize) {
  MemoryLayout layout(8);
  EXPECT_THROW(layout.allocate(-1, "bad"), ContractViolation);
}

}  // namespace
}  // namespace ccs::iomodel
