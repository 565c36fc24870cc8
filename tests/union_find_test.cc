#include "graph/union_find.h"

#include <gtest/gtest.h>

namespace infoshield {

// Reaches into the private parent array to plant corruption the public
// API can never produce, so the chain bounds check in Find is testable.
class UnionFindTestPeer {
 public:
  static void SetParent(UnionFind& uf, uint32_t element, uint32_t parent) {
    uf.parent_[element] = parent;
  }
};

namespace {

TEST(UnionFindTest, InitiallyAllSingletons) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.Find(i), i);
    EXPECT_EQ(uf.SetSize(i), 1u);
  }
}

TEST(UnionFindTest, UnionMerges) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 2));
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_EQ(uf.SetSize(0), 2u);
}

TEST(UnionFindTest, UnionIdempotent) {
  UnionFind uf(3);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_EQ(uf.num_sets(), 2u);
}

TEST(UnionFindTest, TransitiveConnectivity) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(2, 3);
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Connected(0, 3));
  EXPECT_EQ(uf.SetSize(3), 4u);
  EXPECT_FALSE(uf.Connected(0, 4));
}

TEST(UnionFindTest, ChainCollapsesUnderPathHalving) {
  const uint32_t n = 1000;
  UnionFind uf(n);
  for (uint32_t i = 0; i + 1 < n; ++i) uf.Union(i, i + 1);
  EXPECT_EQ(uf.num_sets(), 1u);
  EXPECT_EQ(uf.SetSize(0), n);
  uint32_t root = uf.Find(0);
  for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(uf.Find(i), root);
}

TEST(UnionFindDeathTest, FindOutOfRangeDies) {
  UnionFind uf(2);
  EXPECT_DEATH(uf.Find(2), "Check failed");
}

TEST(UnionFindDeathTest, CorruptParentChainDiesInsteadOfSilentUb) {
  // A stale or corrupt in-range element whose PARENT entry walked off
  // the array used to be silent UB in the path-halving read
  // (parent_[parent_[x]]); the chain bounds check turns it into a fatal
  // check. The argument check alone cannot catch this: x itself is in
  // range.
  UnionFind uf(3);
  UnionFindTestPeer::SetParent(uf, 1, 7);
  EXPECT_DEATH(uf.Find(1), "Check failed");
}

TEST(UnionFindTest, ValidateInvariantsFlagsCorruptParent) {
  UnionFind uf(3);
  UnionFindTestPeer::SetParent(uf, 1, 7);
  const Status status = uf.ValidateInvariants();
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace infoshield
