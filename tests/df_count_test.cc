// The partitioned df count and its flat map: counts must equal the
// serial reference's global map at every thread count, and the map must
// keep every count through growth and copies.

#include "tfidf/df_count.h"

#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/reference_coarse.h"
#include "text/corpus.h"

namespace infoshield {
namespace {

// A hash whose top bits place it in partition `p` (DfPartitionOf takes
// the top six bits), with `salt` varying the low bits.
PhraseHash HashInPartition(size_t p, uint64_t salt) {
  return (static_cast<PhraseHash>(p) << 58) | salt;
}

Corpus CampaignCorpus() {
  Corpus c;
  for (int i = 0; i < 60; ++i) {
    c.Add("shared spam phrase number " + std::to_string(i % 7) +
          " with trailing tail " + std::to_string(i) + " and " +
          std::to_string(i * 31 % 17));
  }
  return c;
}

// Every (hash, df) of `counts` in partition order.
std::vector<PhraseDf> Flatten(const DfCounts& counts) {
  std::vector<PhraseDf> out;
  for (const std::vector<PhraseDf>& partition : counts) {
    out.insert(out.end(), partition.begin(), partition.end());
  }
  return out;
}

TEST(DfCountTest, PartitionOfUsesTopBits) {
  EXPECT_EQ(DfPartitionOf(HashInPartition(0, 123)), 0u);
  EXPECT_EQ(DfPartitionOf(HashInPartition(17, 0)), 17u);
  EXPECT_EQ(DfPartitionOf(HashInPartition(63, 999)), 63u);
}

TEST(DfCountTest, MatchesSerialReferenceAtEveryThreadCount) {
  const Corpus c = CampaignCorpus();
  const std::unordered_map<PhraseHash, uint32_t> reference =
      oracle::ReferenceDocumentFrequencies(c, 0, c.size(), /*max_ngram=*/5);
  const std::vector<PhraseDf> first =
      Flatten(CountDocumentFrequencies(c, 0, c.size(), 5, 1));
  ASSERT_EQ(first.size(), reference.size());
  for (const PhraseDf& entry : first) {
    const auto it = reference.find(entry.hash);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(entry.df, it->second);
  }
  for (size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(Flatten(CountDocumentFrequencies(c, 0, c.size(), 5, threads)),
              first)
        << "threads=" << threads;
  }
}

TEST(DfCountTest, PartitionsHoldSortedRunsOfTheirOwnHashes) {
  const DfCounts counts =
      CountDocumentFrequencies(CampaignCorpus(), 0, 60, 5, 4);
  for (size_t p = 0; p < kDfPartitions; ++p) {
    for (size_t i = 0; i < counts[p].size(); ++i) {
      EXPECT_EQ(DfPartitionOf(counts[p][i].hash), p);
      if (i > 0) {
        EXPECT_LT(counts[p][i - 1].hash, counts[p][i].hash);
      }
    }
  }
}

TEST(DfCountTest, CountsSpreadAcrossAllPartitions) {
  const DfCounts counts =
      CountDocumentFrequencies(CampaignCorpus(), 0, 60, 5, 2);
  for (size_t p = 0; p < kDfPartitions; ++p) {
    EXPECT_FALSE(counts[p].empty()) << "partition " << p;
  }
}

TEST(DfCountTest, CountsOnlyTheRequestedRange) {
  const Corpus c = CampaignCorpus();
  const std::unordered_map<PhraseHash, uint32_t> reference =
      oracle::ReferenceDocumentFrequencies(c, 10, 25, 3);
  EXPECT_EQ(Flatten(CountDocumentFrequencies(c, 10, 25, 3, 4)).size(),
            reference.size());
  EXPECT_EQ(Flatten(CountDocumentFrequencies(c, 7, 7, 3, 4)).size(), 0u);
}

TEST(FlatDfMapTest, AddAccumulatesIntoExistingCounts) {
  FlatDfMap map;
  EXPECT_EQ(map.Find(7), 0u);
  EXPECT_TRUE(map.Add(7, 5));
  EXPECT_FALSE(map.Add(7, 1));
  EXPECT_TRUE(map.Add(8, 2));
  EXPECT_EQ(map.Find(7), 6u);
  EXPECT_EQ(map.Find(8), 2u);
  EXPECT_EQ(map.Find(9), 0u);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatDfMapTest, GrowthKeepsEveryCount) {
  // Keys sharing a partition's top bits and colliding low bits stress the
  // probe sequence across several rehashes.
  FlatDfMap map;
  constexpr uint64_t kKeys = 5000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    map.Add(HashInPartition(5, k << 20), static_cast<uint32_t>(k % 9 + 1));
  }
  EXPECT_EQ(map.size(), kKeys);
  size_t visited = 0;
  map.ForEach([&](const PhraseDf&) { ++visited; });
  EXPECT_EQ(visited, kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(map.Find(HashInPartition(5, k << 20)), k % 9 + 1) << k;
  }
}

TEST(FlatDfMapTest, CopyIsIndependentOfItsSource) {
  FlatDfMap original;
  original.Add(1, 1);
  FlatDfMap copy = original;
  copy.Add(1, 2);
  copy.Add(2, 1);
  EXPECT_EQ(original.Find(1), 1u);
  EXPECT_EQ(original.Find(2), 0u);
  EXPECT_EQ(copy.Find(1), 3u);
  EXPECT_EQ(copy.size(), 2u);
}

}  // namespace
}  // namespace infoshield
