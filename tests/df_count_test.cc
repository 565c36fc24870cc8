// The partitioned df count and its flat tables: counts must equal the
// serial reference's global map at every thread count, and the map and
// the df-1 set must keep every member through growth, copies and erases.

#include "tfidf/df_count.h"

#include <algorithm>
#include <array>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/reference_coarse.h"
#include "text/corpus.h"
#include "text/ngram.h"

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

// Each partition's folded run, copied out by a fold that writes only its
// own partition's slot.
using PartitionRuns = std::array<std::vector<PhraseDf>, kDfPartitions>;

PartitionRuns CountRuns(const Corpus& corpus, size_t begin, size_t end,
                   size_t max_ngram, size_t num_threads) {
  PartitionRuns counts;
  CountDocumentFrequencies(
      corpus, begin, end, max_ngram, num_threads,
      [&](size_t p, std::span<const PhraseDf> run) {
        EXPECT_TRUE(counts[p].empty()) << "partition " << p << " folded twice";
        EXPECT_FALSE(run.empty()) << "partition " << p << " folded empty";
        counts[p].assign(run.begin(), run.end());
      });
  return counts;
}

// Every (hash, df) of `counts` in partition order.
std::vector<PhraseDf> Flatten(const PartitionRuns& counts) {
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
      Flatten(CountRuns(c, 0, c.size(), 5, 1));
  ASSERT_EQ(first.size(), reference.size());
  for (const PhraseDf& entry : first) {
    const auto it = reference.find(entry.hash);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(entry.df, it->second);
  }
  for (size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(Flatten(CountRuns(c, 0, c.size(), 5, threads)),
              first)
        << "threads=" << threads;
  }
}

TEST(DfCountTest, PartitionsHoldSortedRunsOfTheirOwnHashes) {
  const PartitionRuns counts =
      CountRuns(CampaignCorpus(), 0, 60, 5, 4);
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
  const PartitionRuns counts =
      CountRuns(CampaignCorpus(), 0, 60, 5, 2);
  for (size_t p = 0; p < kDfPartitions; ++p) {
    EXPECT_FALSE(counts[p].empty()) << "partition " << p;
  }
}

TEST(DfCountTest, CountsOnlyTheRequestedRange) {
  const Corpus c = CampaignCorpus();
  const std::unordered_map<PhraseHash, uint32_t> reference =
      oracle::ReferenceDocumentFrequencies(c, 10, 25, 3);
  EXPECT_EQ(Flatten(CountRuns(c, 10, 25, 3, 4)).size(),
            reference.size());
  EXPECT_EQ(Flatten(CountRuns(c, 7, 7, 3, 4)).size(), 0u);
}

// Documents of two interned words [a, b] whose bigram lands in partition
// `p`, chosen from every ordered pair of `vocab` words so that neither
// unigram does: partition p then holds the chosen bigrams alone.
// `want(subrange, taken)` says whether to take a bigram of that
// sub-range, `taken` being how many of its sub-range are taken already.
template <typename Want>
Corpus BigramCorpus(size_t p, size_t vocab, Want want) {
  Corpus c;
  for (size_t w = 0; w < vocab; ++w) {
    c.mutable_vocab().Intern("w" + std::to_string(w));
  }
  std::vector<size_t> taken(kDfSubRanges, 0);
  for (TokenId a = 0; a < vocab; ++a) {
    if (DfPartitionOf(HashNgram(&a, 1)) == p) continue;
    for (TokenId b = 0; b < vocab; ++b) {
      const TokenId pair[] = {a, b};
      const PhraseHash hash = HashNgram(pair, 2);
      if (DfPartitionOf(hash) != p ||
          DfPartitionOf(HashNgram(&b, 1)) == p) {
        continue;
      }
      const size_t s = DfSubRangeOf(hash);
      if (!want(s, taken[s])) continue;
      // One to three documents each, so the runs carry df 1, 2 and 3.
      for (size_t copy = 0; copy <= taken[s] % 3; ++copy) {
        c.AddTokens({a, b}, "");
      }
      ++taken[s];
    }
  }
  return c;
}

// Every partition's run as a std::map count of each document's distinct
// n-grams yields it.
PartitionRuns MapCountRuns(const Corpus& c, size_t max_ngram) {
  std::map<PhraseHash, uint32_t> df;
  std::vector<PhraseHash> grams;
  for (const Document& doc : c.docs()) {
    grams.clear();
    AppendNgramHashes(doc, 1, max_ngram, &grams);
    std::sort(grams.begin(), grams.end());
    grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
    for (const PhraseHash hash : grams) ++df[hash];
  }
  PartitionRuns runs;
  for (const auto& [hash, count] : df) {
    runs[DfPartitionOf(hash)].push_back(PhraseDf{hash, count});
  }
  return runs;
}

TEST(DfCountTest, PartitionInOneSubRangeMatchesMapCount) {
  // Partition 7 holds only bigrams of sub-range 100, so the gather puts
  // every one of its hashes into a single sub-range to sort.
  const Corpus c = BigramCorpus(
      7, 1500, [](size_t s, size_t) { return s == 100; });
  const PartitionRuns expected = MapCountRuns(c, 2);
  ASSERT_GE(expected[7].size(), 8u);
  for (const PhraseDf& entry : expected[7]) {
    ASSERT_EQ(DfSubRangeOf(entry.hash), 100u);
  }
  for (size_t threads : {1u, 4u}) {
    EXPECT_EQ(CountRuns(c, 0, c.size(), 2, threads), expected)
        << "threads=" << threads;
  }
}

TEST(DfCountTest, PartitionSpanningEverySubRangeMatchesMapCount) {
  // Partition 42 holds two bigrams of each of the 2,048 sub-ranges.
  const Corpus c = BigramCorpus(
      42, 1500, [](size_t, size_t taken) { return taken < 2; });
  const PartitionRuns expected = MapCountRuns(c, 2);
  std::vector<size_t> per_subrange(kDfSubRanges, 0);
  for (const PhraseDf& entry : expected[42]) {
    ++per_subrange[DfSubRangeOf(entry.hash)];
  }
  ASSERT_EQ(per_subrange, std::vector<size_t>(kDfSubRanges, 2));
  for (size_t threads : {1u, 4u}) {
    EXPECT_EQ(CountRuns(c, 0, c.size(), 2, threads), expected)
        << "threads=" << threads;
  }
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

TEST(FlatPhraseSetTest, HashZeroIsAMemberLikeAnyOther) {
  // 0 is a valid PhraseHash (partition 0), so it cannot double as the
  // empty-slot marker.
  FlatPhraseSet set;
  EXPECT_FALSE(set.Contains(0));
  EXPECT_FALSE(set.Erase(0));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_TRUE(set.Insert(5));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_EQ(set.size(), 2u);
  std::vector<PhraseHash> members;
  set.ForEach([&](PhraseHash hash) { members.push_back(hash); });
  EXPECT_EQ(members, (std::vector<PhraseHash>{0, 5}));
  set.Reserve(1000);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Erase(0));
  EXPECT_FALSE(set.Contains(0));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_EQ(set.size(), 1u);
}

// Hashes whose Fibonacci home in a table of 2^(64 - shift) slots is
// `home`, found by scanning a partition's low bits.
std::vector<PhraseHash> HashesWithHome(size_t home, int shift, size_t count) {
  std::vector<PhraseHash> out;
  for (uint64_t salt = 1; out.size() < count; ++salt) {
    const PhraseHash hash = HashInPartition(9, salt);
    if (FibonacciSlot(hash, shift) == home) out.push_back(hash);
  }
  return out;
}

TEST(FlatPhraseSetTest, EraseInARunThatWrapsKeepsEveryOtherMember) {
  // A 16-slot table (shift 60): five hashes homed at slot 14 fill slots
  // 14, 15, 0, 1, 2, and two homed at slot 0 queue behind them at 3 and
  // 4. Erasing each member in turn from a fresh table must leave every
  // other member findable, whichever side of the wrap the hole opens.
  const std::vector<PhraseHash> at_14 = HashesWithHome(14, 60, 5);
  const std::vector<PhraseHash> at_0 = HashesWithHome(0, 60, 2);
  std::vector<PhraseHash> members = at_14;
  members.insert(members.end(), at_0.begin(), at_0.end());
  for (size_t victim = 0; victim < members.size(); ++victim) {
    FlatPhraseSet set;
    for (const PhraseHash hash : members) ASSERT_TRUE(set.Insert(hash));
    ASSERT_TRUE(set.Erase(members[victim])) << "victim " << victim;
    EXPECT_FALSE(set.Contains(members[victim])) << "victim " << victim;
    EXPECT_EQ(set.size(), members.size() - 1);
    for (size_t k = 0; k < members.size(); ++k) {
      if (k == victim) continue;
      EXPECT_TRUE(set.Contains(members[k]))
          << "member " << k << " lost after erasing " << victim;
    }
  }
}

TEST(FlatPhraseSetTest, GrowthKeepsEveryMember) {
  FlatPhraseSet set;
  constexpr uint64_t kKeys = 5000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(set.Insert(HashInPartition(5, k << 20)));
  }
  EXPECT_EQ(set.size(), kKeys);
  size_t visited = 0;
  set.ForEach([&](PhraseHash) { ++visited; });
  EXPECT_EQ(visited, kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(set.Contains(HashInPartition(5, k << 20))) << k;
    EXPECT_FALSE(set.Contains(HashInPartition(6, k << 20))) << k;
  }
}

TEST(FlatPhraseSetTest, ErasingAnAbsentHashChangesNothing) {
  FlatPhraseSet set;
  EXPECT_FALSE(set.Erase(7));
  for (uint64_t k = 1; k <= 40; ++k) set.Insert(HashInPartition(3, k));
  EXPECT_FALSE(set.Erase(HashInPartition(3, 41)));
  EXPECT_FALSE(set.Erase(HashInPartition(4, 1)));
  EXPECT_EQ(set.size(), 40u);
  for (uint64_t k = 1; k <= 40; ++k) {
    EXPECT_TRUE(set.Contains(HashInPartition(3, k))) << k;
  }
  EXPECT_TRUE(set.Erase(HashInPartition(3, 40)));
  EXPECT_FALSE(set.Erase(HashInPartition(3, 40)));
  EXPECT_EQ(set.size(), 39u);
}

}  // namespace
}  // namespace infoshield
