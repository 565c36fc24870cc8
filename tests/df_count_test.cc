// The partitioned df count and its flat tables: counts must equal the
// serial reference's global map at every thread count, and the map and
// the df-1 set must keep every member through growth, copies and erases.

#include "tfidf/df_count.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
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

// The hashes a partition's run counts, repeats across documents included:
// what pass 2 gathers and splits into sub-ranges.
size_t GatheredHashes(const std::vector<PhraseDf>& run) {
  size_t total = 0;
  for (const PhraseDf& entry : run) total += entry.df;
  return total;
}

// A corpus whose vocabulary is the words w0..w{size - 1}.
Corpus CorpusWithVocabulary(size_t size) {
  Corpus c;
  for (size_t w = 0; w < size; ++w) {
    c.mutable_vocab().Intern("w" + std::to_string(w));
  }
  return c;
}

TEST(DfCountTest, PartitionInOneSubRangeMatchesMapCount) {
  // One-word documents, counted as unigrams, so each partition holds
  // exactly the words chosen for it: partition 5 none, 7 one hash, 9 a
  // few, 11 fifteen (the most one sub-range takes) and 13 sixteen (the
  // fewest split in two). Listed: the df of each word taken.
  const std::map<size_t, std::vector<uint32_t>> dfs = {
      {5, {}},
      {7, {1}},
      {9, {1, 2, 3}},
      {11, {3, 3, 3, 3, 3}},
      {13, {2, 2, 2, 2, 2, 2, 2, 2}},
  };
  Corpus c = CorpusWithVocabulary(2000);
  std::map<size_t, size_t> taken;
  for (TokenId w = 0; w < 2000; ++w) {
    const size_t p = DfPartitionOf(HashNgram(&w, 1));
    const auto it = dfs.find(p);
    if (it == dfs.end() || taken[p] == it->second.size()) continue;
    for (uint32_t copy = 0; copy < it->second[taken[p]]; ++copy) {
      c.AddTokens({w}, "");
    }
    ++taken[p];
  }
  const PartitionRuns expected = MapCountRuns(c, 1);
  for (const auto& [p, want] : dfs) {
    ASSERT_EQ(expected[p].size(), want.size()) << "partition " << p;
  }
  EXPECT_EQ(GatheredHashes(expected[11]), 15u);
  EXPECT_EQ(GatheredHashes(expected[13]), 16u);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(CountRuns(c, 0, c.size(), 1, threads), expected)
        << "threads=" << threads;
  }
}

TEST(DfCountTest, PartitionSpanningEverySubRangeMatchesMapCount) {
  // Walks over 3,000 words in which every step's bigram lands in
  // partition 42, so that partition gathers more than 2^19 hashes and
  // the gather splits it 2^16 ways, most of which its distinct hashes
  // occupy. Walks revisit bigrams, within a document and across
  // documents.
  constexpr size_t kWords = 3000;
  std::vector<std::vector<TokenId>> next(kWords);
  for (TokenId a = 0; a < kWords; ++a) {
    for (TokenId b = 0; b < kWords; ++b) {
      const TokenId pair[] = {a, b};
      if (DfPartitionOf(HashNgram(pair, 2)) == 42) next[a].push_back(b);
    }
  }
  Corpus c = CorpusWithVocabulary(kWords);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto random = [&state](size_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<size_t>(state % bound);
  };
  for (size_t d = 0; d < 2200; ++d) {
    std::vector<TokenId> walk = {static_cast<TokenId>(random(kWords))};
    while (walk.size() < 256) {
      const std::vector<TokenId>& options = next[walk.back()];
      walk.push_back(options[random(options.size())]);
    }
    c.AddTokens(std::move(walk), "");
  }
  const PartitionRuns expected = MapCountRuns(c, 2);
  ASSERT_GT(GatheredHashes(expected[42]), size_t{1} << 19);
  ASSERT_LT(GatheredHashes(expected[42]), size_t{1} << 20);
  // The 16 hash bits below the partition bits index the sub-ranges.
  std::set<PhraseHash> occupied;
  for (const PhraseDf& entry : expected[42]) {
    occupied.insert((entry.hash << kDfPartitionBits) >> 48);
  }
  EXPECT_GT(occupied.size(), size_t{1} << 15);
  for (size_t threads : {1u, 4u}) {
    EXPECT_EQ(CountRuns(c, 0, c.size(), 2, threads), expected)
        << "threads=" << threads;
  }
}

// The runs CountDocumentFrequencies folds for documents [0, c.size())
// hold exactly the serial reference's (hash, df) pairs at 1, 2, 4 and 8
// threads.
void ExpectRunsMatchReference(const Corpus& c, size_t max_ngram) {
  const std::unordered_map<PhraseHash, uint32_t> reference =
      oracle::ReferenceDocumentFrequencies(c, 0, c.size(), max_ngram);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    const std::vector<PhraseDf> counted =
        Flatten(CountRuns(c, 0, c.size(), max_ngram, threads));
    EXPECT_EQ(counted.size(), reference.size()) << "threads=" << threads;
    for (const PhraseDf& entry : counted) {
      const auto it = reference.find(entry.hash);
      ASSERT_NE(it, reference.end()) << "threads=" << threads;
      EXPECT_EQ(entry.df, it->second) << "threads=" << threads;
    }
  }
}

TEST(DfCountTest, RepeatedNgramsCountOncePerDocument) {
  // Documents that say little but say it often: every n-gram up to 5
  // words recurs dozens of times within its document, so nearly every
  // hash pass 1 generates is a repeat it must drop.
  Corpus c;
  for (int d = 0; d < 40; ++d) {
    std::string text;
    const int period = 1 + d % 4;
    for (int w = 0; w < 120; ++w) {
      text += "rep" + std::to_string((w % period) + d % 3) + " ";
    }
    c.Add(text);
  }
  c.Add("spam spam spam spam spam spam spam spam");
  c.Add("call now call now call now call now");
  ExpectRunsMatchReference(c, 5);
}

TEST(DfCountTest, EmptyDocumentsCountNothing) {
  // Empty documents first, between others, last, and enough of them in a
  // row that some chunks hold nothing else.
  Corpus c;
  for (int d = 0; d < 12; ++d) c.Add("");
  c.Add("call now for a good time");
  c.Add("");
  c.Add("call now for a good time tonight");
  for (int d = 0; d < 12; ++d) c.Add("");
  ExpectRunsMatchReference(c, 5);
  Corpus only_empty;
  only_empty.Add("");
  EXPECT_TRUE(Flatten(CountRuns(only_empty, 0, 1, 5, 4)).empty());
}

TEST(DfCountTest, LongDocumentAmongShortOnesMatchesReference) {
  // One document with 100 times the n-grams of the others in its chunk,
  // at every thread count, and one at each end of the corpus.
  std::string longest;
  for (int w = 0; w < 1500; ++w) {
    longest += "w" + std::to_string(w * 7919 % 613) + " ";
  }
  Corpus c;
  c.Add(longest);
  for (int d = 0; d < 30; ++d) {
    c.Add("short ad " + std::to_string(d % 5) + " call w" +
          std::to_string(d));
    if (d == 14) c.Add(longest + " tail");
  }
  c.Add("w1 w2 w3 " + longest);
  ExpectRunsMatchReference(c, 5);
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
