// The test-only n-gram span enumeration (oracle/reference_ngram.h):
// counts, spans and hashes, and the order AppendNgramHashes shares
// with it.

#include "oracle/reference_ngram.h"

#include <unordered_set>

#include <gtest/gtest.h>

namespace infoshield {
namespace {

Document MakeDoc(std::vector<TokenId> tokens) {
  Document d;
  d.tokens = std::move(tokens);
  return d;
}

TEST(ExtractNgramsTest, CountsMatchFormula) {
  // len=4, max_n=2 -> 4 unigrams + 3 bigrams.
  Document d = MakeDoc({10, 20, 30, 40});
  EXPECT_EQ(oracle::ExtractNgrams(d, 2).size(), 7u);
  // max_n=5 capped by length: 4+3+2+1 = 10.
  EXPECT_EQ(oracle::ExtractNgrams(d, 5).size(), 10u);
}

TEST(ExtractNgramsTest, EmptyDocAndZeroN) {
  Document d = MakeDoc({});
  EXPECT_TRUE(oracle::ExtractNgrams(d, 5).empty());
  Document d2 = MakeDoc({1});
  EXPECT_TRUE(oracle::ExtractNgrams(d2, 0).empty());
}

TEST(ExtractNgramsTest, SpansAreCorrect) {
  Document d = MakeDoc({7, 8, 9});
  std::vector<oracle::NgramSpan> grams = oracle::ExtractNgrams(d, 3);
  // Document order: all grams starting at 0, then 1, then 2.
  EXPECT_EQ(grams[0].begin, 0u);
  EXPECT_EQ(grams[0].n, 1u);
  EXPECT_EQ(grams[1].n, 2u);
  EXPECT_EQ(grams[2].n, 3u);
  EXPECT_EQ(grams.back().begin, 2u);
  EXPECT_EQ(grams.back().n, 1u);
}

TEST(ExtractNgramsTest, SharedPhrasesHashEqually) {
  Document d1 = MakeDoc({1, 2, 3, 4});
  Document d2 = MakeDoc({9, 1, 2, 3});
  std::unordered_set<PhraseHash> h1;
  for (const auto& g : oracle::ExtractNgrams(d1, 3)) h1.insert(g.hash);
  // The trigram (1,2,3) appears in both documents.
  TokenId tri[] = {1, 2, 3};
  EXPECT_TRUE(h1.count(HashNgram(tri, 3)));
  bool found = false;
  for (const auto& g : oracle::ExtractNgrams(d2, 3)) {
    if (g.hash == HashNgram(tri, 3)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ExtractNgramsTest, NoDuplicateSpans) {
  Document d = MakeDoc({1, 1, 1});
  std::vector<oracle::NgramSpan> grams = oracle::ExtractNgrams(d, 2);
  // Hashes repeat (repeated tokens) but spans are distinct.
  std::unordered_set<uint64_t> spans;
  for (const auto& g : grams) {
    spans.insert((static_cast<uint64_t>(g.begin) << 32) | g.n);
  }
  EXPECT_EQ(spans.size(), grams.size());
}

TEST(ExtractNgramsTest, AppendNgramHashesFollowsSpanOrder) {
  Document d = MakeDoc({4, 5, 6, 7, 5});
  std::vector<PhraseHash> hashes;
  AppendNgramHashes(d, /*min_n=*/1, /*max_n=*/3, &hashes);
  std::vector<PhraseHash> expected;
  for (const auto& g : oracle::ExtractNgrams(d, 3)) expected.push_back(g.hash);
  EXPECT_EQ(hashes, expected);
}

}  // namespace
}  // namespace infoshield
