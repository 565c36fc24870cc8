#include "tfidf/tfidf_index.h"

#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/reference_coarse.h"

namespace infoshield {
namespace {

Corpus SmallCorpus() {
  Corpus c;
  c.Add("the quick brown fox jumps");
  c.Add("the quick brown fox runs");
  c.Add("the lazy dog sleeps all day");
  return c;
}

TEST(TfidfTest, DocumentFrequencyCountsDocsNotOccurrences) {
  Corpus c;
  c.Add("spam spam spam");
  c.Add("spam once");
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  TokenId spam = c.vocab().Find("spam");
  PhraseHash h = HashNgram(&spam, 1);
  EXPECT_EQ(index.DocumentFrequency(h), 2u);  // 2 docs, not 4 occurrences
}

TEST(TfidfTest, UnseenPhraseHasZeroDf) {
  TfidfIndex index;
  index.Build(SmallCorpus(), TfidfOptions{});
  EXPECT_EQ(index.DocumentFrequency(0xDEADBEEF), 0u);
}

TEST(TfidfTest, CommonPhraseScoresZero) {
  // "the" appears in every document: idf = log(3/3) = 0.
  Corpus c = SmallCorpus();
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  TokenId the = c.vocab().Find("the");
  EXPECT_DOUBLE_EQ(index.Score(HashNgram(&the, 1), 1), 0.0);
}

TEST(TfidfTest, RarerPhraseScoresHigher) {
  Corpus c = SmallCorpus();
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  TokenId quick = c.vocab().Find("quick");  // df 2
  TokenId lazy = c.vocab().Find("lazy");    // df 1
  EXPECT_GT(index.Score(HashNgram(&lazy, 1), 1),
            index.Score(HashNgram(&quick, 1), 1));
}

TEST(TfidfTest, TopPhrasesSkipDfOne) {
  Corpus c = SmallCorpus();
  TfidfOptions opts;
  opts.min_df = 2;
  TfidfIndex index;
  index.Build(c, opts);
  // Doc 2 shares only "the" (df 3) with others; all other phrases are
  // df-1 and skipped, so at most "the"-based shared phrases survive.
  for (const ScoredPhrase& p : index.TopPhrases(c.doc(2))) {
    EXPECT_GE(index.DocumentFrequency(p.hash), 2u);
  }
}

TEST(TfidfTest, TopPhrasesRespectFraction) {
  Corpus c;
  // 20 tokens, all distinct n-grams; top_fraction 0.1 over distinct
  // phrases, min 1.
  c.Add("a b c d e f g h i j k l m n o p q r s t");
  c.Add("a b c d e f g h i j k l m n o p q r s t");
  TfidfOptions opts;
  opts.max_ngram = 1;
  opts.top_fraction = 0.1;
  TfidfIndex index;
  index.Build(c, opts);
  std::vector<ScoredPhrase> top = index.TopPhrases(c.doc(0));
  EXPECT_EQ(top.size(), 2u);  // ceil(0.1 * 20)
}

TEST(TfidfTest, TopFractionAppliesAfterMinDfFilter) {
  // Doc 0 holds 20 distinct unigrams; only 4 of them also occur in doc 1
  // (df 2), the rest are df-1 and filtered by min_df = 2. The fraction
  // must apply to the 4 eligible phrases — ceil(0.5 * 4) = 2 — not to
  // the 20 pre-filter distinct phrases, which would keep all 4.
  Corpus c;
  c.Add("alpha beta gamma delta u1 u2 u3 u4 u5 u6 u7 u8 u9 u10 u11 u12 "
        "u13 u14 u15 u16");
  c.Add("alpha beta gamma delta");
  TfidfOptions opts;
  opts.max_ngram = 1;
  opts.min_df = 2;
  opts.top_fraction = 0.5;
  TfidfIndex index;
  index.Build(c, opts);
  EXPECT_EQ(index.TopPhrases(c.doc(0)).size(), 2u);
}

TEST(TfidfTest, MinPhrasesFloorStillAppliesAfterFilter) {
  Corpus c;
  c.Add("alpha beta gamma delta u1 u2 u3 u4 u5 u6 u7 u8 u9 u10 u11 u12");
  c.Add("alpha beta gamma delta");
  TfidfOptions opts;
  opts.max_ngram = 1;
  opts.min_df = 2;
  opts.top_fraction = 0.25;  // ceil(0.25 * 4) = 1, floored up to 3
  opts.min_phrases_per_doc = 3;
  TfidfIndex index;
  index.Build(c, opts);
  EXPECT_EQ(index.TopPhrases(c.doc(0)).size(), 3u);
}

TEST(TfidfTest, MinPhrasesPerDocGuaranteesOne) {
  Corpus c;
  c.Add("x y");
  c.Add("x y");
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  EXPECT_EQ(index.TopPhrases(c.doc(0)).size(), 1u);
}

TEST(TfidfTest, MinNgramExcludesUnigrams) {
  // Default min_ngram = 2: a single shared word is not an eligible top
  // phrase (it would percolate the coarse graph), but a shared bigram is.
  Corpus c;
  c.Add("alpha beta gamma");
  c.Add("alpha delta epsilon");  // shares only the unigram "alpha"
  c.Add("zeta beta gamma");      // shares the bigram "beta gamma" with doc 0
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  for (const ScoredPhrase& p : index.TopPhrases(c.doc(0))) {
    TokenId alpha = c.vocab().Find("alpha");
    EXPECT_NE(p.hash, HashNgram(&alpha, 1));
  }
}

TEST(TfidfTest, MinNgramClampedToMaxNgram) {
  // max_ngram = 1 (the Fig. 4 sweep's left end) keeps unigrams eligible
  // even though min_ngram defaults to 2.
  Corpus c;
  c.Add("common words here");
  c.Add("common words there");
  TfidfOptions opts;
  opts.max_ngram = 1;
  TfidfIndex index;
  index.Build(c, opts);
  EXPECT_FALSE(index.TopPhrases(c.doc(0)).empty());
}

TEST(TfidfTest, ScoresSortedDescending) {
  Corpus c = SmallCorpus();
  TfidfOptions opts;
  opts.top_fraction = 1.0;
  opts.min_df = 1;
  TfidfIndex index;
  index.Build(c, opts);
  std::vector<ScoredPhrase> top = index.TopPhrases(c.doc(0));
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST(TfidfTest, MaxNgramLimitsPhraseLength) {
  Corpus c;
  c.Add("one two three four five six");
  c.Add("one two three four five six");
  TfidfOptions opts1;
  opts1.max_ngram = 1;
  TfidfIndex index1;
  index1.Build(c, opts1);
  TfidfOptions opts5;
  opts5.max_ngram = 5;
  TfidfIndex index5;
  index5.Build(c, opts5);
  EXPECT_LT(index1.num_phrases(), index5.num_phrases());
}

TEST(TfidfTest, MaxNgramBeyondDocumentLengthChangesNothing) {
  // No n-gram is longer than its document, so a max_ngram of 2^40 must
  // select exactly what max_ngram = the document's length selects, and
  // must size nothing by max_ngram alone.
  const std::string text =
      "new girl in town sweet and friendly call or text me any time day or "
      "night outcalls only serious clients please no blocked numbers";
  Corpus c;
  c.Add(text);
  c.Add(text + " thanks");
  c.Add("friendly girl in town call me any time");
  // Long enough that tokens x 2^40 hashes cannot be reserved.
  const size_t length = c.doc(0).tokens.size();
  ASSERT_GE(length, 20u);
  std::vector<std::vector<ScoredPhrase>> tops;
  for (size_t max_ngram : {length, size_t{1} << 40}) {
    TfidfOptions opts;
    opts.max_ngram = max_ngram;
    TfidfIndex index;
    index.Build(c, opts);
    tops.push_back(index.TopPhrases(c.doc(0)));
  }
  ASSERT_FALSE(tops[0].empty());
  ASSERT_EQ(tops[0].size(), tops[1].size());
  for (size_t i = 0; i < tops[0].size(); ++i) {
    EXPECT_EQ(tops[0][i].hash, tops[1][i].hash) << "phrase #" << i;
    EXPECT_EQ(tops[0][i].score, tops[1][i].score) << "phrase #" << i;
  }
}

TEST(TfidfTest, ParallelBuildMatchesSerial) {
  // The partitioned df count must equal the serial reference's global
  // map at every thread count — same table size, same count per hash —
  // because top-phrase selection (and so the whole coarse output) reads
  // exactly these numbers.
  Corpus c;
  for (int i = 0; i < 40; ++i) {
    c.Add("shared spam phrase number " + std::to_string(i % 7) +
          " with trailing tail " + std::to_string(i));
  }
  const std::unordered_map<PhraseHash, uint32_t> reference =
      oracle::ReferenceDocumentFrequencies(c, 0, c.size(),
                                           TfidfOptions{}.max_ngram);
  for (size_t threads : {1u, 4u}) {
    TfidfIndex index;
    index.Build(c, TfidfOptions{}, threads);
    EXPECT_EQ(index.num_documents(), c.size());
    EXPECT_EQ(index.num_phrases(), reference.size());
    // determinism: independent per-entry checks.
    for (const auto& [hash, df] : reference) {
      EXPECT_EQ(index.DocumentFrequency(hash), df) << "threads=" << threads;
    }
  }
}

TEST(TfidfTest, ParallelBuildMatchesSerialTopPhrases) {
  Corpus c;
  for (int i = 0; i < 24; ++i) {
    c.Add("alpha beta gamma campaign " + std::to_string(i % 4) +
          " call today " + std::to_string(i % 4));
  }
  TfidfIndex serial;
  serial.Build(c, TfidfOptions{});
  TfidfIndex parallel;
  parallel.Build(c, TfidfOptions{}, /*num_threads=*/8);
  for (const Document& doc : c.docs()) {
    std::vector<ScoredPhrase> a = serial.TopPhrases(doc);
    std::vector<ScoredPhrase> b = parallel.TopPhrases(doc);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].hash, b[i].hash);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
}

TEST(TfidfTest, EmptyCorpus) {
  Corpus c;
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  EXPECT_EQ(index.num_documents(), 0u);
  EXPECT_EQ(index.num_phrases(), 0u);
}

TEST(TfidfTest, EmptyDocumentYieldsNoPhrases) {
  Corpus c;
  c.Add("");
  c.Add("words here");
  TfidfIndex index;
  index.Build(c, TfidfOptions{});
  EXPECT_TRUE(index.TopPhrases(c.doc(0)).empty());
}

}  // namespace
}  // namespace infoshield
