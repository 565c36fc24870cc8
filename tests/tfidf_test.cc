#include "tfidf/tfidf_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/reference_coarse.h"
#include "oracle/reference_ngram.h"

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

// Six ads: two near-duplicate pairs, one ad sharing a phrase with the
// second pair, and one unrelated text.
const std::vector<std::string>& AdTexts() {
  static const std::vector<std::string> texts = {
      "sweet asian girls new in town call now",
      "sweet asian girls new in town call today",
      "grand opening best massage in town",
      "grand opening best massage downtown",
      "independent reviews posted daily for the best massage",
      "completely unrelated text about gardening tools",
  };
  return texts;
}

Corpus AdCorpus() {
  Corpus c;
  for (const std::string& text : AdTexts()) c.Add(text);
  return c;
}

TEST(TfidfTest, AddDocumentsInBatchesMatchesBuild) {
  // df is a commutative sum, so adding the corpus batch by batch must
  // land on exactly the table Build makes over the whole corpus: same
  // counts, same dfs, same top phrases to the bit. The incremental
  // engine's batch oracle rests on this.
  const Corpus c = AdCorpus();
  const size_t n = c.size();
  const TfidfOptions options;

  const TfidfIndex empty(options);
  EXPECT_EQ(empty.num_documents(), 0u);
  EXPECT_EQ(empty.num_phrases(), 0u);

  TfidfIndex built;
  built.Build(c, options);
  // Batch boundaries: the whole corpus, [0, 3) then [3, n), and one
  // document at a time.
  std::vector<size_t> singles;
  for (size_t d = 0; d <= n; ++d) singles.push_back(d);
  const std::vector<std::vector<size_t>> cuts = {{0, n}, {0, 3, n}, singles};
  for (size_t threads : {1u, 4u}) {
    for (const std::vector<size_t>& cut : cuts) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " batches=" +
                   std::to_string(cut.size() - 1));
      TfidfIndex index(options);
      for (size_t i = 0; i + 1 < cut.size(); ++i) {
        index.AddDocuments(c, cut[i], cut[i + 1], threads);
      }
      EXPECT_EQ(index.num_documents(), n);
      EXPECT_EQ(index.num_phrases(), built.num_phrases());
      for (const Document& doc : c.docs()) {
        for (const oracle::NgramSpan& g :
             oracle::ExtractNgrams(doc, options.max_ngram)) {
          EXPECT_EQ(index.DocumentFrequency(g.hash),
                    built.DocumentFrequency(g.hash))
              << "df diverged for a phrase of doc " << doc.id;
        }
        const std::vector<ScoredPhrase> want = built.TopPhrases(doc);
        const std::vector<ScoredPhrase> got = index.TopPhrases(doc);
        ASSERT_EQ(got.size(), want.size()) << "doc " << doc.id;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].hash, want[i].hash) << "doc " << doc.id;
          EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
                    std::bit_cast<uint64_t>(want[i].score))
              << "doc " << doc.id << " rank " << i;
        }
      }
      EXPECT_TRUE(index.ValidateInvariants().ok());
    }
  }
}

TEST(TfidfTest, PhraseSeenAgainInALaterBatchBecomesATopPhrase) {
  // A df-1 phrase cannot pass min_df = 2. A later batch that repeats it
  // promotes it with df 2, and it becomes a top phrase; the phrase count
  // stays the same, since the batch adds no phrase not seen before.
  Corpus c;
  c.Add("alpha beta");
  c.Add("gamma delta epsilon");
  c.Add("alpha beta");
  const PhraseHash bigram = HashNgram(c.doc(0).tokens.data(), 2);
  TfidfIndex index{TfidfOptions{}};
  index.AddDocuments(c, 0, 2);
  EXPECT_EQ(index.DocumentFrequency(bigram), 1u);
  EXPECT_TRUE(index.TopPhrases(c.doc(0)).empty());
  const size_t phrases = index.num_phrases();

  index.AddDocuments(c, 2, 3, /*num_threads=*/4);
  EXPECT_EQ(index.DocumentFrequency(bigram), 2u);
  EXPECT_EQ(index.num_phrases(), phrases);
  const std::vector<ScoredPhrase> top = index.TopPhrases(c.doc(0));
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].hash, bigram);
  EXPECT_GT(top[0].score, 0.0);
  EXPECT_TRUE(index.ValidateInvariants().ok());
}

// TopPhrases as a sort of every n-gram occurrence: each run of equal
// hashes is one phrase and its tf, probed for its df once, kept iff df
// reaches min_df, then ranked by score desc, hash asc.
std::vector<ScoredPhrase> SortEveryGramTopPhrases(const TfidfIndex& index,
                                                  const Document& doc) {
  const TfidfOptions& opts = index.options();
  std::vector<PhraseHash> grams;
  AppendNgramHashes(doc, std::min(opts.min_ngram, opts.max_ngram),
                    opts.max_ngram, &grams);
  std::sort(grams.begin(), grams.end());
  std::vector<ScoredPhrase> scored;
  for (size_t i = 0; i < grams.size();) {
    size_t j = i;
    while (j < grams.size() && grams[j] == grams[i]) ++j;
    if (index.DocumentFrequency(grams[i]) >= opts.min_df) {
      scored.push_back({grams[i], index.Score(grams[i], j - i)});
    }
    i = j;
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredPhrase& a, const ScoredPhrase& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.hash < b.hash;
            });
  size_t keep = static_cast<size_t>(
      std::ceil(opts.top_fraction * static_cast<double>(scored.size())));
  keep = std::min(std::max(keep, opts.min_phrases_per_doc), scored.size());
  scored.resize(keep);
  return scored;
}

TEST(TfidfTest, TopPhrasesMatchSortingEveryGram) {
  // Probing each occurrence's df before the sort must select exactly
  // what sorting every n-gram and probing each phrase once selects:
  // phrases repeated within a document (tf > 1), documents shorter than
  // max_ngram, and df 1, 2 and 3 against every min_df from 0 to 3.
  Corpus c;
  c.Add("call now call now call now for a good time");
  c.Add("call now for a good time tonight");
  c.Add("good time good time tonight only");
  c.Add("hi");
  c.Add("hi there");
  c.Add("for a good time call now");
  c.Add("a b a b a b a b");
  for (size_t min_df = 0; min_df <= 3; ++min_df) {
    for (size_t min_ngram : {1u, 2u}) {
      TfidfOptions opts;
      opts.min_df = min_df;
      opts.min_ngram = min_ngram;
      opts.top_fraction = 0.5;
      TfidfIndex index;
      index.Build(c, opts);
      for (DocId d = 0; d < c.size(); ++d) {
        const std::vector<ScoredPhrase> top = index.TopPhrases(c.doc(d));
        const std::vector<ScoredPhrase> expected =
            SortEveryGramTopPhrases(index, c.doc(d));
        SCOPED_TRACE(testing::Message() << "min_df=" << min_df
                                        << ", min_ngram=" << min_ngram
                                        << ", doc " << d);
        ASSERT_EQ(top.size(), expected.size());
        for (size_t i = 0; i < top.size(); ++i) {
          EXPECT_EQ(top[i].hash, expected[i].hash) << "phrase #" << i;
          EXPECT_EQ(std::bit_cast<uint64_t>(top[i].score),
                    std::bit_cast<uint64_t>(expected[i].score))
              << "phrase #" << i;
        }
      }
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


// The df table's fold-in contract, checked on the TfidfIndex that owns
// the table. The suite keeps the name of the tests that pinned the same
// contract when the table was a separate copy-on-write class.

TEST(SnapshotDfTableTest, EmptyTableIsGenerationZero) {
  // Nothing added, an empty range added, or a Build over an empty corpus
  // after documents were added: each index reads zero documents and
  // phrases and scores nothing.
  const Corpus c = AdCorpus();
  const TfidfOptions options;
  TfidfIndex fresh(options);
  TfidfIndex empty_range(options);
  empty_range.AddDocuments(c, 2, 2);
  TfidfIndex rebuilt;
  rebuilt.Build(c, options);
  rebuilt.Build(Corpus(), options);
  for (const TfidfIndex* index : {&fresh, &empty_range, &rebuilt}) {
    EXPECT_EQ(index->num_documents(), 0u);
    EXPECT_EQ(index->num_phrases(), 0u);
    EXPECT_EQ(index->DocumentFrequency(12345u), 0u);
    EXPECT_DOUBLE_EQ(index->Score(12345u, 3), 0.0);
    EXPECT_TRUE(index->TopPhrases(c.doc(0)).empty());
    EXPECT_TRUE(index->ValidateInvariants().ok());
  }
}

TEST(SnapshotDfTableTest, FoldInMatchesBatchBuildExactly) {
  // A built index is a starting point like an empty one: folding later
  // documents into it lands on the table one Build over all of them
  // makes, phrase for phrase.
  const TfidfOptions options;
  Corpus growing;
  for (size_t d = 0; d < 3; ++d) growing.Add(AdTexts()[d]);
  TfidfIndex index;
  index.Build(growing, options);
  for (size_t d = 3; d < AdTexts().size(); ++d) growing.Add(AdTexts()[d]);
  index.AddDocuments(growing, 3, growing.size(), /*num_threads=*/4);

  const Corpus whole = AdCorpus();
  TfidfIndex reference;
  reference.Build(whole, options);
  EXPECT_EQ(index.num_documents(), whole.size());
  EXPECT_EQ(index.num_phrases(), reference.num_phrases());
  for (const Document& doc : whole.docs()) {
    for (const oracle::NgramSpan& g :
         oracle::ExtractNgrams(doc, options.max_ngram)) {
      EXPECT_EQ(index.DocumentFrequency(g.hash),
                reference.DocumentFrequency(g.hash))
          << "df diverged for a phrase of doc " << doc.id;
    }
  }
  EXPECT_TRUE(index.ValidateInvariants().ok());
}

TEST(SnapshotDfTableTest, IndexFromSnapshotScoresByteIdenticallyToBuild) {
  // Scores read off a table grown one document at a time are
  // bit-identical to Build's, so SelectTopPhrases picks the same phrases
  // in the same order at any thread count.
  const Corpus c = AdCorpus();
  const TfidfOptions options;
  TfidfIndex built;
  built.Build(c, options);
  TfidfIndex grown(options);
  for (size_t d = 0; d < c.size(); ++d) {
    grown.AddDocuments(c, d, d + 1, /*num_threads=*/4);
  }

  for (const Document& doc : c.docs()) {
    for (const oracle::NgramSpan& g :
         oracle::ExtractNgrams(doc, options.max_ngram)) {
      for (size_t tf : {1u, 2u}) {
        EXPECT_EQ(std::bit_cast<uint64_t>(grown.Score(g.hash, tf)),
                  std::bit_cast<uint64_t>(built.Score(g.hash, tf)))
            << "doc " << doc.id << " tf " << tf;
      }
    }
  }
  const std::vector<std::vector<PhraseHash>> want =
      SelectTopPhrases(built, c, /*num_threads=*/1);
  for (size_t threads : {1u, 4u}) {
    EXPECT_EQ(SelectTopPhrases(grown, c, threads), want)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace infoshield
