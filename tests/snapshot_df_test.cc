// SnapshotDfTable: copy-on-write fold-in must be exactly additive (the
// incremental oracle's foundation), and a snapshot must be a frozen
// generation — including under a concurrent writer, which is the leg
// the TSan job exercises.

#include "tfidf/snapshot_df_table.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/reference_ngram.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "tfidf/df_count.h"
#include "tfidf/tfidf_index.h"

namespace infoshield {
namespace {

// A batch delta for docs [begin, end), counted exactly as
// TfidfIndex::Build counts the whole corpus.
DfCounts Delta(const Corpus& corpus, size_t begin, size_t end,
               size_t max_ngram) {
  return CountDocumentFrequencies(corpus, begin, end, max_ngram,
                                  /*num_threads=*/1);
}

bool IsEmpty(const DfCounts& delta) {
  return std::all_of(delta.begin(), delta.end(),
                     [](const std::vector<PhraseDf>& p) { return p.empty(); });
}

Corpus MakeCorpus(const std::vector<std::string>& texts) {
  Corpus corpus;
  for (const std::string& t : texts) corpus.Add(t);
  return corpus;
}

const std::vector<std::string>& SampleTexts() {
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

TEST(SnapshotDfTableTest, EmptyTableIsGenerationZero) {
  SnapshotDfTable table;
  DfSnapshot snap = table.Snapshot();
  EXPECT_EQ(snap.generation(), 0u);
  EXPECT_EQ(snap.num_documents(), 0u);
  EXPECT_EQ(snap.num_phrases(), 0u);
  EXPECT_EQ(snap.DocumentFrequency(12345u), 0u);
  EXPECT_TRUE(table.ValidateInvariants().ok());
}

TEST(SnapshotDfTableTest, FoldInMatchesBatchBuildExactly) {
  // df accumulation is a commutative sum, so folding the corpus in as
  // two batches must reproduce TfidfIndex::Build over the whole corpus
  // phrase-for-phrase.
  const Corpus corpus = MakeCorpus(SampleTexts());
  const TfidfOptions options;

  SnapshotDfTable table;
  DfCounts delta = Delta(corpus, 0, 3, options.max_ngram);
  table.ApplyBatch(&delta, 3);
  delta = Delta(corpus, 3, corpus.size(), options.max_ngram);
  table.ApplyBatch(&delta, corpus.size() - 3);

  TfidfIndex reference;
  reference.Build(corpus, options);

  DfSnapshot snap = table.Snapshot();
  EXPECT_EQ(snap.num_documents(), corpus.size());
  EXPECT_EQ(snap.num_phrases(), reference.num_phrases());
  EXPECT_EQ(snap.generation(), 2u);
  for (const Document& doc : corpus.docs()) {
    for (const oracle::NgramSpan& g :
         oracle::ExtractNgrams(doc, options.max_ngram)) {
      EXPECT_EQ(snap.DocumentFrequency(g.hash),
                reference.DocumentFrequency(g.hash))
          << "df diverged for a phrase of doc " << doc.id;
    }
  }
  EXPECT_TRUE(table.ValidateInvariants().ok());
}

TEST(SnapshotDfTableTest, ApplyBatchClearsTheDelta) {
  const Corpus corpus = MakeCorpus(SampleTexts());
  SnapshotDfTable table;
  DfCounts delta = Delta(corpus, 0, corpus.size(), 5);
  ASSERT_FALSE(IsEmpty(delta));
  table.ApplyBatch(&delta, corpus.size());
  EXPECT_TRUE(IsEmpty(delta));
}

TEST(SnapshotDfTableTest, SnapshotIsFrozenAcrossApplyBatch) {
  const Corpus corpus = MakeCorpus(SampleTexts());
  SnapshotDfTable table;
  DfCounts delta = Delta(corpus, 0, 2, 5);
  table.ApplyBatch(&delta, 2);

  DfSnapshot frozen = table.Snapshot();
  std::vector<std::pair<PhraseHash, size_t>> before;
  for (const oracle::NgramSpan& g :
       oracle::ExtractNgrams(corpus.docs()[0], 5)) {
    before.emplace_back(g.hash, frozen.DocumentFrequency(g.hash));
  }

  delta = Delta(corpus, 2, corpus.size(), 5);
  table.ApplyBatch(&delta, corpus.size() - 2);

  // The old snapshot still reads generation-1 values; a fresh snapshot
  // sees the fold-in.
  EXPECT_EQ(frozen.generation(), 1u);
  EXPECT_EQ(frozen.num_documents(), 2u);
  for (const auto& [hash, df] : before) {
    EXPECT_EQ(frozen.DocumentFrequency(hash), df);
  }
  DfSnapshot current = table.Snapshot();
  EXPECT_EQ(current.generation(), 2u);
  EXPECT_EQ(current.num_documents(), corpus.size());
  EXPECT_GE(current.num_phrases(), frozen.num_phrases());
}

TEST(SnapshotDfTableTest, IndexFromSnapshotScoresByteIdenticallyToBuild) {
  // TfidfIndex::BuildFromSnapshot over a snapshot covering the whole
  // corpus must reproduce Build exactly: same dfs, same scores, same
  // top-phrase lists (order included).
  const Corpus corpus = MakeCorpus(SampleTexts());
  const TfidfOptions options;

  SnapshotDfTable table;
  DfCounts delta = Delta(corpus, 0, corpus.size(), options.max_ngram);
  table.ApplyBatch(&delta, corpus.size());

  TfidfIndex built;
  built.Build(corpus, options);
  TfidfIndex snapped;
  snapped.BuildFromSnapshot(table.Snapshot(), options);

  EXPECT_EQ(snapped.num_documents(), built.num_documents());
  EXPECT_EQ(snapped.num_phrases(), built.num_phrases());
  for (const Document& doc : corpus.docs()) {
    const std::vector<ScoredPhrase> a = built.TopPhrases(doc);
    const std::vector<ScoredPhrase> b = snapped.TopPhrases(doc);
    ASSERT_EQ(a.size(), b.size()) << "doc " << doc.id;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].hash, b[i].hash) << "doc " << doc.id << " rank " << i;
      EXPECT_EQ(a[i].score, b[i].score) << "doc " << doc.id << " rank " << i;
    }
  }
}

TEST(SnapshotDfTableTest, ReadersSeeFrozenScoresUnderConcurrentWrites) {
  // The snapshot-isolation contract under load (mutex_test.cc stress
  // pattern, TSan-exercised in the sanitizer CI legs): reader threads
  // hold a generation-1 snapshot and must observe its dfs bit-stable
  // while the writer folds in batch after batch.
  const Corpus corpus = MakeCorpus(SampleTexts());
  SnapshotDfTable table;
  DfCounts delta = Delta(corpus, 0, 2, 5);
  table.ApplyBatch(&delta, 2);

  const DfSnapshot frozen = table.Snapshot();
  std::vector<std::pair<PhraseHash, size_t>> expected;
  for (const oracle::NgramSpan& g :
       oracle::ExtractNgrams(corpus.docs()[0], 5)) {
    expected.emplace_back(g.hash, frozen.DocumentFrequency(g.hash));
  }

  constexpr int kReaders = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  std::vector<int> mismatches(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Each reader also re-snapshots privately: taking snapshots must
      // be safe concurrently with the writer.
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& [hash, df] : expected) {
          if (frozen.DocumentFrequency(hash) != df) ++mismatches[r];
        }
        DfSnapshot fresh = table.Snapshot();
        if (fresh.num_documents() < 2) ++mismatches[r];
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < kRounds; ++round) {
      DfCounts batch = Delta(corpus, 2, corpus.size(), 5);
      table.ApplyBatch(&batch, corpus.size() - 2);
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(mismatches[r], 0) << "reader " << r << " saw a moving df";
  }
  EXPECT_EQ(frozen.generation(), 1u);
  EXPECT_EQ(table.generation(), 1u + kRounds);
  EXPECT_TRUE(table.ValidateInvariants().ok());
}

}  // namespace
}  // namespace infoshield
