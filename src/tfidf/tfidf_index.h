// Corpus-wide n-gram tf-idf index (paper §IV-A1).
//
// For each (phrase, document) pair, tf-idf = tf * log(N / df). For each
// document, the phrases with the highest tf-idf scores are its "top
// phrases"; the number selected is a fraction of the number of distinct
// phrases in the document (top 10% per Lemma 2's proof), so long and short
// documents are treated uniformly and the method stays domain-independent.
//
// Phrases occurring in only one document are skipped when selecting top
// phrases for clustering: a df-1 phrase cannot connect two documents, so
// skipping it changes no coarse component while keeping the bipartite
// graph small. (The paper's tf-idf already down-weights nothing here —
// df-1 phrases have the *highest* idf — so this is purely the graph-side
// optimization, applied after scoring.)

#ifndef INFOSHIELD_TFIDF_TFIDF_INDEX_H_
#define INFOSHIELD_TFIDF_TFIDF_INDEX_H_

#include <cstdint>
#include <vector>

#include "text/corpus.h"
#include "text/ngram.h"
#include "tfidf/snapshot_df_table.h"
#include "util/status.h"

namespace infoshield {

struct TfidfOptions {
  // Maximum n-gram length (paper: 5; Fig. 4 sweeps 1..8).
  size_t max_ngram = 5;
  // Minimum n-gram length for a phrase to be eligible as a top phrase
  // (clamped to max_ngram internally). A single shared word is weak
  // near-duplicate evidence — any two documents in a large corpus share
  // some rare word, which would percolate the coarse graph into one
  // giant component; a shared phrase of two or more words is the actual
  // signature the paper's "phrases" refer to. Document frequencies are
  // still tracked for all lengths >= 1.
  size_t min_ngram = 2;
  // Fraction of a document's distinct phrases kept as top phrases.
  double top_fraction = 0.10;
  // Every document keeps at least this many top phrases (if it has any
  // eligible phrase at all).
  size_t min_phrases_per_doc = 1;
  // Drop phrases whose document frequency is below this when selecting
  // top phrases (2 = skip phrases that cannot connect documents).
  size_t min_df = 2;
};

struct ScoredPhrase {
  PhraseHash hash;
  double score;
};

// Build diagnostics. The partitioned df count takes no locks, so nothing
// contends and shard_contended stays 0; the field remains only because
// perfbench reports it as tfidf.shard_contended.
struct TfidfBuildStats {
  size_t shard_contended = 0;
};

class TfidfIndex {
 public:
  TfidfIndex() = default;

  // Counts the corpus's document frequencies (df_count.h) with
  // `num_threads` workers (0 = hardware concurrency) and folds them into
  // a fresh df table. The table is identical for any thread count.
  void Build(const Corpus& corpus, const TfidfOptions& options,
             size_t num_threads = 1);

  // Points the index at a frozen df snapshot (snapshot_df_table.h)
  // instead of scanning a corpus: O(1), no df maps are copied. Scoring
  // then reads the snapshot's generation no matter what later ApplyBatch
  // calls do to the underlying table. Build is this over a table holding
  // exactly its corpus, so an index built from a snapshot covering
  // documents [0, N) scores byte-identically to Build over those same N
  // documents — the bridge the incremental path's differential oracle
  // rests on.
  void BuildFromSnapshot(const DfSnapshot& snapshot,
                         const TfidfOptions& options);

  // Document frequency of a phrase (0 if unseen).
  size_t DocumentFrequency(PhraseHash phrase) const;

  // The top phrases of one document by tf-idf, best first.
  std::vector<ScoredPhrase> TopPhrases(const Document& doc) const;

  // tf-idf score of a phrase occurring `tf` times in one document.
  double Score(PhraseHash phrase, size_t tf) const;

  size_t num_documents() const { return snapshot_.num_documents(); }
  size_t num_phrases() const { return snapshot_.num_phrases(); }
  const TfidfOptions& options() const { return options_; }
  const TfidfBuildStats& build_stats() const { return build_stats_; }

  // Invariant audit (util/audit.h): the stored options are sane (the df
  // table audits itself, SnapshotDfTable::ValidateInvariants). Returns OK
  // or an Internal status listing every violation.
  Status ValidateInvariants() const;

 private:
  // tf-idf for a phrase whose df lookup the caller already did —
  // TopPhrases' inner loop needs the df twice (min_df filter, then the
  // score) and must not pay the hash lookup twice.
  double ScoreWithDf(size_t df, size_t tf) const;

  TfidfOptions options_;
  TfidfBuildStats build_stats_;
  DfSnapshot snapshot_;
};

// Audits a TopPhrases result: scores are finite, the list is sorted by
// score descending (hash ascending on ties) and contains no duplicate
// phrase hash.
Status ValidateTopPhrases(const std::vector<ScoredPhrase>& phrases);

}  // namespace infoshield

#endif  // INFOSHIELD_TFIDF_TFIDF_INDEX_H_
