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
//
// The index owns the df table: one FlatDfMap per hash partition
// (df_count.h), grown in place. Document frequency is a commutative
// integer sum, so adding documents batch by batch lands on exactly the
// table one Build over all of them produces. That additivity is what
// lets the batch coarse stage (one Build) and the incremental engine
// (one AddDocuments per ingested batch) share this code, and what makes
// the incremental engine's batch oracle (DESIGN.md §15) attainable.

#ifndef INFOSHIELD_TFIDF_TFIDF_INDEX_H_
#define INFOSHIELD_TFIDF_TFIDF_INDEX_H_

#include <array>
#include <cstdint>
#include <vector>

#include "text/corpus.h"
#include "text/ngram.h"
#include "tfidf/df_count.h"
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
  // An empty index (no documents) that scores with `options`.
  explicit TfidfIndex(const TfidfOptions& options) : options_(options) {}

  // Not copyable: the df table holds a 16-byte slot per phrase and
  // spare, and no caller needs a second copy of it.
  TfidfIndex(const TfidfIndex&) = delete;
  TfidfIndex& operator=(const TfidfIndex&) = delete;

  // Resets the index to `options` and no documents, then adds every
  // document of `corpus`. The table is identical for any thread count.
  void Build(const Corpus& corpus, const TfidfOptions& options,
             size_t num_threads = 1);

  // Counts the document frequencies of documents [begin, end) of
  // `corpus` (df_count.h) with `num_threads` workers (0 = hardware
  // concurrency) and adds them to the table in place, one worker per
  // partition. The documents must not have been added before: each
  // counts once per phrase, and num_documents() grows by end - begin.
  void AddDocuments(const Corpus& corpus, size_t begin, size_t end,
                    size_t num_threads = 1);

  // Document frequency of a phrase (0 if unseen).
  size_t DocumentFrequency(PhraseHash phrase) const {
    return df_[DfPartitionOf(phrase)].Find(phrase);
  }

  // The top phrases of one document by tf-idf, best first.
  std::vector<ScoredPhrase> TopPhrases(const Document& doc) const;

  // tf-idf score of a phrase occurring `tf` times in one document.
  double Score(PhraseHash phrase, size_t tf) const;

  // Documents added so far (the N in idf).
  size_t num_documents() const { return num_documents_; }
  // Distinct phrases across all partitions.
  size_t num_phrases() const { return num_phrases_; }
  const TfidfOptions& options() const { return options_; }
  const TfidfBuildStats& build_stats() const { return build_stats_; }

  // Invariant audit (util/audit.h): the stored options are sane, every
  // phrase sits in the partition its hash selects, every df lies in
  // [1, num_documents], and the cached num_phrases matches the sum of
  // partition sizes. Returns OK or an Internal status listing every
  // violation.
  Status ValidateInvariants() const;

 private:
  // tf-idf for a phrase whose df lookup the caller already did —
  // TopPhrases' inner loop needs the df twice (min_df filter, then the
  // score) and must not pay the hash lookup twice.
  double ScoreWithDf(size_t df, size_t tf) const;

  TfidfOptions options_;
  TfidfBuildStats build_stats_;
  std::array<FlatDfMap, kDfPartitions> df_;
  size_t num_documents_ = 0;
  size_t num_phrases_ = 0;
};

// Every document's top phrase hashes (TfidfIndex::TopPhrases, best
// first), indexed by DocId. Against a fixed table TopPhrases is a pure
// function of the document, so `num_threads` workers (0 = hardware
// concurrency) own contiguous document chunks and write only their own
// slots; the result is identical for any thread count.
std::vector<std::vector<PhraseHash>> SelectTopPhrases(const TfidfIndex& index,
                                                      const Corpus& corpus,
                                                      size_t num_threads);

// Audits a TopPhrases result: scores are finite, the list is sorted by
// score descending (hash ascending on ties) and contains no duplicate
// phrase hash.
Status ValidateTopPhrases(const std::vector<ScoredPhrase>& phrases);

}  // namespace infoshield

#endif  // INFOSHIELD_TFIDF_TFIDF_INDEX_H_
