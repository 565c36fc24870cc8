// Corpus-wide n-gram tf-idf index (paper §IV-A1).
//
// For each (phrase, document) pair, tf-idf = tf * log(N / df). For each
// document, the phrases with the highest tf-idf scores are its "top
// phrases"; the number selected is a fixed fraction of the document's
// eligible phrases, 10% rounded up (Lemma 2's proof), so long and short
// documents are treated uniformly and the method stays domain-independent
// with nothing to tune.
//
// Phrases occurring in only one document are never eligible: a df-1
// phrase cannot connect two documents, so skipping it changes no coarse
// component while keeping the bipartite graph small. (The paper's tf-idf
// already down-weights nothing here — df-1 phrases have the *highest*
// idf — so this is purely the graph-side optimization.)
//
// The index owns the df table, split by hash partition (df_count.h) and,
// within each partition, by df: a FlatDfMap of the phrases seen in two or
// more documents and a hash-only FlatPhraseSet of those seen in exactly
// one (94% of a 96k-tweet corpus's phrases). Both grow in place; a phrase
// moves from the set to the map the first time a later batch sees it
// again. Document frequency is a commutative integer sum, so adding
// documents batch by batch lands on exactly the table one Build over all
// of them produces. That additivity is what lets the batch coarse stage
// (one Build) and the incremental engine (one AddDocuments per ingested
// batch) share this code, and what makes the incremental engine's batch
// oracle (DESIGN.md §15) attainable.

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

  // Not copyable: the df table holds a slot per phrase and spare, and no
  // caller needs a second copy of it.
  TfidfIndex(const TfidfIndex&) = delete;
  TfidfIndex& operator=(const TfidfIndex&) = delete;

  // Resets the index to `options` and no documents, then adds every
  // document of `corpus`. The table is identical for any thread count.
  void Build(const Corpus& corpus, const TfidfOptions& options,
             size_t num_threads = 1);

  // Counts the document frequencies of documents [begin, end) of
  // `corpus` (df_count.h) with `num_threads` workers (0 = hardware
  // concurrency) and folds each partition's counts into the table in
  // place on the worker that counted them. The documents must not have
  // been added before: each counts once per phrase, and num_documents()
  // grows by end - begin.
  void AddDocuments(const Corpus& corpus, size_t begin, size_t end,
                    size_t num_threads = 1);

  // Document frequency of a phrase (0 if unseen).
  size_t DocumentFrequency(PhraseHash phrase) const {
    const size_t p = DfPartitionOf(phrase);
    const uint32_t df = shared_[p].Find(phrase);
    if (df != 0) return df;
    return once_[p].Contains(phrase) ? 1 : 0;
  }

  // The top phrases of one document by tf-idf, best first: 10% of its
  // phrases of min_ngram..max_ngram words that occur in two or more
  // documents, rounded up. Only the df map of those phrases is probed.
  std::vector<ScoredPhrase> TopPhrases(const Document& doc) const;

  // tf-idf score of a phrase occurring `tf` times in one document.
  double Score(PhraseHash phrase, size_t tf) const;

  // Documents added so far (the N in idf).
  size_t num_documents() const { return num_documents_; }
  // Distinct phrases across all partitions.
  size_t num_phrases() const { return num_phrases_; }
  const TfidfOptions& options() const { return options_; }
  const TfidfBuildStats& build_stats() const { return build_stats_; }

  // Invariant audit (util/audit.h): max_ngram is at least 1, every
  // phrase sits in the partition its hash selects, every df in a map lies
  // in [2, num_documents], no phrase is in both its partition's map and
  // set, and the cached num_phrases matches the sizes of all maps and
  // sets summed. Returns OK or an Internal status listing every
  // violation.
  Status ValidateInvariants() const;

 private:
  // tf-idf for a phrase whose df the caller already looked up —
  // TopPhrases probes only the df map, where Score would probe the df-1
  // set too.
  double ScoreWithDf(size_t df, size_t tf) const;

  TfidfOptions options_;
  TfidfBuildStats build_stats_;
  // Per partition: phrases seen in two or more documents, with their df,
  // and phrases seen in exactly one.
  std::array<FlatDfMap, kDfPartitions> shared_;
  std::array<FlatPhraseSet, kDfPartitions> once_;
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
