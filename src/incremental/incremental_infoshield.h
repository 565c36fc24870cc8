// Incremental ingestion engine (DESIGN.md §15): fold batches of new
// documents into a live InfoShield model without re-running the whole
// pipeline, while staying byte-identical to a fresh batch run.
//
// The batch pipeline is the oracle: after ANY sequence of IngestBatch
// calls, ResultToJson(result(), corpus()) must byte-match a fresh
// InfoShield::Run over the concatenated corpus (incremental_test and
// the diff_incremental fuzz harness enforce this). Both assemble their
// result through AssembleResult, and the engine runs the batch
// pipeline's own code for every stage before it:
//
//   df table    — document frequency is a commutative integer sum, so
//                 the batch's count is added to the engine's TfidfIndex
//                 in place (TfidfIndex::AddDocuments, the fold the batch
//                 Build makes over the whole corpus).
//   top phrases — idf = lg(N/df) moves for EVERY phrase when N grows,
//                 so all documents are rescored each ingest
//                 (SelectTopPhrases). This is the cheap, embarrassingly
//                 parallel part of the pipeline; the savings target is
//                 the fine stage below.
//   graph       — the whole doc–phrase graph is replayed each ingest by
//                 BuildCoarseComponents, exactly as InfoShield::Run does;
//                 the replay is O(edges) and cheap next to one fine
//                 cluster.
//   fine stage  — the expensive part (MDL + alignment) is skipped for
//                 every CLEAN component: identical member list, no
//                 member's top phrases changed since the cached result,
//                 and an unchanged lg V (a vocabulary-size step shifts
//                 every cost comparison, so it clears the whole cache).
//                 FineClustering::RunOnClusters' result for a cluster
//                 reads nothing but its members' tokens, their
//                 top-phrase lists, and the cost model, so the cached
//                 FineResult is exact.
//
// Only the tf-idf coarse backend is supported: IngestBatch rejects
// CoarseBackend::kMinhashLsh.
//
// Per-batch fine-stage cost therefore scales with the size of the
// components the batch touches, not with the corpus (perfbench's
// incremental.* metrics report it).

#ifndef INFOSHIELD_INCREMENTAL_INCREMENTAL_INFOSHIELD_H_
#define INFOSHIELD_INCREMENTAL_INCREMENTAL_INFOSHIELD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fine_clustering.h"
#include "core/infoshield.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "text/tokenizer.h"
#include "tfidf/tfidf_index.h"
#include "util/status.h"

namespace infoshield {

// Per-ingest diagnostics: what the batch touched and what got reused.
// Never part of the canonical JSON — the oracle compares results, and a
// fresh batch run has no notion of reuse.
struct IngestStats {
  // Documents in this batch / in the corpus after it.
  size_t batch_docs = 0;
  size_t total_docs = 0;
  // True for every non-empty batch: each ingest replays the whole
  // doc–phrase graph (perfbench reports the share).
  bool graph_rebuilt = false;
  // True when vocabulary growth moved lg V and invalidated every cached
  // fine result.
  bool vocab_grew = false;
  // Coarse components after this ingest, split into fine re-runs and
  // cache hits (dirty + reused == total clusters).
  size_t num_coarse_clusters = 0;
  size_t dirty_clusters = 0;
  size_t reused_clusters = 0;
  // Documents inside the dirty clusters — the "touched-component size"
  // that per-batch cost is supposed to track.
  size_t dirty_cluster_docs = 0;
  // Non-empty ingests so far, this one included.
  uint64_t generation = 0;
  // Wall-clock breakdown in seconds.
  double df_seconds = 0.0;
  double rescore_seconds = 0.0;
  double graph_seconds = 0.0;
  double fine_seconds = 0.0;
};

class IncrementalInfoShield {
 public:
  explicit IncrementalInfoShield(InfoShieldOptions options,
                                 TokenizerOptions tokenizer_options = {});

  IncrementalInfoShield(const IncrementalInfoShield&) = delete;
  IncrementalInfoShield& operator=(const IncrementalInfoShield&) = delete;

  // Appends `texts` to the corpus and brings result() up to date, paying
  // the fine-stage cost only for components the batch touched. Returns
  // InvalidArgument, for any batch, unless options().coarse.backend is
  // kTfidfGraph, and ResourceExhausted when the batch would overflow the
  // DocId space; the corpus is unchanged in both cases. Otherwise an
  // empty batch is a no-op returning zeroed stats.
  Result<IngestStats> IngestBatch(const std::vector<std::string>& texts);

  // The model over everything ingested so far — byte-identical (via
  // ResultToJson) to InfoShield::Run over corpus().
  const InfoShieldResult& result() const { return result_; }
  const Corpus& corpus() const { return corpus_; }
  const InfoShieldOptions& options() const { return options_; }

  // Deep invariant audit (util/audit.h): the df index validates and
  // covers exactly the corpus, per-document state arrays line up, every
  // cached fine entry's members exist, and the assembled result
  // validates against the corpus. Returns OK or an Internal status
  // listing every violation.
  Status ValidateInvariants() const;

 private:
  // One cached fine-stage output. `generation` is the ingest the result
  // was computed at; the entry is reusable while every member's
  // doc_changed_gen_ stays <= it (and lg V holds still).
  struct CachedFine {
    std::vector<DocId> members;
    FineResult result;
    uint64_t generation = 0;
  };

  InfoShieldOptions options_;
  Corpus corpus_;
  TfidfIndex index_;
  // Non-empty ingests so far.
  uint64_t generation_ = 0;

  // Per-document state, indexed by DocId: the top phrases as of the last
  // ingest, and the ingest at which they last changed.
  std::vector<std::vector<PhraseHash>> doc_top_phrases_;
  std::vector<uint64_t> doc_changed_gen_;

  // Fine-result cache keyed by a cluster's smallest member (clusters
  // partition the documents, so within one generation the key is
  // unique; the stored member list disambiguates across generations).
  std::unordered_map<DocId, CachedFine> fine_cache_;
  double last_lg_vocab_ = 0.0;

  InfoShieldResult result_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_INCREMENTAL_INCREMENTAL_INFOSHIELD_H_
