// Incremental ingestion engine (DESIGN.md §15): fold batches of new
// documents into a live InfoShield model without re-running the whole
// pipeline, while staying byte-identical to a fresh batch run.
//
// The batch pipeline is the oracle: after ANY sequence of IngestBatch
// calls, ResultToJson(result(), corpus()) must byte-match a fresh
// InfoShield::Run over the concatenated corpus (incremental_test, the
// diff_incremental fuzz harness, and bench_incremental all enforce
// this). Both assemble their result through AssembleResult. That
// contract is achievable because every stage is either additive or
// cheap to replay:
//
//   df table    — document frequency is a commutative integer sum, so a
//                 batch's partitioned count folds in exactly
//                 (SnapshotDfTable::ApplyBatch, the same fold the batch
//                 index makes); readers score against a frozen snapshot.
//   top phrases — idf = lg(N/df) moves for EVERY phrase when N grows,
//                 so all documents are rescored each ingest. This is the
//                 cheap, embarrassingly-parallel part of the pipeline;
//                 the savings target is the fine stage below.
//   graph       — union–find only ever merges, so new edges union in
//                 place (growable UnionFind + the persistent
//                 CoarseEdgeAccumulator). Only when an old document's
//                 top-phrase set LOSES a phrase — or changes at all
//                 under a max_phrase_degree cap, whose edge-drop choices
//                 are replay-order-sensitive — is the graph replayed
//                 from scratch; the replay is O(edges) and allocation-
//                 cheap next to one fine cluster.
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
// Per-batch cost therefore scales with the size of the components the
// batch touches, not with the corpus (the acceptance criterion
// bench_incremental measures).

#ifndef INFOSHIELD_INCREMENTAL_INCREMENTAL_INFOSHIELD_H_
#define INFOSHIELD_INCREMENTAL_INCREMENTAL_INFOSHIELD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "coarse/coarse_clustering.h"
#include "core/fine_clustering.h"
#include "core/infoshield.h"
#include "graph/union_find.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "text/tokenizer.h"
#include "tfidf/snapshot_df_table.h"
#include "util/status.h"

namespace infoshield {

// Per-ingest diagnostics: what the batch touched and what got reused.
// Never part of the canonical JSON — the oracle compares results, and a
// fresh batch run has no notion of reuse.
struct IngestStats {
  // Documents in this batch / in the corpus after it.
  size_t batch_docs = 0;
  size_t total_docs = 0;
  // Documents whose top-phrase list changed this ingest (new documents
  // always count; old ones only when idf movement reordered them).
  size_t changed_docs = 0;
  // True when a lost phrase (or any change under a degree cap) forced a
  // from-scratch edge replay instead of the fast append-only union.
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
  // df generation after this ingest.
  uint64_t generation = 0;
  // Wall-clock breakdown in seconds.
  double df_seconds = 0.0;
  double rescore_seconds = 0.0;
  double graph_seconds = 0.0;
  double fine_seconds = 0.0;

  double total_seconds() const {
    return df_seconds + rescore_seconds + graph_seconds + fine_seconds;
  }
};

class IncrementalInfoShield {
 public:
  explicit IncrementalInfoShield(InfoShieldOptions options,
                                 TokenizerOptions tokenizer_options = {});

  IncrementalInfoShield(const IncrementalInfoShield&) = delete;
  IncrementalInfoShield& operator=(const IncrementalInfoShield&) = delete;

  // Appends `texts` to the corpus and brings result() up to date, paying
  // the fine-stage cost only for components the batch touched. Returns
  // ResourceExhausted (corpus unchanged) when the batch would overflow
  // the DocId space. An empty batch is a no-op returning zeroed stats.
  Result<IngestStats> IngestBatch(const std::vector<std::string>& texts);

  // The model over everything ingested so far — byte-identical (via
  // ResultToJson) to InfoShield::Run over corpus().
  const InfoShieldResult& result() const { return result_; }
  const Corpus& corpus() const { return corpus_; }
  const InfoShieldOptions& options() const { return options_; }
  uint64_t generation() const { return df_table_.generation(); }

  // Deep invariant audit (util/audit.h): the df table validates, the
  // graph covers exactly the corpus, per-document state arrays line up,
  // every cached fine entry's members exist, and the assembled result
  // validates against the corpus. Returns OK or an Internal status
  // listing every violation.
  Status ValidateInvariants() const;

 private:
  // One cached fine-stage output. `generation` is the df generation the
  // result was computed at; the entry is reusable while every member's
  // doc_changed_gen_ stays <= it (and lg V holds still).
  struct CachedFine {
    std::vector<DocId> members;
    FineResult result;
    uint64_t generation = 0;
  };

  // Replays the whole doc–phrase graph from scratch in canonical
  // (document, phrase-rank) order.
  void RebuildGraph();

  InfoShieldOptions options_;
  Corpus corpus_;
  SnapshotDfTable df_table_;

  // Per-document state, indexed by DocId.
  std::vector<std::vector<PhraseHash>> doc_top_phrases_;
  std::vector<uint64_t> doc_changed_gen_;

  // Persistent doc–phrase graph (document vertices only).
  UnionFind uf_;
  CoarseEdgeAccumulator edges_;

  // Fine-result cache keyed by a cluster's smallest member (clusters
  // partition the documents, so within one generation the key is
  // unique; the stored member list disambiguates across generations).
  std::unordered_map<DocId, CachedFine> fine_cache_;
  double last_lg_vocab_ = 0.0;

  InfoShieldResult result_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_INCREMENTAL_INCREMENTAL_INFOSHIELD_H_
