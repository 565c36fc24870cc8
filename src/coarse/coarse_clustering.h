// InfoShield-Coarse (paper §IV-A, Algorithm 1).
//
// Builds a bipartite document–phrase graph: an edge (d, p) exists iff p is
// one of d's top tf-idf phrases. Coarse clusters are the connected
// components of that graph; components of size one (documents sharing no
// important phrase with anyone) are eliminated.
//
// The stage is intentionally permissive — one shared important phrase is
// enough to connect two documents — because InfoShield-Fine refines and,
// if necessary, splits each coarse cluster. Quasi-linear in the input
// (Lemma 2).

#ifndef INFOSHIELD_COARSE_COARSE_CLUSTERING_H_
#define INFOSHIELD_COARSE_COARSE_CLUSTERING_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/union_find.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "tfidf/tfidf_index.h"

namespace infoshield {

// Which candidate generator connects documents into coarse components.
//
//  * kTfidfGraph — the paper-faithful doc–phrase bipartite graph over
//    tf-idf top phrases (§IV-A). Quasi-linear, but the df table forces
//    a global freeze barrier and its constant is large.
//  * kMinhashLsh — shingled MinHash signatures + banded LSH buckets
//    (DESIGN.md §16). No global state, O(docs * num_hashes) candidate
//    generation; the standard sub-linear generator for near-duplicate
//    structure. Components are the connected components of the
//    "shares a band bucket" relation.
//
// Both backends emit through the same BuildCoarseComponents replay, so
// downstream fine-stage code is untouched and both are byte-identical
// across thread counts.
enum class CoarseBackend : uint8_t {
  kTfidfGraph = 0,
  kMinhashLsh = 1,
};

struct CoarseOptions {
  TfidfOptions tfidf;
  // Candidate-generation backend; tfidf/max_phrase_degree apply to
  // kTfidfGraph, minhash/lsh to kMinhashLsh (where max_phrase_degree
  // caps bucket degree instead of phrase degree — same hub guard).
  CoarseBackend backend = CoarseBackend::kTfidfGraph;
  // MinHash/LSH parameters (kMinhashLsh only). Callers surface
  // lsh.Validate(minhash) before running; Run CHECK-fails on invalid
  // combinations.
  MinHashParams minhash;
  LshParams lsh;
  // Components smaller than this are dropped (2 = eliminate singletons).
  size_t min_cluster_size = 2;
  // Safety valve against degenerate giant components: phrases connecting
  // more than this many documents are ignored as hubs (0 = no cap). The
  // paper relies on tf-idf making such phrases low-scored; the cap guards
  // pathological inputs without affecting normal runs.
  size_t max_phrase_degree = 0;
  // Worker threads for the coarse pipeline (1 = sequential, 0 = hardware
  // concurrency). The partitioned df count and the per-document
  // top-phrase selection fan out across the pool; the edges are then
  // replayed in canonical (document, phrase-rank) order, so the output
  // is byte-identical for any value (DESIGN.md §11).
  size_t num_threads = 1;
};

// Per-phase wall-clock breakdown for one tf-idf coarse run; the LSH
// backend leaves it zero. Deliberately not part of the canonical JSON
// output: runs at different thread counts emit byte-identical results
// while reporting very different timings.
struct CoarseStageStats {
  // Document-frequency accumulation (TfidfIndex::Build).
  double index_seconds = 0.0;
  // Per-document top-phrase selection + bipartite-edge generation.
  double top_phrase_seconds = 0.0;
  // Canonical-order edge replay and component emission
  // (BuildCoarseComponents).
  double graph_seconds = 0.0;
};

struct CoarseResult {
  // Candidate clusters: lists of DocIds, deterministic order.
  std::vector<std::vector<DocId>> clusters;
  // Documents eliminated as singletons.
  std::vector<DocId> singletons;
  // Each document's kept top phrases (indexed by DocId). The fine stage
  // uses these to seed candidate sets from phrase-sharing neighbors,
  // which keeps the pipeline quasi-linear even when a coarse component
  // over-merges (the paper leans on the fine stage to split such
  // components; near-duplicates always share top phrases directly, so
  // neighbor seeding loses nothing). Under kMinhashLsh the entries are
  // the document's LSH band bucket keys instead — "shares a bucket"
  // replaces "shares a top phrase" and the fine stage's neighbor
  // seeding works unchanged.
  std::vector<std::vector<PhraseHash>> doc_top_phrases;
  // Bipartite edge count (for diagnostics / scaling studies).
  size_t num_edges = 0;
  // Per-phase timings (never serialized into the canonical JSON).
  CoarseStageStats stats;
};

// The anchor/degree/union pass over bipartite edges in canonical
// (document, phrase-rank) order, which BuildCoarseComponents runs for
// both coarse backends and the incremental engine, so none of them can
// drift. Instead of materializing phrase vertices,
// documents sharing a top phrase are unioned directly: the first
// document seen with each phrase acts as the phrase's anchor. This
// yields exactly the connected components of the bipartite graph
// restricted to document vertices, provided edges are replayed in the
// canonical order (the degree cap drops the same edges only then).
class CoarseEdgeAccumulator {
 public:
  CoarseEdgeAccumulator(size_t max_phrase_degree, UnionFind* uf)
      : max_phrase_degree_(max_phrase_degree), uf_(uf) {}

  void Add(DocId doc, PhraseHash phrase) {
    if (max_phrase_degree_ > 0) {
      uint32_t d = ++degree_[phrase];
      if (d > max_phrase_degree_) return;
    }
    auto [it, inserted] = anchor_.emplace(phrase, doc);
    if (!inserted) uf_->Union(it->second, doc);
  }

 private:
  const size_t max_phrase_degree_;
  // analyzer: borrows(uf_) -- the UnionFind outlives the accumulator: it
  // is a local declared just before it (BuildCoarseComponents, the
  // test oracle's ReferenceCoarse, perfbench's graph replay).
  UnionFind* uf_;
  std::unordered_map<PhraseHash, DocId> anchor_;
  std::unordered_map<PhraseHash, uint32_t> degree_;
};

// Component extraction + canonical cluster/singleton emission into
// `result`: components below min_cluster_size spill into
// result->singletons (sorted ascending), the rest append to
// result->clusters in smallest-member order.
void EmitCoarseComponents(UnionFind& uf, const CoarseOptions& options,
                          CoarseResult* result);

// The graph half of the coarse stage, shared by both backends and the
// incremental engine: replays result->doc_top_phrases (one key list per
// document, indexed by DocId) in canonical (document, key-rank) order
// through a CoarseEdgeAccumulator with options.max_phrase_degree, sets
// result->num_edges to the number of keys replayed, and emits the
// components (EmitCoarseComponents).
void BuildCoarseComponents(const CoarseOptions& options,
                           CoarseResult* result);

class CoarseClustering {
 public:
  CoarseClustering() = default;
  explicit CoarseClustering(CoarseOptions options)
      : options_(options) {}

  // Runs options().backend at options().num_threads: the tf-idf graph
  // backend here, kMinhashLsh in RunLshCoarse (lsh/lsh_coarse.h). One
  // code path per backend at every thread count; the results are
  // byte-identical across thread counts and, for tf-idf, to the serial
  // reference in tests/oracle (determinism_test, coarse_clustering_test,
  // the diff_coarse fuzzers).
  CoarseResult Run(const Corpus& corpus) const;

  const CoarseOptions& options() const { return options_; }

 private:
  CoarseOptions options_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_COARSE_COARSE_CLUSTERING_H_
