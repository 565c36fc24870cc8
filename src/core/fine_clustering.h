// InfoShield-Fine (paper §IV-B, Algorithms 2–4).
//
// Operates inside one coarse cluster. Repeats until no documents remain:
//   1. Candidate Alignment — the first remaining document d1 seeds the
//      candidate set; every remaining d with C(d|d1) < C(d) joins and is
//      fused into a POA graph.
//   2. Consensus Search — dichotomous search (Algorithm 2) over the
//      support threshold h for the sub-alignment Sel(A, h) minimizing the
//      candidates' data cost. (The search also keeps the argmin of all
//      probed thresholds, so a non-unimodal cost curve can never make it
//      return something worse than the best probe.)
//   3. Slot Detection — gap positions accumulating inserted/substituted
//      words across candidates become slots when that lowers total cost
//      (Algorithm 3).
//   4. MDL acceptance — the template joins the model iff the cluster's
//      total cost C(M) + C(D|M) decreases (Algorithm 4); otherwise its
//      candidate set is noise.
//
// Acceptance never changes which documents a seed claims (a rejected
// candidate set is still claimed, as noise), so the loop runs as three
// exact phases (DESIGN.md §10): (a) claims — step 1's serial seed walk
// without the POA, which fixes each seed's member list when that seed's
// scan ends; (b) candidates — step 1's POA and steps 2 and 3 per member
// list, independent of each other. (a) and (b) share one fork-join
// across all clusters: each walk publishes a claim as soon as it is
// final, and free workers run its candidate while the walks go on.
// (c) acceptance — step 4 replayed in seed order on running sums, O(1)
// per seed.
//
// Parameter-free: every choice above is made by cost comparison.

#ifndef INFOSHIELD_CORE_FINE_CLUSTERING_H_
#define INFOSHIELD_CORE_FINE_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "core/template.h"
#include "mdl/cost_model.h"
#include "msa/pairwise.h"
#include "msa/poa.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace infoshield {

// Templates describe at least this many documents (paper: "each
// template is expected to encode at least two documents"); a smaller
// claim is noise without an MSA.
inline constexpr size_t kMinTemplateSupport = 2;

struct FineOptions {
  AlignmentScoring scoring;
};

// Hot-path counters for one fine-stage run (summed over seeds for one
// cluster, over clusters by the pipeline). Deliberately not part of
// the canonical JSON output: they measure work, not results, so the
// test-only reference costing (tests/oracle/) reports very different
// values for the same output.
struct FineStageStats {
  // Full Needleman-Wunsch alignments computed (pool scans + consensus
  // evaluations).
  size_t alignments_computed = 0;
  // Pool scans whose alignment was skipped because ClaimCostLowerBound
  // proves the document cannot pass the claim test. Scan alignments
  // computed + skipped is the scan count of the full-scan reference.
  size_t scan_alignments_skipped = 0;
  // Consensus-search cost evaluations requested (distinct thresholds).
  size_t consensus_probes = 0;
  // Probes whose consensus was already evaluated under another
  // threshold — each hit saves one alignment+slot-detection pass over
  // every candidate document.
  size_t consensus_cache_hits = 0;
  // Candidate slot positions evaluated by DetectSlots.
  size_t slot_candidates_evaluated = 0;
  // DP cells the Needleman-Wunsch alignments and POA fusions filled,
  // rejected bands included (AlignmentWorkspace::cells,
  // PoaGraph::dp_cells). Thread-count invariant.
  uint64_t dp_cells = 0;

  void MergeFrom(const FineStageStats& other);
  double cache_hit_rate() const;
};

// One discovered template and the documents it encodes.
struct TemplateCluster {
  Template tmpl;
  std::vector<DocId> members;
  // Parallel to members.
  std::vector<DocEncoding> encodings;
};

struct FineResult {
  std::vector<TemplateCluster> templates;
  // Documents no accepted template describes.
  std::vector<DocId> noise;
  // Total cost of the cluster with zero templates / with the final model.
  double cost_before = 0.0;
  double cost_after = 0.0;
  // Hot-path counters (never serialized into the canonical JSON).
  FineStageStats stats;

  // Eq. 7. 1.0 when nothing compressed.
  double relative_length() const {
    return RelativeLength(cost_after, cost_before);
  }
};

class FineClustering {
 public:
  FineClustering() = default;
  explicit FineClustering(FineOptions options) : options_(options) {}

  // Runs Algorithm 4 on the given documents (typically one coarse
  // cluster). The cost model must be built from the corpus vocabulary so
  // lg V is consistent across clusters. Equivalent to RunOnClusters on
  // this one cluster at one thread.
  //
  // doc_top_phrases (optional, indexed by global DocId — the coarse
  // stage's CoarseResult::doc_top_phrases) restricts each seed's
  // candidate scan to documents sharing a top phrase with the seed.
  // Near-duplicates always share top phrases directly, so this changes
  // nothing for real micro-clusters while keeping the total work
  // proportional to the number of bipartite edges — the ingredient that
  // makes Lemma 2's quasi-linearity hold even when a coarse component
  // over-merges. Without it, each seed scans every remaining document.
  FineResult RunOnCluster(
      const Corpus& corpus, const std::vector<DocId>& doc_ids,
      const CostModel& cost_model,
      const std::vector<std::vector<PhraseHash>>* doc_top_phrases =
          nullptr) const;

  // Runs Algorithm 4 on every cluster across `num_threads` workers (0 =
  // hardware concurrency), in two fork-joins. The first runs (a) each
  // cluster's claim walk, largest cluster first, and (b) the candidate
  // set of every claim that reaches kMinTemplateSupport, in the order the
  // walks publish them: a claim is published as soon as its seed's scan
  // ends, so a giant cluster's consensus searches spread over every
  // worker while its walk continues. The second runs (c) each cluster's
  // acceptance. Element i equals RunOnCluster(corpus, clusters[i], ...)
  // field for field, cost bits and FineStageStats included, at any
  // thread count.
  std::vector<FineResult> RunOnClusters(
      const Corpus& corpus, const std::vector<std::vector<DocId>>& clusters,
      const CostModel& cost_model,
      const std::vector<std::vector<PhraseHash>>* doc_top_phrases,
      size_t num_threads) const;

  const FineOptions& options() const { return options_; }

  // --- Exposed sub-steps (tested independently) ---

  // Everything the winning consensus-search probe already computed, so
  // the caller never re-aligns or re-detects slots for the winner.
  struct ConsensusChoice {
    // Winning consensus tokens (empty when no non-empty consensus).
    std::vector<TokenId> consensus;
    // The consensus as a template with slots already detected.
    Template tmpl;
    // Per candidate document (input order), its alignment against
    // `consensus` — valid for EncodeDocumentWithAlignment(tmpl, ...).
    std::vector<Alignment> alignments;
    // Template model cost plus the documents' base encoding cost under
    // `tmpl` (the search objective; lg t omitted — constant during the
    // search).
    double cost = 0.0;
  };

  // Algorithm 2: searches thresholds h in [0, |Di|-1] for the consensus
  // Sel(A, h) minimizing the candidates' cost, and returns the full
  // evaluation of the winner. Probes are cached by consensus identity:
  // distinct thresholds frequently select the same sub-alignment, and
  // each cache hit skips one alignment+slot-detection pass over all
  // candidate documents.
  ConsensusChoice SearchConsensus(
      const PoaGraph& alignment,
      const std::vector<std::vector<TokenId>>& candidate_docs,
      const CostModel& cost_model, FineStageStats* stats = nullptr) const;

  // Algorithm 3: adds slots to `tmpl` (in place) wherever they lower the
  // combined model+data cost; `alignments` are the candidates' alignments
  // against tmpl.tokens and are not invalidated by slot changes. Each
  // slot probe is an O(docs) GapCostProfile delta, not a re-encode
  // (DESIGN.md §10). `final_base_costs`, when given, receives each
  // document's base cost under the final mask, bit-identical to
  // EncodeDocumentWithAlignment(tmpl, ...).base_cost.
  void DetectSlots(Template& tmpl, const std::vector<Alignment>& alignments,
                   const CostModel& cost_model,
                   FineStageStats* stats = nullptr,
                   std::vector<double>* final_base_costs = nullptr) const;

 private:
  // Cost of a candidate consensus as it would actually be adopted:
  // aligns every candidate document against `consensus` once, detects
  // slots, and returns the populated ConsensusChoice whose cost is the
  // template model cost plus the documents' base encoding costs (the
  // lg t term is omitted — constant during the search).
  ConsensusChoice EvaluateCandidate(
      const std::vector<TokenId>& consensus,
      const std::vector<std::vector<TokenId>>& docs,
      const CostModel& cost_model, FineStageStats* stats) const;

  FineOptions options_;
};

// A lower bound on EncodedDocCost(1, ·) of every alignment of a document
// of `doc_length` tokens against a slot-free template of `seed_length`
// tokens, when the two share `overlap` tokens as multisets. An alignment
// has at most `overlap` matches and at least L = max(doc_length,
// seed_length) columns, and the cost never falls as columns, unmatched
// columns or inserted words grow, so the summary {L, L - overlap,
// doc_length - overlap} costs no more than any real one (DESIGN.md §10).
double ClaimCostLowerBound(const CostModel& cost_model, size_t seed_length,
                           size_t doc_length, size_t overlap);

// One seed's tokens as a multiset, for ClaimCostLowerBound's overlap: an
// open-addressing table of the seed's distinct tokens and their counts,
// at most half full and sized by the seed, so a probe costs O(|d|) and
// nothing is sized by the vocabulary. Reused from seed to seed.
class TokenBag {
 public:
  // Makes the bag hold exactly `tokens`.
  void Assign(const std::vector<TokenId>& tokens);

  // The multiset overlap of the bag and `tokens`: the sum over tokens of
  // the smaller of their two counts.
  size_t Overlap(const std::vector<TokenId>& tokens);

 private:
  // The slot holding `token`, or slots_.size() if it is absent.
  size_t Find(TokenId token) const;

  struct Slot {
    TokenId token = 0;
    uint32_t count = 0;  // 0 marks an empty slot
    uint32_t used = 0;   // matched by the running Overlap call
  };
  std::vector<Slot> slots_;  // a power of two
  std::vector<size_t> touched_;
  int shift_ = 64;
};

// Deep invariant audits (util/audit.h).
//
// ValidateTemplateCluster: the template itself is well-formed, members
// are distinct valid documents, encodings run parallel to members, and
// every encoding's edit trace replays to its member's token sequence.
Status ValidateTemplateCluster(const TemplateCluster& cluster,
                               const Corpus& corpus,
                               const CostModel* cost_model = nullptr);

// ValidateFineResult: every template cluster validates, template members
// and noise exactly partition `cluster_docs`, and the costs are finite
// with cost_after <= cost_before (the model is only ever accepted when it
// compresses).
Status ValidateFineResult(const FineResult& result, const Corpus& corpus,
                          const std::vector<DocId>& cluster_docs,
                          const CostModel* cost_model = nullptr);

}  // namespace infoshield

#endif  // INFOSHIELD_CORE_FINE_CLUSTERING_H_
