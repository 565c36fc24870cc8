// Test-only reference implementation of the fine stage (InfoShield-Fine,
// Algorithms 2–4): the plain re-align and re-encode costing that
// FineClustering's consensus-identity cache and GapCostProfile slot
// algebra must reproduce bit for bit, and the serial claim-and-accept
// loop that its claims / candidates / acceptance split must reproduce
// field for field (DESIGN.md §10). It lives outside src/ so production
// keeps one code path per stage; the unit tests and the diff_fine
// fuzzer link it as their oracle.

#ifndef INFOSHIELD_TESTS_ORACLE_REFERENCE_FINE_H_
#define INFOSHIELD_TESTS_ORACLE_REFERENCE_FINE_H_

#include <string>
#include <vector>

#include "core/fine_clustering.h"
#include "core/template.h"
#include "mdl/cost_model.h"
#include "msa/pairwise.h"
#include "msa/poa.h"
#include "text/corpus.h"
#include "text/ngram.h"

namespace infoshield::oracle {

// Algorithm 3 by full re-encoding: for each candidate gap (ascending),
// enable a slot, re-encode every document against the mutated template
// and keep the slot iff the total strictly drops. The total sums the
// documents' base costs from zero in document order and adds the model
// cost last.
void ReferenceDetectSlots(Template& tmpl,
                          const std::vector<Alignment>& alignments,
                          const CostModel& cost_model,
                          FineStageStats* stats = nullptr);

// Which thresholds ReferenceSearchConsensus probes.
enum class SearchMode {
  // Algorithm 2's dichotomous search, in the production probe order.
  kDichotomous,
  // Every threshold h in [0, |Di|-1], ascending: the naive search the
  // dichotomous one is checked against.
  kExhaustive,
};

// Algorithm 2 with no consensus cache: every threshold probe (memoized
// per threshold only) re-aligns every candidate against Sel(A, h), runs
// ReferenceDetectSlots and scores TemplateCost first, then each
// document's base cost in order. The winner, the cheapest probe and the
// lowest threshold among equal costs, is rebuilt from scratch:
// re-aligned, slots re-detected, cost taken from its probe.
FineClustering::ConsensusChoice ReferenceSearchConsensus(
    const PoaGraph& alignment,
    const std::vector<std::vector<TokenId>>& candidate_docs,
    const CostModel& cost_model, const FineOptions& options,
    SearchMode mode, FineStageStats* stats = nullptr);

// Empty when `actual` equals `expected` field for field: consensus,
// template tokens and slot gaps, every alignment's ops, and the cost's
// bit pattern. Otherwise describes the first field that differs.
std::string DiffConsensusChoice(
    const FineClustering::ConsensusChoice& actual,
    const FineClustering::ConsensusChoice& expected);

// The candidate alignment RunOnCluster builds for a seed and its
// admitted candidates: docs[0] seeds a POA graph under options.scoring
// and the rest are fused in order.
PoaGraph BuildCandidateAlignment(
    const std::vector<std::vector<TokenId>>& docs, const FineOptions& options);

// Checks accepted templates against the oracle. A template's member
// list is exactly the candidate set SearchConsensus saw (seed first, in
// admission order), so the candidate alignment is rebuilt from it;
// SearchConsensus must then equal the dichotomous
// ReferenceSearchConsensus field for field, and reproduce the template
// and every member encoding.
// `cost_model` and `options` must be the ones the templates were found
// with. Empty on agreement, else the first mismatch.
std::string DiffTemplatesAgainstReference(
    const std::vector<TemplateCluster>& templates, const Corpus& corpus,
    const CostModel& cost_model, const FineOptions& options);

// Algorithm 4 as one serial loop, as the fine stage ran before its
// phases split. For each unclaimed seed in cluster order: gather the
// scan pool through an ordered phrase -> documents map (or take every
// later unclaimed document), admit each pool document whose full
// DocEncoding against the seed costs less than the document alone,
// claim the members, fuse them into a POA graph, run
// FineClustering::SearchConsensus (checked against
// ReferenceSearchConsensus separately) and encode the members. The
// acceptance test recomputes the cluster total from the full accepted
// list for every seed, O(T) per seed, adding in this order:
// UniversalCodeLength(T) + (the TemplateCost values summed from 0.0 in
// acceptance order); one flag bit per document; the noise plus pending
// unencoded cost; the accepted templates' member base costs summed from
// 0.0 in acceptance order (each template's own sum folded in member
// order); lg T bits per encoded document. Stats count the work the
// production fine stage counts, but every scan alignment is computed:
// the reference never skips one by its bag-of-words bound.
FineResult ReferenceAcceptance(
    const Corpus& corpus, const std::vector<DocId>& doc_ids,
    const CostModel& cost_model, const FineOptions& options,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases = nullptr);

// Empty when `actual` equals `expected` field for field: every
// template's tokens, slot gaps and members, every encoding's base_cost
// bits and slot words, the noise list, cost_before and cost_after bits,
// and every FineStageStats counter but dp_cells, which the reference
// does not reproduce: it re-aligns every probe production serves from
// its consensus cache. Alignments compare as alignments_computed +
// scan_alignments_skipped, since the reference never skips a scan.
// Otherwise describes the first field that differs.
std::string DiffFineResults(const FineResult& actual,
                            const FineResult& expected);

}  // namespace infoshield::oracle

#endif  // INFOSHIELD_TESTS_ORACLE_REFERENCE_FINE_H_
