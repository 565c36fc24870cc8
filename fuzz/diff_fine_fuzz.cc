// Harness (e1): differential fuzzing of the fine stage.
//
// The production fine stage (consensus-identity cache, alignment reuse,
// GapCostProfile slot probes) exists only as an optimization of the
// test-only reference costing (tests/oracle/reference_fine.h), which
// re-aligns every candidate per probe and re-encodes every candidate per
// slot. The contract is bit-identical search results. This harness
// decodes fuzz bytes into a small synthetic corpus, runs the full
// pipeline, requires the result to pass the deep invariant auditors,
// and then compares SearchConsensus against the reference field for
// field (consensus, slot gaps, every alignment, cost bits) on every
// accepted template's candidate set and on the whole corpus as one
// candidate set, the latter reaching mixes no template accepts. Last,
// it compares every coarse cluster's RunOnClusters result, and the
// whole corpus as one cluster without top phrases, against the serial
// reference loop (oracle::ReferenceAcceptance): accepted templates,
// noise, cost bits and work counters.

#include <cstdint>
#include <string>
#include <vector>

#include "coarse/coarse_clustering.h"
#include "core/fine_clustering.h"
#include "core/infoshield.h"
#include "fuzz_util.h"
#include "mdl/cost_model.h"
#include "msa/pairwise.h"
#include "msa/poa.h"
#include "oracle/reference_fine.h"
#include "synthetic_corpus.h"
#include "text/corpus.h"
#include "util/logging.h"
#include "util/status.h"

namespace {

using infoshield::AlignmentScoring;
using infoshield::CoarseClustering;
using infoshield::CoarseResult;
using infoshield::CostModel;
using infoshield::Corpus;
using infoshield::DocId;
using infoshield::FineClustering;
using infoshield::FineResult;
using infoshield::InfoShield;
using infoshield::InfoShieldOptions;
using infoshield::InfoShieldResult;
using infoshield::PoaGraph;
using infoshield::Status;
using infoshield::TokenId;
using infoshield::ValidateInfoShieldResult;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  infoshield::fuzz::FuzzInput in(data, size);

  InfoShieldOptions options;
  // The option byte: 0x02 selects the tie-heavy scoring {1, 0, -1},
  // whose free mismatches let substitution runs tie with shifted
  // alignments; 0x04 makes unigrams eligible phrases; 0x01 stays
  // unassigned so that the checked-in seeds keep their meaning.
  const uint8_t option_bits = in.TakeByte();
  if ((option_bits & 2) != 0) options.fine.scoring = AlignmentScoring{1, 0, -1};
  if ((option_bits & 4) != 0) options.coarse.tfidf.min_ngram = 1;

  const std::vector<std::string> texts =
      infoshield::fuzz::DecodeSyntheticTexts(in, /*max_docs=*/12);
  const Corpus corpus = infoshield::fuzz::BuildSyntheticCorpus(texts);

  const InfoShieldResult result = InfoShield(options).Run(corpus);
  Status audit = ValidateInfoShieldResult(result, corpus);
  CHECK(audit.ok()) << audit.ToString();

  const CostModel cost_model = CostModel::ForVocabulary(corpus.vocab());
  const std::string template_diff =
      infoshield::oracle::DiffTemplatesAgainstReference(
          result.templates, corpus, cost_model, options.fine);
  CHECK(template_diff.empty())
      << "fine stage diverged from the reference costing on "
      << template_diff << " (corpus of " << texts.size() << " docs, "
      << result.templates.size() << " templates)";

  std::vector<std::vector<TokenId>> docs;
  for (DocId d = 0; d < corpus.size(); ++d) {
    docs.push_back(corpus.doc(d).tokens);
  }
  const PoaGraph graph =
      infoshield::oracle::BuildCandidateAlignment(docs, options.fine);
  const std::string corpus_diff = infoshield::oracle::DiffConsensusChoice(
      FineClustering(options.fine).SearchConsensus(graph, docs, cost_model),
      infoshield::oracle::ReferenceSearchConsensus(
          graph, docs, cost_model, options.fine,
          infoshield::oracle::SearchMode::kDichotomous));
  CHECK(corpus_diff.empty())
      << "consensus search over the whole " << texts.size()
      << "-doc corpus diverged from the reference costing: " << corpus_diff;

  const FineClustering fine(options.fine);
  const CoarseResult coarse = CoarseClustering(options.coarse).Run(corpus);
  const std::vector<FineResult> fine_results =
      fine.RunOnClusters(corpus, coarse.clusters, cost_model,
                         &coarse.doc_top_phrases, /*num_threads=*/1);
  for (size_t ci = 0; ci < coarse.clusters.size(); ++ci) {
    const std::string diff = infoshield::oracle::DiffFineResults(
        fine_results[ci],
        infoshield::oracle::ReferenceAcceptance(corpus, coarse.clusters[ci],
                                                cost_model, options.fine,
                                                &coarse.doc_top_phrases));
    CHECK(diff.empty()) << "coarse cluster " << ci
                        << " diverged from the serial reference loop: "
                        << diff;
  }
  std::vector<DocId> all_docs;
  for (DocId d = 0; d < corpus.size(); ++d) all_docs.push_back(d);
  const std::string full_scan_diff = infoshield::oracle::DiffFineResults(
      fine.RunOnCluster(corpus, all_docs, cost_model),
      infoshield::oracle::ReferenceAcceptance(corpus, all_docs, cost_model,
                                              options.fine));
  CHECK(full_scan_diff.empty())
      << "the whole " << texts.size()
      << "-doc corpus as one cluster diverged from the serial reference "
         "loop: "
      << full_scan_diff;
  return 0;
}
