#include "oracle/reference_fine.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>

#include "msa/poa.h"
#include "msa/profile_msa.h"
#include "util/logging.h"

namespace infoshield::oracle {

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::vector<Alignment> AlignAll(const std::vector<TokenId>& consensus,
                                const std::vector<std::vector<TokenId>>& docs,
                                const AlignmentScoring& scoring,
                                FineStageStats* stats) {
  std::vector<Alignment> alignments;
  alignments.reserve(docs.size());
  for (const auto& doc : docs) {
    alignments.push_back(NeedlemanWunsch(consensus, doc, scoring));
  }
  if (stats != nullptr) stats->alignments_computed += docs.size();
  return alignments;
}

// The search objective for one probed consensus, as it would be adopted:
// slots detected, TemplateCost first, then each document's base cost.
double CandidateCost(const std::vector<TokenId>& consensus,
                     const std::vector<std::vector<TokenId>>& docs,
                     const CostModel& cost_model, const FineOptions& options,
                     FineStageStats* stats) {
  Template tmpl(consensus);
  const std::vector<Alignment> alignments =
      AlignAll(tmpl.tokens, docs, options.scoring, stats);
  ReferenceDetectSlots(tmpl, alignments, cost_model, stats);
  double cost = cost_model.TemplateCost(tmpl.length(), tmpl.num_slots());
  for (const Alignment& a : alignments) {
    cost += EncodeDocumentWithAlignment(tmpl, a, cost_model).base_cost;
  }
  return cost;
}

}  // namespace

void ReferenceDetectSlots(Template& tmpl,
                          const std::vector<Alignment>& alignments,
                          const CostModel& cost_model,
                          FineStageStats* stats) {
  // Algorithm 3's dictionary P: every gap that accumulates an inserted
  // or substituted word in some alignment, ascending.
  std::vector<size_t> candidates;
  for (const Alignment& a : alignments) {
    size_t gap = 0;
    for (const AlignOp& op : a.ops) {
      if (op.type == AlignOpType::kInsert ||
          op.type == AlignOpType::kSubstitute) {
        candidates.push_back(gap);
      } else {
        ++gap;
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (stats != nullptr) stats->slot_candidates_evaluated += candidates.size();

  auto total_cost = [&]() {
    double data = 0.0;
    for (const Alignment& a : alignments) {
      data += EncodeDocumentWithAlignment(tmpl, a, cost_model).base_cost;
    }
    return data + cost_model.TemplateCost(tmpl.length(), tmpl.num_slots());
  };
  double current = total_cost();
  for (size_t gap : candidates) {
    tmpl.SetSlotAtGap(gap, true);
    const double with_slot = total_cost();
    if (with_slot < current) {
      current = with_slot;
    } else {
      tmpl.SetSlotAtGap(gap, false);
    }
  }
}

FineClustering::ConsensusChoice ReferenceSearchConsensus(
    const MsaAligner& alignment,
    const std::vector<std::vector<TokenId>>& candidate_docs,
    const CostModel& cost_model, const FineOptions& options,
    FineStageStats* stats) {
  const size_t n = candidate_docs.size();
  CHECK_GE(n, 1u);
  const int64_t h_max = static_cast<int64_t>(n) - 1;

  std::map<int64_t, double> by_threshold;
  auto eval = [&](int64_t h) -> double {
    h = std::clamp<int64_t>(h, 0, h_max);
    const auto it = by_threshold.find(h);
    if (it != by_threshold.end()) return it->second;
    if (stats != nullptr) ++stats->consensus_probes;
    const double cost = CandidateCost(
        alignment.ConsensusAtThreshold(static_cast<size_t>(h)),
        candidate_docs, cost_model, options, stats);
    by_threshold.emplace(h, cost);
    return cost;
  };

  int64_t best_h = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  auto consider = [&](int64_t h) {
    h = std::clamp<int64_t>(h, 0, h_max);
    const double c = eval(h);
    if (c < best_cost || (c == best_cost && h < best_h)) {
      best_cost = c;
      best_h = h;
    }
  };

  if (options.exhaustive_consensus_search) {
    for (int64_t h = 0; h <= h_max; ++h) consider(h);
  } else {
    int64_t lo = 0;
    int64_t hi = h_max;
    while (lo < hi) {
      const int64_t mid = (lo + hi) / 2;
      const double left = eval(mid - 1);
      const double right = eval(mid + 1);
      consider(mid - 1);
      consider(mid);
      consider(mid + 1);
      if (left <= right) {
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    consider(lo);
  }

  FineClustering::ConsensusChoice choice;
  choice.consensus =
      alignment.ConsensusAtThreshold(static_cast<size_t>(best_h));
  choice.cost = best_cost;
  choice.tmpl = Template(choice.consensus);
  choice.alignments =
      AlignAll(choice.tmpl.tokens, candidate_docs, options.scoring, stats);
  ReferenceDetectSlots(choice.tmpl, choice.alignments, cost_model, stats);
  return choice;
}

std::string DiffConsensusChoice(
    const FineClustering::ConsensusChoice& actual,
    const FineClustering::ConsensusChoice& expected) {
  if (actual.consensus != expected.consensus) return "consensus differs";
  if (actual.tmpl.tokens != expected.tmpl.tokens) {
    return "template tokens differ";
  }
  if (actual.tmpl.SlotGaps() != expected.tmpl.SlotGaps()) {
    return "slot gaps differ";
  }
  if (actual.alignments.size() != expected.alignments.size()) {
    return "alignment counts differ";
  }
  for (size_t i = 0; i < actual.alignments.size(); ++i) {
    if (actual.alignments[i].ops != expected.alignments[i].ops) {
      return "alignment of candidate " + std::to_string(i) + " differs";
    }
  }
  if (!SameBits(actual.cost, expected.cost)) return "cost bits differ";
  return "";
}

std::unique_ptr<MsaAligner> BuildCandidateAlignment(
    const std::vector<std::vector<TokenId>>& docs,
    const FineOptions& options) {
  CHECK(!docs.empty());
  std::unique_ptr<MsaAligner> graph;
  switch (options.msa_backend) {
    case MsaBackend::kPoa:
      graph = std::make_unique<PoaGraph>(docs[0], options.scoring);
      break;
    case MsaBackend::kProfile:
      graph = std::make_unique<ProfileMsa>(docs[0], options.scoring);
      break;
  }
  for (size_t i = 1; i < docs.size(); ++i) graph->AddSequence(docs[i]);
  return graph;
}

std::string DiffTemplatesAgainstReference(
    const std::vector<TemplateCluster>& templates, const Corpus& corpus,
    const CostModel& cost_model, const FineOptions& options) {
  const FineClustering fine(options);
  for (size_t t = 0; t < templates.size(); ++t) {
    const TemplateCluster& cluster = templates[t];
    const std::string where = "template " + std::to_string(t) + ": ";
    std::vector<std::vector<TokenId>> docs;
    for (DocId d : cluster.members) docs.push_back(corpus.doc(d).tokens);
    const std::unique_ptr<MsaAligner> graph =
        BuildCandidateAlignment(docs, options);
    const FineClustering::ConsensusChoice choice =
        fine.SearchConsensus(*graph, docs, cost_model);
    const std::string diff = DiffConsensusChoice(
        choice, ReferenceSearchConsensus(*graph, docs, cost_model, options));
    if (!diff.empty()) return where + diff;
    if (choice.tmpl.tokens != cluster.tmpl.tokens ||
        choice.tmpl.SlotGaps() != cluster.tmpl.SlotGaps()) {
      return where + "search does not reproduce the pipeline's template";
    }
    for (size_t m = 0; m < docs.size(); ++m) {
      const DocEncoding encoding = EncodeDocumentWithAlignment(
          choice.tmpl, choice.alignments[m], cost_model);
      const DocEncoding& pipeline = cluster.encodings[m];
      if (!SameBits(encoding.base_cost, pipeline.base_cost) ||
          encoding.slot_words != pipeline.slot_words) {
        return where + "member " + std::to_string(m) +
               "'s encoding differs from the pipeline's";
      }
    }
  }
  return "";
}

}  // namespace infoshield::oracle
