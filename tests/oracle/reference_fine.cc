#include "oracle/reference_fine.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "mdl/universal_code.h"
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
    const PoaGraph& alignment,
    const std::vector<std::vector<TokenId>>& candidate_docs,
    const CostModel& cost_model, const FineOptions& options,
    SearchMode mode, FineStageStats* stats) {
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

  if (mode == SearchMode::kExhaustive) {
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

PoaGraph BuildCandidateAlignment(
    const std::vector<std::vector<TokenId>>& docs,
    const FineOptions& options) {
  CHECK(!docs.empty());
  PoaGraph graph(docs[0], options.scoring);
  for (size_t i = 1; i < docs.size(); ++i) graph.AddSequence(docs[i]);
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
    const PoaGraph graph = BuildCandidateAlignment(docs, options);
    const FineClustering::ConsensusChoice choice =
        fine.SearchConsensus(graph, docs, cost_model);
    const std::string diff = DiffConsensusChoice(
        choice, ReferenceSearchConsensus(graph, docs, cost_model, options,
                                         SearchMode::kDichotomous));
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

FineResult ReferenceAcceptance(
    const Corpus& corpus, const std::vector<DocId>& doc_ids,
    const CostModel& cost_model, const FineOptions& options,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases) {
  FineResult result;
  const size_t num_docs = doc_ids.size();
  if (num_docs == 0) return result;

  std::map<PhraseHash, std::vector<DocId>> phrase_to_docs;
  if (doc_top_phrases != nullptr) {
    for (DocId d : doc_ids) {
      for (PhraseHash p : (*doc_top_phrases)[d]) {
        phrase_to_docs[p].push_back(d);
      }
    }
  }
  std::map<DocId, bool> claimed;
  for (DocId d : doc_ids) claimed[d] = false;

  // An accepted template as the total sees it.
  struct Accepted {
    double template_cost;
    double encoded_base;
    size_t members;
  };
  auto total_cost = [&](const std::vector<Accepted>& model,
                        double unencoded) {
    double template_cost_sum = 0.0;
    double encoded_base_sum = 0.0;
    size_t num_encoded = 0;
    for (const Accepted& t : model) {
      template_cost_sum += t.template_cost;
      encoded_base_sum += t.encoded_base;
      num_encoded += t.members;
    }
    double cost = UniversalCodeLength(model.size()) + template_cost_sum;
    cost += static_cast<double>(num_docs);
    cost += unencoded;
    cost += encoded_base_sum;
    cost += Log2Bits(model.size()) * static_cast<double>(num_encoded);
    return cost;
  };

  double all_unencoded = 0.0;
  for (DocId d : doc_ids) {
    all_unencoded += cost_model.UnencodedDocCost(corpus.doc(d).length());
  }
  result.cost_before = total_cost({}, all_unencoded);
  double best_total = result.cost_before;
  double pending_token_cost = all_unencoded;
  double noise_token_cost = 0.0;
  std::vector<Accepted> accepted;
  const FineClustering fine(options);

  for (size_t cursor = 0; cursor < num_docs; ++cursor) {
    const DocId seed = doc_ids[cursor];
    if (claimed[seed]) continue;
    std::vector<DocId> pool;
    if (doc_top_phrases != nullptr) {
      std::set<DocId> neighbors;
      for (PhraseHash p : (*doc_top_phrases)[seed]) {
        for (DocId d : phrase_to_docs[p]) {
          if (d != seed && !claimed[d]) neighbors.insert(d);
        }
      }
      pool.assign(neighbors.begin(), neighbors.end());
    } else {
      for (size_t i = cursor + 1; i < num_docs; ++i) {
        if (!claimed[doc_ids[i]]) pool.push_back(doc_ids[i]);
      }
    }

    const Template seed_template(corpus.doc(seed).tokens);
    std::vector<DocId> members{seed};
    for (DocId d : pool) {
      const std::vector<TokenId>& tokens = corpus.doc(d).tokens;
      const DocEncoding encoding = EncodeDocumentWithAlignment(
          seed_template,
          NeedlemanWunsch(seed_template.tokens, tokens, options.scoring),
          cost_model);
      if (cost_model.EncodedDocCost(1, encoding.summary) <
          cost_model.UnencodedDocCost(tokens.size())) {
        members.push_back(d);
      }
    }
    result.stats.alignments_computed += pool.size();
    double members_unencoded = 0.0;
    for (DocId d : members) {
      members_unencoded += cost_model.UnencodedDocCost(corpus.doc(d).length());
      claimed[d] = true;
    }
    pending_token_cost -= members_unencoded;

    if (members.size() >= kMinTemplateSupport) {
      std::vector<std::vector<TokenId>> docs;
      for (DocId d : members) docs.push_back(corpus.doc(d).tokens);
      const PoaGraph graph = BuildCandidateAlignment(docs, options);
      const FineClustering::ConsensusChoice choice =
          fine.SearchConsensus(graph, docs, cost_model, &result.stats);
      if (!choice.consensus.empty()) {
        TemplateCluster cluster;
        cluster.tmpl = choice.tmpl;
        double encoded_base = 0.0;
        for (const Alignment& a : choice.alignments) {
          cluster.encodings.push_back(
              EncodeDocumentWithAlignment(cluster.tmpl, a, cost_model));
          encoded_base += cluster.encodings.back().base_cost;
        }
        std::vector<Accepted> model = accepted;
        model.push_back({cost_model.TemplateCost(cluster.tmpl.length(),
                                                 cluster.tmpl.num_slots()),
                         encoded_base, members.size()});
        const double candidate_total =
            total_cost(model, noise_token_cost + pending_token_cost);
        if (candidate_total < best_total) {
          best_total = candidate_total;
          accepted = std::move(model);
          cluster.members = std::move(members);
          result.templates.push_back(std::move(cluster));
          continue;
        }
      }
    }
    result.noise.insert(result.noise.end(), members.begin(), members.end());
    noise_token_cost += members_unencoded;
  }
  result.cost_after = best_total;
  std::sort(result.noise.begin(), result.noise.end());
  return result;
}

std::string DiffFineResults(const FineResult& actual,
                            const FineResult& expected) {
  if (actual.templates.size() != expected.templates.size()) {
    return "template counts differ: " +
           std::to_string(actual.templates.size()) + " vs " +
           std::to_string(expected.templates.size());
  }
  for (size_t t = 0; t < actual.templates.size(); ++t) {
    const TemplateCluster& a = actual.templates[t];
    const TemplateCluster& e = expected.templates[t];
    const std::string where = "template " + std::to_string(t) + ": ";
    if (a.tmpl.tokens != e.tmpl.tokens) return where + "tokens differ";
    if (a.tmpl.SlotGaps() != e.tmpl.SlotGaps()) {
      return where + "slot gaps differ";
    }
    if (a.members != e.members) return where + "members differ";
    if (a.encodings.size() != e.encodings.size()) {
      return where + "encoding counts differ";
    }
    for (size_t m = 0; m < a.encodings.size(); ++m) {
      if (!SameBits(a.encodings[m].base_cost, e.encodings[m].base_cost) ||
          a.encodings[m].slot_words != e.encodings[m].slot_words) {
        return where + "member " + std::to_string(m) + "'s encoding differs";
      }
    }
  }
  if (actual.noise != expected.noise) return "noise differs";
  if (!SameBits(actual.cost_before, expected.cost_before)) {
    return "cost_before bits differ";
  }
  if (!SameBits(actual.cost_after, expected.cost_after)) {
    return "cost_after bits differ";
  }
  const FineStageStats& a = actual.stats;
  const FineStageStats& e = expected.stats;
  // Production skips the scan alignments its bag-of-words bound rules
  // out and the reference computes every one; each side's computed plus
  // skipped alignments is the same count.
  if (a.alignments_computed + a.scan_alignments_skipped !=
          e.alignments_computed + e.scan_alignments_skipped ||
      a.consensus_probes != e.consensus_probes ||
      a.consensus_cache_hits != e.consensus_cache_hits ||
      a.slot_candidates_evaluated != e.slot_candidates_evaluated) {
    return "stats differ";
  }
  return "";
}

}  // namespace infoshield::oracle
