#include "core/fine_clustering.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/slot_analysis.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace infoshield {

void FineStageStats::MergeFrom(const FineStageStats& other) {
  alignments_computed += other.alignments_computed;
  consensus_probes += other.consensus_probes;
  consensus_cache_hits += other.consensus_cache_hits;
  slot_candidates_evaluated += other.slot_candidates_evaluated;
}

double FineStageStats::cache_hit_rate() const {
  if (consensus_probes == 0) return 0.0;
  return static_cast<double>(consensus_cache_hits) /
         static_cast<double>(consensus_probes);
}

namespace {

// Total cluster cost (Definition 1) for a set of accepted templates.
// shapes: (length, slots) per template; encoded_base: per template, the
// sum of its members' AlignmentCostBase; num_encoded: total docs encoded.
double TotalCost(const CostModel& cm, size_t num_docs,
                 const std::vector<std::pair<size_t, size_t>>& shapes,
                 const std::vector<double>& encoded_base, size_t num_encoded,
                 double noise_token_cost) {
  double cost = cm.ModelCost(shapes);
  cost += static_cast<double>(num_docs);  // 1-bit template flag per doc
  cost += noise_token_cost;
  const double lg_t = Log2Bits(shapes.size());
  for (double base : encoded_base) cost += base;
  cost += lg_t * static_cast<double>(num_encoded);
  return cost;
}

}  // namespace

FineClustering::ConsensusChoice FineClustering::EvaluateCandidate(
    const std::vector<TokenId>& consensus,
    const std::vector<std::vector<TokenId>>& docs,
    const CostModel& cost_model, FineStageStats* stats) const {
  ConsensusChoice choice;
  choice.consensus = consensus;
  choice.tmpl = Template(consensus);
  choice.alignments.reserve(docs.size());
  AlignmentWorkspace workspace;
  for (const auto& doc : docs) {
    choice.alignments.push_back(NeedlemanWunsch(choice.tmpl.tokens, doc,
                                                options_.scoring, &workspace));
  }
  if (stats != nullptr) stats->alignments_computed += docs.size();
  std::vector<double> base_costs;
  DetectSlots(choice.tmpl, choice.alignments, cost_model, stats, &base_costs);
  // Template cost first, then per-document bases — floating-point
  // addition is not associative, and the reference costing
  // (tests/oracle/) must match bit for bit (DESIGN.md §10).
  choice.cost =
      cost_model.TemplateCost(choice.tmpl.length(), choice.tmpl.num_slots());
  for (double base : base_costs) choice.cost += base;
  return choice;
}

FineClustering::ConsensusChoice FineClustering::SearchConsensus(
    const MsaAligner& alignment,
    const std::vector<std::vector<TokenId>>& candidate_docs,
    const CostModel& cost_model, FineStageStats* stats) const {
  const size_t n = candidate_docs.size();
  CHECK_GE(n, 1u);
  const int64_t h_max = static_cast<int64_t>(n) - 1;

  // Distinct thresholds frequently select the same sub-alignment
  // (supports are integers in [0, n); near-duplicate candidate sets
  // concentrate them at the extremes), so probe results are cached at
  // two levels: per threshold, and per distinct consensus sequence. A
  // consensus-level hit reuses every member alignment and the detected
  // slots. The map is ordered to keep the code free of hash-order
  // pitfalls; it is lookup-only either way.
  std::map<std::vector<TokenId>, ConsensusChoice> by_consensus;
  std::unordered_map<int64_t, double> cache;
  auto eval = [&](int64_t h) -> double {
    h = std::clamp<int64_t>(h, 0, h_max);
    auto it = cache.find(h);
    if (it != cache.end()) return it->second;
    std::vector<TokenId> consensus =
        alignment.ConsensusAtThreshold(static_cast<size_t>(h));
    if (stats != nullptr) ++stats->consensus_probes;
    double cost;
    auto found = by_consensus.find(consensus);
    if (found != by_consensus.end()) {
      if (stats != nullptr) ++stats->consensus_cache_hits;
      cost = found->second.cost;
    } else {
      ConsensusChoice evaluated =
          EvaluateCandidate(consensus, candidate_docs, cost_model, stats);
      cost = evaluated.cost;
      by_consensus.emplace(std::move(consensus), std::move(evaluated));
    }
    cache.emplace(h, cost);
    return cost;
  };

  int64_t best_h = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  auto consider = [&](int64_t h) {
    h = std::clamp<int64_t>(h, 0, h_max);
    double c = eval(h);
    if (c < best_cost || (c == best_cost && h < best_h)) {
      best_cost = c;
      best_h = h;
    }
  };

  if (options_.exhaustive_consensus_search) {
    for (int64_t h = 0; h <= h_max; ++h) consider(h);
  } else {
    // Dichotomous search (Algorithm 2), plus argmin over all probes.
    int64_t lo = 0;
    int64_t hi = h_max;
    while (lo < hi) {
      int64_t mid = (lo + hi) / 2;
      double left = eval(mid - 1);
      double right = eval(mid + 1);
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

  auto found = by_consensus.find(
      alignment.ConsensusAtThreshold(static_cast<size_t>(best_h)));
  CHECK(found != by_consensus.end());
  return std::move(found->second);
}

namespace {

// Candidate gaps: positions that accumulate inserted or substituted
// words across the candidate alignments (Algorithm 3's dictionary P),
// ascending.
std::vector<size_t> CandidateGaps(const std::vector<Alignment>& alignments) {
  std::vector<size_t> candidates;
  for (const Alignment& a : alignments) {
    size_t x = 0;
    for (const AlignOp& op : a.ops) {
      switch (op.type) {
        case AlignOpType::kInsert:
        case AlignOpType::kSubstitute:
          candidates.push_back(x);
          break;
        case AlignOpType::kMatch:
        case AlignOpType::kDelete:
          ++x;
          break;
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

}  // namespace

void FineClustering::DetectSlots(Template& tmpl,
                                 const std::vector<Alignment>& alignments,
                                 const CostModel& cost_model,
                                 FineStageStats* stats,
                                 std::vector<double>* final_base_costs) const {
  // One O(length) walk per alignment captures everything the cost of any
  // slot mask depends on; every probe below is pure integer bookkeeping
  // plus one AlignmentCostBase call per document (see slot_analysis.h
  // and DESIGN.md §10 for the algebra and its exactness argument).
  std::vector<GapCostProfile> profiles;
  profiles.reserve(alignments.size());
  for (const Alignment& a : alignments) {
    profiles.push_back(BuildGapCostProfile(a));
  }
  const std::vector<size_t> candidates = CandidateGaps(alignments);
  if (stats != nullptr) stats->slot_candidates_evaluated += candidates.size();

  std::vector<size_t> enabled = tmpl.SlotGaps();
  // Matches the reference costing's accumulation exactly: per-document
  // bases summed from zero in document order, then the model cost added.
  auto total_cost = [&](const std::vector<size_t>& slot_gaps) {
    double data = 0.0;
    for (const GapCostProfile& p : profiles) {
      data += cost_model.AlignmentCostBase(SummaryForSlotMask(p, slot_gaps));
    }
    return data + cost_model.TemplateCost(tmpl.length(), slot_gaps.size());
  };

  double current = total_cost(enabled);
  std::vector<size_t> trial;
  for (size_t gap : candidates) {
    trial = enabled;
    trial.insert(std::lower_bound(trial.begin(), trial.end(), gap), gap);
    const double with_slot = total_cost(trial);
    if (with_slot < current) {
      current = with_slot;
      enabled.swap(trial);
      tmpl.SetSlotAtGap(gap, true);
    }
  }
  if (final_base_costs != nullptr) {
    final_base_costs->clear();
    final_base_costs->reserve(profiles.size());
    for (const GapCostProfile& p : profiles) {
      final_base_costs->push_back(
          cost_model.AlignmentCostBase(SummaryForSlotMask(p, enabled)));
    }
  }
}

FineResult FineClustering::RunOnCluster(
    const Corpus& corpus, const std::vector<DocId>& doc_ids,
    const CostModel& cm,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases) const {
  FineResult result;
  const size_t num_docs = doc_ids.size();
  if (num_docs == 0) return result;

  // Phrase -> member documents (cluster order), for neighbor seeding.
  std::unordered_map<PhraseHash, std::vector<DocId>> phrase_to_docs;
  if (doc_top_phrases != nullptr) {
    for (DocId d : doc_ids) {
      for (PhraseHash p : (*doc_top_phrases)[d]) {
        phrase_to_docs[p].push_back(d);
      }
    }
  }

  // Cost of the cluster with zero templates.
  double all_unencoded = 0.0;
  for (DocId id : doc_ids) {
    all_unencoded += cm.UnencodedDocCost(corpus.doc(id).length());
  }
  result.cost_before =
      TotalCost(cm, num_docs, {}, {}, 0, all_unencoded);

  // Documents are processed in cluster order; claimed marks documents
  // already owned by a template or rejected as noise (indexed by the
  // document's position within the cluster, so memory stays O(cluster)).
  std::unordered_map<DocId, uint32_t> local_index;
  local_index.reserve(doc_ids.size());
  for (size_t i = 0; i < doc_ids.size(); ++i) {
    local_index.emplace(doc_ids[i], static_cast<uint32_t>(i));
  }
  std::vector<char> claimed(doc_ids.size(), 0);
  auto is_claimed = [&](DocId d) { return claimed[local_index.at(d)] != 0; };
  std::vector<std::pair<size_t, size_t>> shapes;   // accepted (len, slots)
  std::vector<double> encoded_base;                // per-template Σ base
  size_t num_encoded = 0;
  // Undecided documents are carried as unencoded in every total so that
  // successive totals stay comparable; as documents are claimed by a
  // template or rejected as noise, their cost moves between the pool and
  // the other terms.
  double pending_token_cost = all_unencoded;
  double noise_token_cost = 0.0;
  double best_total = result.cost_before;

  for (size_t cursor = 0; cursor < doc_ids.size(); ++cursor) {
    const DocId seed = doc_ids[cursor];
    if (claimed[cursor]) continue;
    const std::vector<TokenId>& seed_tokens = corpus.doc(seed).tokens;

    // --- Candidate Alignment (§IV-B1) ---
    // The scan pool is either every unclaimed document after the seed,
    // or — when the coarse stage's top phrases are available — only the
    // seed's phrase-sharing neighbors (see RunOnCluster's doc comment).
    std::vector<DocId> pool;
    if (doc_top_phrases != nullptr) {
      std::unordered_set<DocId> neighbor_set;
      for (PhraseHash p : (*doc_top_phrases)[seed]) {
        auto it = phrase_to_docs.find(p);
        if (it == phrase_to_docs.end()) continue;
        for (DocId d : it->second) {
          if (d != seed && !is_claimed(d)) neighbor_set.insert(d);
        }
      }
      // determinism: unordered gather, sorted before use on the next line.
      pool.assign(neighbor_set.begin(), neighbor_set.end());
      std::sort(pool.begin(), pool.end());
    } else {
      for (size_t i = cursor + 1; i < doc_ids.size(); ++i) {
        if (!claimed[i]) pool.push_back(doc_ids[i]);
      }
    }

    std::vector<DocId> member_ids{seed};
    std::vector<std::vector<TokenId>> member_docs{seed_tokens};
    std::unique_ptr<MsaAligner> graph;
    switch (options_.msa_backend) {
      case MsaBackend::kPoa:
        graph = std::make_unique<PoaGraph>(seed_tokens, options_.scoring);
        break;
      case MsaBackend::kProfile:
        graph = std::make_unique<ProfileMsa>(seed_tokens, options_.scoring);
        break;
    }
    // The seed-vs-pool probes are independent, so the conditional costs
    // can be computed across scan_threads workers; each probe writes its
    // own pre-sized slot and the membership decisions (and POA fusion)
    // happen sequentially afterward in pool order, so the result is
    // byte-identical for any thread count. The probes align with the
    // configured scoring, as the MSA and the consensus search do.
    Template seed_template(seed_tokens);
    std::vector<double> conditional(pool.size(), 0.0);
    ThreadPool::ParallelFor(options_.scan_threads, pool.size(), [&](size_t i) {
      const std::vector<TokenId>& tokens = corpus.doc(pool[i]).tokens;
      const Alignment alignment =
          NeedlemanWunsch(seed_tokens, tokens, options_.scoring);
      DocEncoding enc = EncodeDocumentWithAlignment(seed_template, alignment,
                                                    cm);
      conditional[i] = cm.EncodedDocCost(1, enc.summary);
    });
    result.stats.alignments_computed += pool.size();
    for (size_t i = 0; i < pool.size(); ++i) {
      const DocId d = pool[i];
      const std::vector<TokenId>& tokens = corpus.doc(d).tokens;
      if (conditional[i] < cm.UnencodedDocCost(tokens.size())) {
        member_ids.push_back(d);
        member_docs.push_back(tokens);
        graph->AddSequence(tokens);
      }
    }

    // Claim the candidate set and move its cost out of the pending pool.
    double member_unencoded = 0.0;
    for (DocId d : member_ids) {
      member_unencoded += cm.UnencodedDocCost(corpus.doc(d).length());
      claimed[local_index.at(d)] = 1;
    }
    pending_token_cost -= member_unencoded;

    // Rejection keeps the total unchanged: the members' unencoded cost
    // simply moves from the pending pool to the noise term.
    auto reject_as_noise = [&]() {
      for (DocId d : member_ids) result.noise.push_back(d);
      noise_token_cost += member_unencoded;
    };

    if (member_ids.size() < options_.min_template_support) {
      reject_as_noise();
      continue;
    }

    // --- Consensus Search (Algorithm 2) + Slot Detection (Algorithm 3) ---
    // The winning probe already aligned every member and detected slots;
    // SearchConsensus hands all of it back, so nothing is recomputed.
    ConsensusChoice choice =
        SearchConsensus(*graph, member_docs, cm, &result.stats);
    if (choice.consensus.empty()) {
      reject_as_noise();
      continue;
    }
    Template tmpl = std::move(choice.tmpl);

    std::vector<DocEncoding> encodings;
    double base_sum = 0.0;
    encodings.reserve(member_docs.size());
    for (const Alignment& a : choice.alignments) {
      encodings.push_back(EncodeDocumentWithAlignment(tmpl, a, cm));
      base_sum += encodings.back().base_cost;
    }

    // --- MDL acceptance (Algorithm 4) ---
    std::vector<std::pair<size_t, size_t>> new_shapes = shapes;
    new_shapes.emplace_back(tmpl.length(), tmpl.num_slots());
    std::vector<double> new_encoded = encoded_base;
    new_encoded.push_back(base_sum);
    const double candidate_total =
        TotalCost(cm, num_docs, new_shapes, new_encoded,
                  num_encoded + member_ids.size(),
                  noise_token_cost + pending_token_cost);

    if (candidate_total < best_total) {
      best_total = candidate_total;
      shapes = std::move(new_shapes);
      encoded_base = std::move(new_encoded);
      num_encoded += member_ids.size();
      TemplateCluster cluster;
      cluster.tmpl = std::move(tmpl);
      cluster.members = std::move(member_ids);
      cluster.encodings = std::move(encodings);
      result.templates.push_back(std::move(cluster));
    } else {
      reject_as_noise();
    }
  }

  result.cost_after = best_total;
  // Canonical emission order: rejected documents accumulate in seed-scan
  // order, which depends on how earlier templates carved up the cluster;
  // sorting makes the noise list (and anything downstream that prints
  // it) independent of that history.
  std::sort(result.noise.begin(), result.noise.end());
  INFOSHIELD_AUDIT_INVARIANTS(ValidateFineResult(result, corpus, doc_ids, &cm));
  return result;
}

Status ValidateTemplateCluster(const TemplateCluster& cluster,
                               const Corpus& corpus,
                               const CostModel* cost_model) {
  INFOSHIELD_RETURN_IF_ERROR(cluster.tmpl.ValidateInvariants());
  audit::Auditor a("TemplateCluster");
  a.Expect(cluster.encodings.size() == cluster.members.size(),
           StrFormat("%zu encodings for %zu members",
                     cluster.encodings.size(), cluster.members.size()));
  std::unordered_set<DocId> seen;
  for (DocId d : cluster.members) {
    a.Expect(d < corpus.size(),
             StrFormat("member %u outside the %zu-document corpus", d,
                       corpus.size()));
    a.Expect(seen.insert(d).second, StrFormat("member %u listed twice", d));
  }
  INFOSHIELD_RETURN_IF_ERROR(a.Finish());
  for (size_t i = 0; i < cluster.members.size(); ++i) {
    INFOSHIELD_RETURN_IF_ERROR(
        ValidateDocEncoding(cluster.tmpl, corpus.doc(cluster.members[i]).tokens,
                            cluster.encodings[i], cost_model));
  }
  return Status::Ok();
}

Status ValidateFineResult(const FineResult& result, const Corpus& corpus,
                          const std::vector<DocId>& cluster_docs,
                          const CostModel* cost_model) {
  for (const TemplateCluster& tc : result.templates) {
    INFOSHIELD_RETURN_IF_ERROR(
        ValidateTemplateCluster(tc, corpus, cost_model));
  }
  audit::Auditor a("FineResult");
  std::unordered_set<DocId> assigned;
  for (const TemplateCluster& tc : result.templates) {
    for (DocId d : tc.members) {
      a.Expect(assigned.insert(d).second,
               StrFormat("document %u claimed by two templates", d));
    }
  }
  for (DocId d : result.noise) {
    a.Expect(assigned.insert(d).second,
             StrFormat("noise document %u also claimed by a template", d));
  }
  std::unordered_set<DocId> expected(cluster_docs.begin(), cluster_docs.end());
  a.Expect(assigned == expected,
           StrFormat("templates + noise cover %zu documents, cluster has "
                     "%zu",
                     assigned.size(), expected.size()));
  a.Expect(std::isfinite(result.cost_before) && result.cost_before >= 0.0,
           "cost_before is negative or non-finite");
  a.Expect(std::isfinite(result.cost_after) && result.cost_after >= 0.0,
           "cost_after is negative or non-finite");
  a.Expect(result.cost_after <= result.cost_before,
           "accepted model costs more than the empty model");
  return a.Finish();
}

}  // namespace infoshield
