#include "core/fine_clustering.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <unordered_set>
#include <utility>

#include "core/slot_analysis.h"
#include "tfidf/df_count.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace infoshield {

void FineStageStats::MergeFrom(const FineStageStats& other) {
  alignments_computed += other.alignments_computed;
  scan_alignments_skipped += other.scan_alignments_skipped;
  consensus_probes += other.consensus_probes;
  consensus_cache_hits += other.consensus_cache_hits;
  slot_candidates_evaluated += other.slot_candidates_evaluated;
  dp_cells += other.dp_cells;
}

double FineStageStats::cache_hit_rate() const {
  if (consensus_probes == 0) return 0.0;
  return static_cast<double>(consensus_cache_hits) /
         static_cast<double>(consensus_probes);
}

double ClaimCostLowerBound(const CostModel& cost_model, size_t seed_length,
                           size_t doc_length, size_t overlap) {
  EncodingSummary summary;
  summary.alignment_length = std::max(seed_length, doc_length);
  summary.unmatched = summary.alignment_length - overlap;
  summary.inserted_or_substituted = doc_length - overlap;
  return cost_model.EncodedDocCost(1, summary);
}

void TokenBag::Assign(const std::vector<TokenId>& tokens) {
  size_t capacity = 8;
  while (capacity < 2 * tokens.size()) capacity *= 2;
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const TokenId token : tokens) {
    size_t i = FibonacciSlot(token, shift_);
    while (slots_[i].count != 0 && slots_[i].token != token) {
      i = (i + 1) & mask;
    }
    slots_[i].token = token;
    ++slots_[i].count;
  }
}

size_t TokenBag::Find(TokenId token) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = FibonacciSlot(token, shift_);; i = (i + 1) & mask) {
    if (slots_[i].count == 0) return slots_.size();
    if (slots_[i].token == token) return i;
  }
}

size_t TokenBag::Overlap(const std::vector<TokenId>& tokens) {
  if (slots_.empty()) return 0;
  size_t overlap = 0;
  for (const TokenId token : tokens) {
    const size_t i = Find(token);
    if (i == slots_.size()) continue;
    Slot& slot = slots_[i];
    if (slot.used == 0) touched_.push_back(i);
    if (slot.used < slot.count) {
      ++slot.used;
      ++overlap;
    }
  }
  for (const size_t i : touched_) slots_[i].used = 0;
  touched_.clear();
  return overlap;
}

namespace {

// Total cluster cost (Definition 1) of a model of `num_templates`
// accepted templates. Their TemplateCost values and their members'
// summed base costs arrive as running sums, each a left fold from 0.0 in
// acceptance order, so one acceptance test is O(1); the terms are added
// in the order below (DESIGN.md §10), which the test-only reference
// (tests/oracle/reference_fine.h) recomputes from the full accepted
// list for every seed.
double TotalCost(size_t num_docs, size_t num_templates,
                 double template_cost_sum, double encoded_base_sum,
                 size_t num_encoded, double unencoded_cost) {
  double cost = UniversalCodeLength(num_templates) + template_cost_sum;
  cost += static_cast<double>(num_docs);  // 1-bit template flag per doc
  cost += unencoded_cost;
  cost += encoded_base_sum;
  cost += Log2Bits(num_templates) * static_cast<double>(num_encoded);
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
  if (stats != nullptr) {
    stats->alignments_computed += docs.size();
    stats->dp_cells += workspace.cells;
  }
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
    const PoaGraph& alignment,
    const std::vector<std::vector<TokenId>>& candidate_docs,
    const CostModel& cost_model, FineStageStats* stats) const {
  const size_t n = candidate_docs.size();
  CHECK_GE(n, 1u);
  const int64_t h_max = static_cast<int64_t>(n) - 1;

  // Distinct thresholds frequently select the same sub-alignment
  // (supports are integers in [0, n); near-duplicate candidate sets
  // concentrate them at the extremes), so probe results are cached at
  // two levels: per threshold, and per distinct consensus. Sel(A, h)
  // keeps the nodes with support > h, so the node sets shrink as h
  // grows: two consensuses of one graph have equal length only when they
  // are the same node set, and the length identifies the consensus. A
  // consensus-level hit reuses every member alignment and the detected
  // slots.
  std::vector<ConsensusChoice> evaluated;
  std::vector<int32_t> choice_at(static_cast<size_t>(n), -1);
  auto eval = [&](int64_t h) -> double {
    h = std::clamp<int64_t>(h, 0, h_max);
    int32_t& choice = choice_at[static_cast<size_t>(h)];
    if (choice >= 0) return evaluated[static_cast<size_t>(choice)].cost;
    std::vector<TokenId> consensus =
        alignment.ConsensusAtThreshold(static_cast<size_t>(h));
    if (stats != nullptr) ++stats->consensus_probes;
    for (size_t k = 0; k < evaluated.size(); ++k) {
      if (evaluated[k].consensus.size() == consensus.size()) {
        choice = static_cast<int32_t>(k);
        break;
      }
    }
    if (choice >= 0) {
      if (stats != nullptr) ++stats->consensus_cache_hits;
    } else {
      choice = static_cast<int32_t>(evaluated.size());
      evaluated.push_back(
          EvaluateCandidate(consensus, candidate_docs, cost_model, stats));
    }
    return evaluated[static_cast<size_t>(choice)].cost;
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

  const int32_t winner = choice_at[static_cast<size_t>(best_h)];
  CHECK_GE(winner, 0);
  return std::move(evaluated[static_cast<size_t>(winner)]);
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

namespace {

// A scan skips its alignment only when ClaimCostLowerBound exceeds C(d)
// by this fraction of C(d), far above the rounding of either side, so
// rounding can never skip a document the alignment would admit.
constexpr double kScanBoundMargin = 1e-9;

// Phase (b)'s template for one claim that reaches kMinTemplateSupport.
struct Candidate {
  // False when the consensus search found no non-empty consensus.
  bool found = false;
  Template tmpl;
  // Parallel to the claim's members.
  std::vector<DocEncoding> encodings;
  // Σ encodings' base_cost, folded from 0.0 in member order.
  double encoded_base = 0.0;
  FineStageStats stats;
};

// Everything one cluster carries from phase (a) to phase (c).
struct ClusterClaims {
  // Every document of the cluster, claim by claim: seed s owns
  // members[offsets[s], offsets[s + 1]), the seed first and then its
  // admitted pool documents in pool order. Sized to the cluster before
  // the walk, so a published claim never moves.
  std::vector<DocId> members;
  std::vector<uint32_t> offsets;
  // Per seed, Σ UnencodedDocCost over its claim, folded from 0.0 in
  // member order.
  std::vector<double> seed_unencoded;
  // Σ UnencodedDocCost over the cluster, folded in cluster order.
  double unencoded = 0.0;
  // The candidate scans' alignments.
  FineStageStats stats;
};

// Phase (a): Algorithm 4's cursor walk without the MSA. Each unclaimed
// seed, in cluster order, gathers its scan pool, aligns the seed against
// every pool document and claims itself plus each document that encodes
// more cheaply against the seed than alone. Acceptance never un-claims
// a document, so a claim is final once its seed's scan ends: the walk
// then hands each claim that reaches kMinTemplateSupport to publish.
// Documents are addressed by cluster position, so all state is flat and
// O(cluster); `claims` is filled in place.
void ClaimSeeds(const Corpus& corpus, const std::vector<DocId>& doc_ids,
                const CostModel& cm, const AlignmentScoring& scoring,
                const std::vector<std::vector<PhraseHash>>* doc_top_phrases,
                ClusterClaims* claims,
                const std::function<void(std::span<const DocId>)>& publish) {
  const size_t n = doc_ids.size();
  for (DocId id : doc_ids) {
    claims->unencoded += cm.UnencodedDocCost(corpus.doc(id).length());
  }
  claims->members.resize(n);
  claims->offsets.assign(1, 0);

  // Phrase -> cluster positions as CSR, built from sorted (phrase,
  // position) pairs: positions[offsets[k], offsets[k+1]) hold phrases[k]'s
  // documents in ascending cluster position.
  std::vector<PhraseHash> phrases;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> positions;
  if (doc_top_phrases != nullptr) {
    std::vector<std::pair<PhraseHash, uint32_t>> postings;
    for (size_t i = 0; i < n; ++i) {
      for (PhraseHash p : (*doc_top_phrases)[doc_ids[i]]) {
        postings.emplace_back(p, static_cast<uint32_t>(i));
      }
    }
    std::sort(postings.begin(), postings.end());
    positions.reserve(postings.size());
    for (const auto& [phrase, position] : postings) {
      if (phrases.empty() || phrases.back() != phrase) {
        phrases.push_back(phrase);
        offsets.push_back(static_cast<uint32_t>(positions.size()));
      }
      positions.push_back(position);
    }
    offsets.push_back(static_cast<uint32_t>(positions.size()));
  }

  std::vector<char> claimed(n, 0);
  // stamp[i] == cursor + 1 once seed `cursor` has gathered position i.
  std::vector<uint32_t> stamp(n, 0);
  std::vector<uint32_t> pool;
  TokenBag seed_bag;
  size_t aligned = 0;
  size_t skipped = 0;
  size_t filled = 0;  // members claimed so far
  AlignmentWorkspace workspace;
  for (size_t cursor = 0; cursor < n; ++cursor) {
    if (claimed[cursor]) continue;
    const DocId seed = doc_ids[cursor];
    const std::vector<TokenId>& seed_tokens = corpus.doc(seed).tokens;

    // --- Candidate Alignment (§IV-B1) ---
    // The scan pool is either every unclaimed document after the seed,
    // or — when the coarse stage's top phrases are available — only the
    // seed's phrase-sharing neighbors (see RunOnCluster's doc comment),
    // in ascending DocId order.
    pool.clear();
    if (doc_top_phrases != nullptr) {
      const uint32_t mark = static_cast<uint32_t>(cursor) + 1;
      for (PhraseHash p : (*doc_top_phrases)[seed]) {
        const size_t k = static_cast<size_t>(
            std::lower_bound(phrases.begin(), phrases.end(), p) -
            phrases.begin());
        for (uint32_t j = offsets[k]; j < offsets[k + 1]; ++j) {
          const uint32_t i = positions[j];
          if (i == cursor || claimed[i] || stamp[i] == mark) continue;
          stamp[i] = mark;
          pool.push_back(i);
        }
      }
      std::sort(pool.begin(), pool.end(), [&doc_ids](uint32_t a, uint32_t b) {
        return doc_ids[a] < doc_ids[b];
      });
    } else {
      for (size_t i = cursor + 1; i < n; ++i) {
        if (!claimed[i]) pool.push_back(static_cast<uint32_t>(i));
      }
    }

    // Each probe costs the document against the slot-free seed template:
    // the empty-mask summary holds the integers a full DocEncoding would
    // count (DESIGN.md §10), so the cost bits are the same. Probes align
    // with the configured scoring, as the MSA and the consensus search do.
    // A probe whose bag-of-words bound already fails the test skips its
    // alignment: the document could never have been admitted.
    const size_t begin = filled;
    claims->members[filled++] = seed;
    claimed[cursor] = 1;
    seed_bag.Assign(seed_tokens);
    for (uint32_t i : pool) {
      const std::vector<TokenId>& tokens = corpus.doc(doc_ids[i]).tokens;
      const double unencoded = cm.UnencodedDocCost(tokens.size());
      if (ClaimCostLowerBound(cm, seed_tokens.size(), tokens.size(),
                              seed_bag.Overlap(tokens)) >=
          unencoded + kScanBoundMargin * unencoded) {
        ++skipped;
        continue;
      }
      ++aligned;
      const Alignment alignment =
          NeedlemanWunsch(seed_tokens, tokens, scoring, &workspace);
      const double conditional = cm.EncodedDocCost(
          1, SummaryForSlotMask(BuildGapCostProfile(alignment), {}));
      if (conditional < unencoded) {
        claims->members[filled++] = doc_ids[i];
        claimed[i] = 1;
      }
    }
    const std::span<const DocId> claim(claims->members.data() + begin,
                                       filled - begin);
    double claim_unencoded = 0.0;
    for (DocId d : claim) {
      claim_unencoded += cm.UnencodedDocCost(corpus.doc(d).length());
    }
    claims->seed_unencoded.push_back(claim_unencoded);
    claims->offsets.push_back(static_cast<uint32_t>(filled));
    if (claim.size() >= kMinTemplateSupport) publish(claim);
  }
  claims->stats.alignments_computed = aligned;
  claims->stats.scan_alignments_skipped = skipped;
  claims->stats.dp_cells = workspace.cells;
}

// Phase (b) for one claim: steps 1 (the MSA), 2 and 3 of the header
// comment. The MSA fuses the members in claim order, exactly as the
// scan admitted them.
Candidate ProposeTemplate(const FineClustering& fine, const Corpus& corpus,
                          std::span<const DocId> members,
                          const CostModel& cm) {
  Candidate candidate;
  std::vector<std::vector<TokenId>> member_docs;
  member_docs.reserve(members.size());
  for (DocId d : members) member_docs.push_back(corpus.doc(d).tokens);
  PoaGraph graph(member_docs[0], fine.options().scoring);
  for (size_t m = 1; m < member_docs.size(); ++m) {
    graph.AddSequence(member_docs[m]);
  }
  candidate.stats.dp_cells += graph.dp_cells();
  // The winning probe already aligned every member and detected slots;
  // SearchConsensus hands all of it back, so nothing is recomputed.
  FineClustering::ConsensusChoice choice =
      fine.SearchConsensus(graph, member_docs, cm, &candidate.stats);
  if (choice.consensus.empty()) return candidate;
  candidate.found = true;
  candidate.tmpl = std::move(choice.tmpl);
  candidate.encodings.reserve(choice.alignments.size());
  for (const Alignment& a : choice.alignments) {
    candidate.encodings.push_back(
        EncodeDocumentWithAlignment(candidate.tmpl, a, cm));
    candidate.encoded_base += candidate.encodings.back().base_cost;
  }
  return candidate;
}

// One claim that reaches kMinTemplateSupport, from its walk to its
// acceptance: the claim's span of its cluster's member array, and the
// candidate phase (b) makes of it.
struct CandidateTask {
  // analyzer: borrows(members) -- its cluster's ClusterClaims::members,
  // sized before the walk and never resized, which lives until the
  // cluster's acceptance, after the fork-join in which ProposeTemplate,
  // the span's one reader, runs.
  std::span<const DocId> members;
  // Held by pointer: the table is sized by the bound in RunOnClusters,
  // which most clusters stay far below, so most entries stay empty.
  std::unique_ptr<Candidate> candidate;
};

// Phase (c): Algorithm 4's acceptance test, replayed in seed order.
// `tasks` is the cluster's part of the task table: its first entries
// hold phase (b)'s result for each seed with at least
// kMinTemplateSupport members, in seed order. Undecided documents are
// carried as unencoded in every total so that successive totals stay
// comparable; as each seed's members are claimed by a template or
// rejected as noise, their cost moves out of the pending pool. Takes the
// claims by value and each candidate from its task, so a cluster's claim
// and candidate state is freed as soon as its result exists.
FineResult AcceptTemplates(ClusterClaims claims,
                           std::span<CandidateTask> tasks, size_t num_docs,
                           const CostModel& cm) {
  FineResult result;
  if (num_docs == 0) return result;
  result.stats = claims.stats;
  result.cost_before = TotalCost(num_docs, 0, 0.0, 0.0, 0, claims.unencoded);
  double best_total = result.cost_before;
  double pending_token_cost = claims.unencoded;
  double noise_token_cost = 0.0;
  double template_cost_sum = 0.0;
  double encoded_base_sum = 0.0;
  size_t num_encoded = 0;
  size_t next = 0;
  for (size_t s = 0; s < claims.seed_unencoded.size(); ++s) {
    const std::span<const DocId> members(
        claims.members.data() + claims.offsets[s],
        claims.offsets[s + 1] - claims.offsets[s]);
    pending_token_cost -= claims.seed_unencoded[s];
    if (members.size() >= kMinTemplateSupport) {
      const std::unique_ptr<Candidate> candidate =
          std::move(tasks[next++].candidate);
      result.stats.MergeFrom(candidate->stats);
      if (candidate->found) {
        const double new_template_cost_sum =
            template_cost_sum + cm.TemplateCost(candidate->tmpl.length(),
                                                candidate->tmpl.num_slots());
        const double new_encoded_base_sum =
            encoded_base_sum + candidate->encoded_base;
        const size_t new_num_encoded = num_encoded + members.size();
        const double candidate_total =
            TotalCost(num_docs, result.templates.size() + 1,
                      new_template_cost_sum, new_encoded_base_sum,
                      new_num_encoded, noise_token_cost + pending_token_cost);
        if (candidate_total < best_total) {
          best_total = candidate_total;
          template_cost_sum = new_template_cost_sum;
          encoded_base_sum = new_encoded_base_sum;
          num_encoded = new_num_encoded;
          result.templates.push_back(
              {std::move(candidate->tmpl),
               std::vector<DocId>(members.begin(), members.end()),
               std::move(candidate->encodings)});
          continue;
        }
      }
    }
    // Rejection keeps the total unchanged: the members' unencoded cost
    // simply moves from the pending pool to the noise term.
    result.noise.insert(result.noise.end(), members.begin(), members.end());
    noise_token_cost += claims.seed_unencoded[s];
  }
  CHECK_LE(next, tasks.size());
  result.cost_after = best_total;
  // Canonical emission order: rejected documents accumulate in seed-scan
  // order, which depends on how earlier templates carved up the cluster;
  // sorting makes the noise list (and anything downstream that prints
  // it) independent of that history.
  std::sort(result.noise.begin(), result.noise.end());
  return result;
}

}  // namespace

FineResult FineClustering::RunOnCluster(
    const Corpus& corpus, const std::vector<DocId>& doc_ids,
    const CostModel& cm,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases) const {
  return std::move(
      RunOnClusters(corpus, {doc_ids}, cm, doc_top_phrases, 1).front());
}

std::vector<FineResult> FineClustering::RunOnClusters(
    const Corpus& corpus, const std::vector<std::vector<DocId>>& clusters,
    const CostModel& cm,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases,
    size_t num_threads) const {
  const size_t k = clusters.size();

  // Claim walks run largest cluster first: its serial walk is the longest.
  std::vector<size_t> by_size(k);
  for (size_t ci = 0; ci < k; ++ci) by_size[ci] = ci;
  std::stable_sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
    return clusters[a].size() > clusters[b].size();
  });
  // A claim that reaches kMinTemplateSupport takes that many of its
  // cluster's documents, so cluster ci has at most |ci| /
  // kMinTemplateSupport of them: its j-th in seed order is
  // tasks[first_task[ci] + j].
  std::vector<size_t> first_task(k + 1, 0);
  for (size_t ci = 0; ci < k; ++ci) {
    first_task[ci + 1] =
        first_task[ci] + clusters[ci].size() / kMinTemplateSupport;
  }
  std::vector<CandidateTask> tasks(first_task[k]);
  std::vector<ClusterClaims> claims(k);

  // (a) and (b) in one fork-join: each walk publishes a claim as soon as
  // its seed's scan ends, and a worker with no walk left proposes that
  // claim's template while the walks go on. Each candidate depends only
  // on its member list, so the order they run in changes nothing, and
  // each task writes only its own slot.
  ThreadPool::ParallelForPublishing(
      num_threads, k, first_task[k],
      [&](size_t i, const ThreadPool::Publish& publish) {
        const size_t ci = by_size[i];
        size_t next = first_task[ci];
        ClaimSeeds(corpus, clusters[ci], cm, options_.scoring,
                   doc_top_phrases, &claims[ci],
                   [&](std::span<const DocId> members) {
                     tasks[next].members = members;
                     publish(next++);
                   });
      },
      [&](size_t t) {
        tasks[t].candidate = std::make_unique<Candidate>(
            ProposeTemplate(*this, corpus, tasks[t].members, cm));
      });

  // (c) Acceptance per cluster; each consumes its claims and candidates.
  std::vector<FineResult> results(k);
  ThreadPool::ParallelFor(num_threads, k, [&](size_t ci) {
    results[ci] = AcceptTemplates(
        std::move(claims[ci]),
        std::span(tasks).subspan(first_task[ci],
                                 first_task[ci + 1] - first_task[ci]),
        clusters[ci].size(), cm);
    INFOSHIELD_AUDIT_INVARIANTS(
        ValidateFineResult(results[ci], corpus, clusters[ci], &cm));
  });
  return results;
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
