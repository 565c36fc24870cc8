// Tests for the deep invariant auditors (util/audit.h and the
// per-module ValidateInvariants entry points).
//
// Two halves:
//   1. Corruption tests — reach into a structure through a test peer (or
//      a public field), break one invariant, and assert the auditor
//      reports it. This proves the auditors are not vacuous.
//   2. A seeded randomized stress test that drives the real pipeline
//      (pairwise alignment -> POA fusion -> consensus -> fine
//      clustering) on generated near-duplicates and validates every
//      intermediate structure explicitly, so the auditors run even in
//      builds without INFOSHIELD_AUDIT.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fine_clustering.h"
#include "core/template.h"
#include "graph/union_find.h"
#include "mdl/cost_model.h"
#include "mdl/universal_code.h"
#include "msa/pairwise.h"
#include "msa/poa.h"
#include "text/corpus.h"
#include "text/vocabulary.h"
#include "tfidf/tfidf_index.h"
#include "util/audit.h"
#include "util/random.h"
#include "util/status.h"

namespace infoshield {

// Friends of the audited classes; they exist only to inject corruption.
class PoaGraphTestPeer {
 public:
  static std::vector<uint32_t>& TopoOrder(PoaGraph& g) {
    return g.topo_order_;
  }
  static void DropOneInEdge(PoaGraph& g) {
    for (auto& node : g.nodes_) {
      if (!node.in.empty()) {
        node.in.pop_back();
        return;
      }
    }
    FAIL() << "graph has no edges to corrupt";
  }
  static void SetSupport(PoaGraph& g, size_t node, uint32_t support) {
    g.nodes_[node].support = support;
  }
  // The DP score storage AddSequence keeps between calls.
  static const std::vector<int>& Scores(const PoaGraph& g) {
    return g.score_;
  }
};

class UnionFindTestPeer {
 public:
  static std::vector<uint32_t>& Parents(UnionFind& uf) { return uf.parent_; }
  static std::vector<uint32_t>& Sizes(UnionFind& uf) { return uf.size_; }
  static size_t& NumSets(UnionFind& uf) { return uf.num_sets_; }
};

namespace {

std::vector<TokenId> Tokens(Vocabulary& vocab,
                            const std::vector<std::string>& words) {
  std::vector<TokenId> out;
  out.reserve(words.size());
  for (const std::string& w : words) out.push_back(vocab.Intern(w));
  return out;
}

// --- Auditor plumbing ------------------------------------------------

TEST(AuditorTest, CleanAuditorFinishesOk) {
  audit::Auditor a("Clean");
  a.Expect(true, "never recorded");
  EXPECT_TRUE(a.Finish().ok());
}

TEST(AuditorTest, FailedExpectationsAreAllReported) {
  audit::Auditor a("Broken");
  EXPECT_FALSE(a.Expect(false, "first failure"));
  EXPECT_TRUE(a.Expect(true, "not this one"));
  EXPECT_FALSE(a.Expect(false, "second failure"));
  Status st = a.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("Broken"), std::string::npos);
  EXPECT_NE(st.message().find("first failure"), std::string::npos);
  EXPECT_NE(st.message().find("second failure"), std::string::npos);
  EXPECT_EQ(st.message().find("not this one"), std::string::npos);
}

TEST(AuditorTest, AuditingEnabledToggle) {
  EXPECT_TRUE(audit::AuditingEnabled());
  audit::SetAuditingEnabled(false);
  EXPECT_FALSE(audit::AuditingEnabled());
  audit::SetAuditingEnabled(true);
  EXPECT_TRUE(audit::AuditingEnabled());
}

// --- POA graph corruption --------------------------------------------

PoaGraph BuildSmallPoa(Vocabulary& vocab) {
  PoaGraph graph(Tokens(vocab, {"call", "me", "tonight", "at", "nine"}));
  graph.AddSequence(Tokens(vocab, {"call", "me", "today", "at", "nine"}));
  graph.AddSequence(Tokens(vocab, {"call", "me", "at", "nine", "please"}));
  return graph;
}

TEST(PoaAuditTest, IntactGraphValidates) {
  Vocabulary vocab;
  PoaGraph graph = BuildSmallPoa(vocab);
  EXPECT_TRUE(graph.ValidateInvariants().ok());
}

TEST(PoaAuditTest, DetectsCorruptTopoOrder) {
  Vocabulary vocab;
  PoaGraph graph = BuildSmallPoa(vocab);
  // Swapping two entries of topo_order_ without updating topo_rank_
  // breaks the order/rank inverse relation (and usually edge ordering).
  std::vector<uint32_t>& order = PoaGraphTestPeer::TopoOrder(graph);
  ASSERT_GE(order.size(), 2u);
  std::swap(order.front(), order.back());
  Status st = graph.ValidateInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("PoaGraph"), std::string::npos);
}

TEST(PoaAuditTest, DetectsBrokenEdgeMirror) {
  Vocabulary vocab;
  PoaGraph graph = BuildSmallPoa(vocab);
  PoaGraphTestPeer::DropOneInEdge(graph);
  EXPECT_FALSE(graph.ValidateInvariants().ok());
}

TEST(PoaAuditTest, DetectsOutOfRangeSupport) {
  Vocabulary vocab;
  PoaGraph graph = BuildSmallPoa(vocab);
  PoaGraphTestPeer::SetSupport(graph, 0, 0);
  EXPECT_FALSE(graph.ValidateInvariants().ok());

  PoaGraph graph2 = BuildSmallPoa(vocab);
  PoaGraphTestPeer::SetSupport(
      graph2, 0, static_cast<uint32_t>(graph2.num_sequences()) + 7);
  EXPECT_FALSE(graph2.ValidateInvariants().ok());
}

// AddSequence keeps one band of scores per node row, not the
// (nodes+1)(|seq|+1) table. A 4,002-token near-duplicate (2%
// substitutions, a 10-token deletion, a 12-token insertion) fused into
// a 4,000-node graph certifies the first slack G = ||seq| - 4,000| + 128,
// so each node row holds at most G + 1 cells; the virtual start row
// stays whole.
TEST(PoaMemoryTest, ScoreStorageHoldsOnlyTheBand) {
  Rng rng(4000);
  std::vector<TokenId> base;
  for (size_t i = 0; i < 4000; ++i) {
    base.push_back(static_cast<TokenId>(rng.NextIndex(5000)));
  }
  std::vector<TokenId> seq = base;
  for (TokenId& t : seq) {
    if (rng.NextDouble() < 0.02) t = static_cast<TokenId>(rng.NextIndex(5000));
  }
  seq.erase(seq.begin() + 1000, seq.begin() + 1010);
  seq.insert(seq.begin() + 3000, 12, 4242);
  PoaGraph graph(base);
  graph.AddSequence(seq);
  EXPECT_TRUE(graph.ValidateInvariants().ok());
  const size_t nodes = base.size();
  const size_t slack = seq.size() - nodes + 128;
  const std::vector<int>& scores = PoaGraphTestPeer::Scores(graph);
  EXPECT_LE(scores.capacity(), nodes * (slack + 1) + seq.size() + 1);
  EXPECT_LE(graph.dp_cells(), nodes * (slack + 1));
}

// --- Union-find corruption -------------------------------------------

UnionFind BuildSmallUnionFind() {
  UnionFind uf(8);
  uf.Union(0, 1);
  uf.Union(1, 2);
  uf.Union(3, 4);
  uf.Union(5, 6);
  return uf;
}

TEST(UnionFindAuditTest, IntactForestValidates) {
  UnionFind uf = BuildSmallUnionFind();
  EXPECT_TRUE(uf.ValidateInvariants().ok());
}

TEST(UnionFindAuditTest, DetectsParentCycle) {
  UnionFind uf = BuildSmallUnionFind();
  std::vector<uint32_t>& parents = UnionFindTestPeer::Parents(uf);
  // Tie two distinct roots into a 2-cycle: neither resolves to a root.
  const uint32_t ra = uf.Find(0);
  const uint32_t rb = uf.Find(3);
  ASSERT_NE(ra, rb);
  parents[ra] = rb;
  parents[rb] = ra;
  Status st = uf.ValidateInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("UnionFind"), std::string::npos);
}

TEST(UnionFindAuditTest, DetectsOutOfRangeParent) {
  UnionFind uf = BuildSmallUnionFind();
  UnionFindTestPeer::Parents(uf)[7] = 1000;
  EXPECT_FALSE(uf.ValidateInvariants().ok());
}

TEST(UnionFindAuditTest, DetectsWrongRootSize) {
  UnionFind uf = BuildSmallUnionFind();
  const uint32_t root = uf.Find(0);
  UnionFindTestPeer::Sizes(uf)[root] += 1;
  EXPECT_FALSE(uf.ValidateInvariants().ok());
}

TEST(UnionFindAuditTest, DetectsWrongSetCount) {
  UnionFind uf = BuildSmallUnionFind();
  UnionFindTestPeer::NumSets(uf) += 1;
  EXPECT_FALSE(uf.ValidateInvariants().ok());
}

// --- Template / encoding corruption ----------------------------------

TEST(TemplateAuditTest, IntactTemplateValidates) {
  Vocabulary vocab;
  Template tmpl(Tokens(vocab, {"sweet", "girl", "available", "now"}));
  EXPECT_TRUE(tmpl.ValidateInvariants().ok());
  tmpl.SetSlotAtGap(2, true);
  EXPECT_TRUE(tmpl.ValidateInvariants().ok());
}

TEST(TemplateAuditTest, DetectsWrongSlotTableSize) {
  Vocabulary vocab;
  Template tmpl(Tokens(vocab, {"sweet", "girl", "available", "now"}));
  tmpl.SetSlotAtGap(1, true);
  tmpl.slot_at_gap.push_back(0);  // now length + 2 entries
  EXPECT_FALSE(tmpl.ValidateInvariants().ok());
}

TEST(TemplateAuditTest, DetectsNonBooleanSlotEntry) {
  Vocabulary vocab;
  Template tmpl(Tokens(vocab, {"sweet", "girl", "available", "now"}));
  tmpl.SetSlotAtGap(1, true);
  tmpl.slot_at_gap[1] = 2;
  EXPECT_FALSE(tmpl.ValidateInvariants().ok());
}

TEST(TemplateAuditTest, DetectsInvalidConstantToken) {
  Vocabulary vocab;
  Template tmpl(Tokens(vocab, {"sweet", "girl", "available", "now"}));
  tmpl.tokens[2] = kInvalidToken;
  EXPECT_FALSE(tmpl.ValidateInvariants().ok());
}

TEST(TemplateAuditTest, EncodingReplayCatchesTampering) {
  Vocabulary vocab;
  Template tmpl(Tokens(vocab, {"new", "in", "town", "call", "now"}));
  tmpl.SetSlotAtGap(3, true);
  const CostModel cost_model(10.0);
  const std::vector<TokenId> doc =
      Tokens(vocab, {"new", "in", "town", "jessica", "call", "now"});
  DocEncoding enc = EncodeDocument(tmpl, doc, cost_model);
  EXPECT_TRUE(ValidateDocEncoding(tmpl, doc, enc, &cost_model).ok());

  // Tampering with any piece of the encoding must be caught.
  DocEncoding wrong_summary = enc;
  wrong_summary.summary.unmatched += 1;
  EXPECT_FALSE(ValidateDocEncoding(tmpl, doc, wrong_summary, &cost_model)
                   .ok());

  DocEncoding wrong_cost = enc;
  wrong_cost.base_cost += 1.0;
  EXPECT_FALSE(ValidateDocEncoding(tmpl, doc, wrong_cost, &cost_model).ok());

  DocEncoding dropped_column = enc;
  ASSERT_FALSE(dropped_column.columns.empty());
  dropped_column.columns.pop_back();
  EXPECT_FALSE(ValidateDocEncoding(tmpl, doc, dropped_column, nullptr).ok());

  // The replay must also notice when the *document* doesn't match.
  std::vector<TokenId> other_doc = doc;
  other_doc[0] = vocab.Intern("old");
  EXPECT_FALSE(ValidateDocEncoding(tmpl, other_doc, enc, nullptr).ok());
}

// --- MDL and tf-idf auditors -----------------------------------------

TEST(MdlAuditTest, UniversalCodeAudits) {
  EXPECT_TRUE(AuditUniversalCode().ok());
}

TEST(MdlAuditTest, CostModelValidatesAndSummaryAuditCatchesNonsense) {
  const CostModel cost_model(12.0);
  EXPECT_TRUE(cost_model.ValidateInvariants().ok());

  EncodingSummary ok_summary;
  ok_summary.alignment_length = 10;
  ok_summary.unmatched = 4;
  ok_summary.inserted_or_substituted = 2;
  EXPECT_TRUE(ValidateEncodingSummary(ok_summary).ok());

  EncodingSummary bad = ok_summary;
  bad.unmatched = 11;  // more unmatched columns than columns
  EXPECT_FALSE(ValidateEncodingSummary(bad).ok());
  bad = ok_summary;
  bad.inserted_or_substituted = 5;  // exceeds unmatched
  EXPECT_FALSE(ValidateEncodingSummary(bad).ok());
}

TEST(TfidfAuditTest, BuiltIndexValidatesAndBrokenPhraseListDoesNot) {
  Corpus corpus;
  corpus.Add("hot new girl in town tonight");
  corpus.Add("hot new girl in town today");
  corpus.Add("completely different advertisement text here");
  TfidfIndex index;
  index.Build(corpus, TfidfOptions{});
  EXPECT_TRUE(index.ValidateInvariants().ok());

  std::vector<ScoredPhrase> phrases = index.TopPhrases(corpus.doc(0));
  EXPECT_TRUE(ValidateTopPhrases(phrases).ok());

  if (phrases.size() >= 2) {
    std::vector<ScoredPhrase> reversed(phrases.rbegin(), phrases.rend());
    EXPECT_FALSE(ValidateTopPhrases(reversed).ok());
    std::vector<ScoredPhrase> duplicated = phrases;
    duplicated.push_back(duplicated.front());
    EXPECT_FALSE(ValidateTopPhrases(duplicated).ok());
  }
}

// --- Seeded randomized stress test -----------------------------------

// Generates near-duplicate documents from a shared skeleton with random
// per-document slot fills and edits, then drives pairwise alignment, POA
// fusion, consensus extraction and fine clustering, auditing every
// intermediate structure explicitly.
TEST(AuditStressTest, PipelineInvariantsHoldOnRandomNearDuplicates) {
  constexpr uint64_t kSeed = 0x1f05;
  Rng rng(kSeed);

  const std::vector<std::string> skeleton = {
      "gorgeous", "girl",  "new", "in",   "town", "call",
      "me",       "at",    "*",   "open", "late", "every",
      "night",    "best",  "rates",
  };
  const std::vector<std::string> fills = {"5551234567", "5559876543",
                                          "5550001111", "5552223333"};
  const std::vector<std::string> extras = {"tonight", "please", "xoxo",
                                           "discreet", "upscale"};

  Corpus corpus;
  std::vector<std::vector<TokenId>> token_docs;
  std::vector<DocId> doc_ids;
  for (int d = 0; d < 16; ++d) {
    std::vector<std::string> words;
    for (const std::string& w : skeleton) {
      if (w == "*") {
        words.push_back(fills[rng.NextIndex(fills.size())]);
        continue;
      }
      if (rng.NextBernoulli(0.08)) continue;  // random deletion
      words.push_back(w);
      if (rng.NextBernoulli(0.08)) {          // random insertion
        words.push_back(extras[rng.NextIndex(extras.size())]);
      }
    }
    std::string text;
    for (size_t i = 0; i < words.size(); ++i) {
      if (i > 0) text.push_back(' ');
      text += words[i];
    }
    doc_ids.push_back(corpus.Add(text));
    token_docs.push_back(corpus.doc(doc_ids.back()).tokens);
  }

  // POA fusion: the graph must satisfy its invariants after every single
  // insertion, and every consensus must pass the tf-idf-style ordering
  // audit trivially (it is a token sequence, so just re-validate graph).
  PoaGraph graph(token_docs[0]);
  ASSERT_TRUE(graph.ValidateInvariants().ok());
  for (size_t d = 1; d < token_docs.size(); ++d) {
    graph.AddSequence(token_docs[d]);
    Status st = graph.ValidateInvariants();
    ASSERT_TRUE(st.ok()) << "after sequence " << d << ": " << st.ToString();
  }
  for (size_t h = 0; h <= graph.num_sequences(); ++h) {
    const std::vector<TokenId> consensus = graph.ConsensusAtThreshold(h);
    for (TokenId t : consensus) EXPECT_NE(t, kInvalidToken);
  }

  // Every document's encoding against the majority consensus replays.
  const CostModel cost_model = CostModel::ForVocabulary(corpus.vocab());
  ASSERT_TRUE(cost_model.ValidateInvariants().ok());
  Template tmpl(graph.ConsensusAtThreshold(graph.num_sequences() / 2));
  ASSERT_TRUE(tmpl.ValidateInvariants().ok());
  tmpl.SetSlotAtGap(rng.NextIndex(tmpl.length() + 1), true);
  for (const std::vector<TokenId>& doc : token_docs) {
    DocEncoding enc = EncodeDocument(tmpl, doc, cost_model);
    Status st = ValidateDocEncoding(tmpl, doc, enc, &cost_model);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  // Full fine stage over the generated cluster; validate the result even
  // in builds where INFOSHIELD_AUDIT is off.
  audit::SetAuditingEnabled(true);
  FineClustering fine;
  FineResult result =
      fine.RunOnCluster(corpus, doc_ids, cost_model, nullptr);
  Status st = ValidateFineResult(result, corpus, doc_ids, &cost_model);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // Near-duplicates from one skeleton should compress into a template.
  EXPECT_FALSE(result.templates.empty());
}

TEST(AuditStatsTest, CountsFinishedAndFailedAudits) {
  audit::ResetAuditStats();
  {
    audit::Auditor ok_auditor("subject-ok");
    EXPECT_TRUE(ok_auditor.Finish().ok());
  }
  {
    audit::Auditor bad_auditor("subject-bad");
    bad_auditor.Expect(false, "deliberate failure");
    EXPECT_FALSE(bad_auditor.Finish().ok());
  }
  audit::AuditStats stats = audit::GetAuditStats();
  EXPECT_EQ(stats.finished, 2u);
  EXPECT_EQ(stats.failed, 1u);

  audit::ResetAuditStats();
  stats = audit::GetAuditStats();
  EXPECT_EQ(stats.finished, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(AuditStatsTest, TalliesAreConsistentUnderConcurrentFinish) {
  // The fine stage audits every cluster on ParallelFor workers, so the
  // tallies must hold up under parallel Finish() calls, and a snapshot
  // taken meanwhile must never show more failures than audits.
  audit::ResetAuditStats();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<bool> done{false};
  size_t torn_snapshots = 0;
  std::thread reader([&] {
    while (!done.load()) {
      audit::AuditStats snapshot = audit::GetAuditStats();
      if (snapshot.failed > snapshot.finished) ++torn_snapshots;
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        audit::Auditor auditor("stress");
        if ((t + i) % 4 == 0) auditor.Expect(false, "injected");
        (void)auditor.Finish();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(torn_snapshots, 0u);
  audit::AuditStats stats = audit::GetAuditStats();
  EXPECT_EQ(stats.finished,
            static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.failed, static_cast<size_t>(kThreads) * kPerThread / 4);
  audit::ResetAuditStats();
}

}  // namespace
}  // namespace infoshield
