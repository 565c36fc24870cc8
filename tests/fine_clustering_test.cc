#include "core/fine_clustering.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/slot_analysis.h"
#include "oracle/reference_fine.h"
#include "util/random.h"

namespace infoshield {
namespace {

std::vector<DocId> AllDocs(const Corpus& c) {
  std::vector<DocId> ids(c.size());
  for (size_t i = 0; i < c.size(); ++i) ids[i] = static_cast<DocId>(i);
  return ids;
}

// Enlarges the corpus vocabulary with unique filler tokens (lg V drives
// the MDL trade-off: with a toy-sized vocabulary, raw documents are so
// cheap that templates rightly never pay off). The filler documents are
// NOT part of any cluster under test.
void PadVocabulary(Corpus& c, size_t num_words) {
  std::string text;
  for (size_t i = 0; i < num_words; ++i) {
    if (!text.empty()) text.push_back(' ');
    text += "filler" + std::to_string(i);
    if (text.size() > 200) {
      c.Add(text);
      text.clear();
    }
  }
  if (!text.empty()) c.Add(text);
}

TEST(FineClusteringTest, ExactDuplicatesFormOneTemplate) {
  Corpus c;
  for (int i = 0; i < 5; ++i) {
    c.Add("buy cheap watches now great deal online store");
  }
  // Pad the vocabulary so lg V is realistic.
  c.Add("unrelated filler words apple banana cherry dragon elephant fox");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, {0, 1, 2, 3, 4}, cm);
  ASSERT_EQ(r.templates.size(), 1u);
  EXPECT_EQ(r.templates[0].members.size(), 5u);
  EXPECT_TRUE(r.noise.empty());
  EXPECT_LT(r.cost_after, r.cost_before);
  EXPECT_LT(r.relative_length(), 1.0);
}

TEST(FineClusteringTest, DissimilarDocsBecomeNoise) {
  Corpus c;
  c.Add("alpha beta gamma delta epsilon zeta");
  c.Add("uno dos tres cuatro cinco seis");
  c.Add("red orange yellow green blue indigo");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, AllDocs(c), cm);
  EXPECT_TRUE(r.templates.empty());
  EXPECT_EQ(r.noise.size(), 3u);
  EXPECT_DOUBLE_EQ(r.cost_after, r.cost_before);
}

// The candidate scan must decide C(d | d1) < C(d) with the configured
// scoring, as the MSA and the consensus search do. Under {1, 0, -1} the
// second document costs 80 bits against the seed, over its 70 unencoded
// bits, so it must stay out of the seed's candidate set; an alignment
// under the default scoring would price it at 57 bits and admit it.
TEST(FineClusteringTest, CandidateScanAlignsWithConfiguredScoring) {
  Corpus c;
  c.Add("four one four two four one two four");
  c.Add("zero four one four two three four");
  const CostModel cm(10.0);
  FineOptions options;
  options.scoring = AlignmentScoring{1, 0, -1};
  const Template seed(c.doc(0).tokens);
  auto conditional = [&](const AlignmentScoring& scoring) {
    const Alignment a =
        NeedlemanWunsch(seed.tokens, c.doc(1).tokens, scoring);
    return cm.EncodedDocCost(
        1, EncodeDocumentWithAlignment(seed, a, cm).summary);
  };
  const double unencoded = cm.UnencodedDocCost(c.doc(1).length());
  ASSERT_DOUBLE_EQ(unencoded, 70.0);
  ASSERT_LT(conditional(AlignmentScoring{}), unencoded);
  ASSERT_GT(conditional(options.scoring), unencoded);

  FineClustering fine(options);
  const FineResult r = fine.RunOnCluster(c, AllDocs(c), cm);
  EXPECT_TRUE(r.templates.empty());
  EXPECT_EQ(r.noise.size(), 2u);
  // Neither seed gathered a candidate, so no consensus was searched.
  EXPECT_EQ(r.stats.consensus_probes, 0u);
}

TEST(FineClusteringTest, TwoTemplatesInOneCluster) {
  Corpus c;
  // Group A (4 docs) and group B (4 docs), unrelated to each other.
  for (int i = 0; i < 4; ++i) {
    c.Add("this is a great product and the price is great indeed");
  }
  for (int i = 0; i < 4; ++i) {
    c.Add("i made money working from home call now or visit site");
  }
  std::vector<DocId> cluster = AllDocs(c);
  PadVocabulary(c, 300);
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, cluster, cm);
  ASSERT_EQ(r.templates.size(), 2u);
  EXPECT_EQ(r.templates[0].members, (std::vector<DocId>{0, 1, 2, 3}));
  EXPECT_EQ(r.templates[1].members, (std::vector<DocId>{4, 5, 6, 7}));
}

TEST(FineClusteringTest, SlotDetectedWhereDocsDiffer) {
  Corpus c;
  c.Add("this is a great soap and the 5 dollar price is great");
  c.Add("this is a great chair and the 10 dollar price is great");
  c.Add("this is a great hat and the 3 dollar price is great");
  c.Add("this is a great lamp and the 8 dollar price is great");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, AllDocs(c), cm);
  ASSERT_EQ(r.templates.size(), 1u);
  const Template& t = r.templates[0].tmpl;
  EXPECT_GE(t.num_slots(), 1u);
  // The template backbone keeps the shared phrasing.
  std::string text = t.ToString(c.vocab());
  EXPECT_NE(text.find("this is a great"), std::string::npos);
  EXPECT_NE(text.find("dollar price is great"), std::string::npos);
}

TEST(FineClusteringTest, SingleDocClusterIsNoise) {
  Corpus c;
  c.Add("lonely document with no duplicate partner here");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, {0}, cm);
  EXPECT_TRUE(r.templates.empty());
  EXPECT_EQ(r.noise, (std::vector<DocId>{0}));
}

TEST(FineClusteringTest, EmptyClusterIsFine) {
  Corpus c;
  c.Add("something");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, {}, cm);
  EXPECT_TRUE(r.templates.empty());
  EXPECT_TRUE(r.noise.empty());
}

TEST(FineClusteringTest, NearDuplicatesWithEditsStillCluster) {
  Corpus c;
  c.Add("grand opening best massage in town call 5551234 today");
  c.Add("grand opening best massage in town call 5559876 today");
  c.Add("grand opening the best massage in town call 5554321");
  c.Add("grand opening best massage town call 5551111 today now");
  std::vector<DocId> cluster = AllDocs(c);
  PadVocabulary(c, 300);
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, cluster, cm);
  ASSERT_EQ(r.templates.size(), 1u);
  EXPECT_EQ(r.templates[0].members.size(), 4u);
}

// Empty when production's dichotomous SearchConsensus over `set`
// equals the oracle's exhaustive search, which probes every threshold:
// the same consensus, slots, alignments and cost bits.
std::string DiffFromExhaustiveSearch(const Corpus& c,
                                     const std::vector<DocId>& set,
                                     const CostModel& cm) {
  std::vector<std::vector<TokenId>> docs;
  for (DocId d : set) docs.push_back(c.doc(d).tokens);
  const FineOptions options;
  const PoaGraph graph = oracle::BuildCandidateAlignment(docs, options);
  return oracle::DiffConsensusChoice(
      FineClustering(options).SearchConsensus(graph, docs, cm),
      oracle::ReferenceSearchConsensus(graph, docs, cm, options,
                                       oracle::SearchMode::kExhaustive));
}

TEST(FineClusteringTest, ConsensusSearchExhaustiveMatchesDichotomous) {
  Corpus c;
  for (int i = 0; i < 6; ++i) {
    c.Add("identical text for consensus search testing purposes here");
  }
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = FineClustering().RunOnCluster(c, AllDocs(c), cm);
  ASSERT_EQ(r.templates.size(), 1u);
  EXPECT_EQ(DiffFromExhaustiveSearch(c, AllDocs(c), cm), "");
}

TEST(FineClusteringTest, CostNeverIncreases) {
  Corpus c;
  for (int i = 0; i < 3; ++i) c.Add("aaa bbb ccc ddd eee fff");
  c.Add("zzz yyy xxx www vvv uuu");
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, AllDocs(c), cm);
  EXPECT_LE(r.cost_after, r.cost_before);
}

TEST(FineClusteringTest, RelativeLengthRespectsLowerBound) {
  Corpus c;
  for (int i = 0; i < 10; ++i) {
    c.Add("exact duplicate spam message here repeated verbatim each time");
  }
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, AllDocs(c), cm);
  ASSERT_EQ(r.templates.size(), 1u);
  const double bound =
      RelativeLengthLowerBound(1, 10, cm.lg_vocab());
  EXPECT_GE(r.relative_length(), bound * 0.999);
}

TEST(FineClusteringTest, NeighborSeedingMatchesFullScanOnCampaign) {
  Corpus c;
  std::vector<DocId> cluster;
  for (int i = 0; i < 6; ++i) {
    cluster.push_back(
        c.Add("grand opening best massage in town call today " +
              std::to_string(1000 + i)));
  }
  PadVocabulary(c, 300);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  // Full scan.
  FineClustering fine;
  FineResult full = fine.RunOnCluster(c, cluster, cm);
  // Neighbor seeding with a shared phrase index: every campaign doc
  // lists the same campaign phrase.
  std::vector<std::vector<PhraseHash>> phrases(c.size());
  for (DocId d : cluster) phrases[d] = {0xABCDEFULL};
  FineResult seeded = fine.RunOnCluster(c, cluster, cm, &phrases);
  ASSERT_EQ(full.templates.size(), 1u);
  ASSERT_EQ(seeded.templates.size(), 1u);
  EXPECT_EQ(full.templates[0].members, seeded.templates[0].members);
  EXPECT_DOUBLE_EQ(full.cost_after, seeded.cost_after);
}

TEST(FineClusteringTest, NeighborSeedingIsolatesPhraseDisjointDocs) {
  // Two docs that would pairwise compress but share no top phrase: with
  // neighbor seeding they are never compared, so each becomes noise.
  Corpus c;
  std::vector<DocId> cluster;
  cluster.push_back(c.Add("same words here every single time always"));
  cluster.push_back(c.Add("same words here every single time always"));
  PadVocabulary(c, 300);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  std::vector<std::vector<PhraseHash>> phrases(c.size());
  phrases[cluster[0]] = {1};
  phrases[cluster[1]] = {2};  // disjoint phrase sets
  FineClustering fine;
  FineResult r = fine.RunOnCluster(c, cluster, cm, &phrases);
  EXPECT_TRUE(r.templates.empty());
  EXPECT_EQ(r.noise.size(), 2u);
}

// A mixed cluster exercising every hot-path branch: near-duplicates
// (dominant), a variant sub-family, and unrelated noise.
Corpus MixedCluster(std::vector<DocId>* ids) {
  Corpus c;
  c.Add("grand opening best massage in town call 5551234 today");
  c.Add("grand opening best massage in town call 5559876 today");
  c.Add("grand opening best massage in town call 5554321 today");
  c.Add("grand opening the best massage in town call 5551111");
  c.Add("sweet amy here available until 9pm special rate 60");
  c.Add("sweet bella here available until 10pm special rate 80");
  c.Add("sweet cici here available late night special rate 50");
  c.Add("totally unrelated text about cooking pasta at home tonight");
  *ids = AllDocs(c);
  PadVocabulary(c, 400);
  return c;
}

TEST(FineClusteringTest, ScanBoundNeverExceedsExactCost) {
  // The claim scan skips an alignment on ClaimCostLowerBound alone, so
  // the bound must never exceed the cost of the alignment it replaces:
  // EncodedDocCost(1, ·) of the document's NW alignment against the
  // slot-free seed, under any scoring and any lg V.
  Rng rng(20240611);
  size_t tight = 0;
  size_t above_unencoded = 0;
  for (const AlignmentScoring scoring :
       {AlignmentScoring{}, AlignmentScoring{1, 0, -1}}) {
    for (double lg_vocab : {1.0, 4.0, 12.0}) {
      const CostModel cm(lg_vocab);
      for (int trial = 0; trial < 400; ++trial) {
        std::vector<TokenId> seed(rng.NextBounded(25));
        std::vector<TokenId> doc(rng.NextBounded(25));
        for (TokenId& t : seed) t = static_cast<TokenId>(rng.NextBounded(5));
        for (TokenId& t : doc) t = static_cast<TokenId>(rng.NextBounded(5));
        std::map<TokenId, size_t> seed_counts;
        std::map<TokenId, size_t> doc_counts;
        for (TokenId t : seed) ++seed_counts[t];
        for (TokenId t : doc) ++doc_counts[t];
        size_t overlap = 0;
        for (const auto& [t, count] : seed_counts) {
          overlap += std::min(count, doc_counts[t]);
        }
        TokenBag bag;
        bag.Assign(seed);
        ASSERT_EQ(bag.Overlap(doc), overlap);
        ASSERT_EQ(bag.Overlap(doc), overlap) << "a second probe differs";

        const double bound =
            ClaimCostLowerBound(cm, seed.size(), doc.size(), overlap);
        const double exact = cm.EncodedDocCost(
            1, SummaryForSlotMask(
                   BuildGapCostProfile(NeedlemanWunsch(seed, doc, scoring)),
                   {}));
        ASSERT_LE(bound, exact)
            << "|seed|=" << seed.size() << " |doc|=" << doc.size()
            << " overlap=" << overlap << " lgV=" << lg_vocab;
        if (bound == exact) ++tight;
        if (bound >= cm.UnencodedDocCost(doc.size())) ++above_unencoded;
      }
    }
  }
  // Both outcomes occur: the bound is attained, and it rules scans out.
  EXPECT_GT(tight, 0u);
  EXPECT_GT(above_unencoded, 0u);

  // A document that is a subsequence of the seed aligns with every one
  // of its tokens matched and the seed's length in columns under the
  // default scoring, so the bound is exactly its cost.
  const CostModel cm(8.0);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<TokenId> seed(1 + rng.NextBounded(24));
    for (TokenId& t : seed) t = static_cast<TokenId>(rng.NextBounded(5));
    std::vector<TokenId> doc;
    for (TokenId t : seed) {
      if (rng.NextBernoulli(0.6)) doc.push_back(t);
    }
    const double exact = cm.EncodedDocCost(
        1, SummaryForSlotMask(BuildGapCostProfile(NeedlemanWunsch(
                                  seed, doc, AlignmentScoring{})),
                              {}));
    EXPECT_EQ(ClaimCostLowerBound(cm, seed.size(), doc.size(), doc.size()),
              exact)
        << "|seed|=" << seed.size() << " |doc|=" << doc.size();
  }
}

TEST(FineClusteringTest, ScanBoundSkipsOnlyAlignmentsTheReferenceRejects) {
  // A full scan of the mixed cluster probes unrelated documents, which
  // the bag-of-words bound rules out without aligning them. The result
  // must still equal the reference's full scan, and the skipped and
  // computed alignments together must be exactly the reference's count.
  std::vector<DocId> ids;
  Corpus c = MixedCluster(&ids);
  const CostModel cm = CostModel::ForVocabulary(c.vocab());
  const FineClustering fine;
  const FineResult result = fine.RunOnCluster(c, ids, cm);
  const FineResult reference =
      oracle::ReferenceAcceptance(c, ids, cm, FineOptions{});
  EXPECT_GT(result.stats.scan_alignments_skipped, 0u);
  EXPECT_EQ(reference.stats.scan_alignments_skipped, 0u);
  EXPECT_EQ(result.stats.alignments_computed +
                result.stats.scan_alignments_skipped,
            reference.stats.alignments_computed);
  EXPECT_EQ(oracle::DiffFineResults(result, reference), "");
  EXPECT_FALSE(result.templates.empty());
}

TEST(FineClusteringTest, NaiveCostingMatchesOptimizedExactly) {
  // The consensus cache, alignment reuse and GapCostProfile slot probes
  // must be exact: on every candidate set, SearchConsensus equals the
  // test-only re-align / re-encode reference field for field, cost bits
  // included.
  std::vector<DocId> ids;
  Corpus c = MixedCluster(&ids);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  // The campaign, the variant family, and the whole mixed cluster.
  const std::vector<std::vector<DocId>> candidate_sets = {
      {0, 1, 2, 3}, {4, 5, 6}, ids};
  const FineOptions opts;
  const FineClustering fine(opts);
  FineStageStats fast;
  FineStageStats slow;
  for (const std::vector<DocId>& set : candidate_sets) {
    std::vector<std::vector<TokenId>> docs;
    for (DocId d : set) docs.push_back(c.doc(d).tokens);
    const PoaGraph graph = oracle::BuildCandidateAlignment(docs, opts);
    EXPECT_EQ(oracle::DiffConsensusChoice(
                  fine.SearchConsensus(graph, docs, cm, &fast),
                  oracle::ReferenceSearchConsensus(
                      graph, docs, cm, opts, oracle::SearchMode::kDichotomous,
                      &slow)),
              "");
  }
  // The optimized path must actually be doing less work.
  EXPECT_LT(fast.alignments_computed, slow.alignments_computed);
  EXPECT_EQ(fast.consensus_probes, slow.consensus_probes);
  EXPECT_GT(fast.consensus_probes, 0u);
  EXPECT_EQ(slow.consensus_cache_hits, 0u);

  // And the templates RunOnCluster accepts reproduce from their member
  // lists.
  const FineResult r = fine.RunOnCluster(c, ids, cm);
  EXPECT_FALSE(r.templates.empty());
  EXPECT_EQ(oracle::DiffTemplatesAgainstReference(r.templates, c, cm, opts),
            "");
}

TEST(FineClusteringTest, SearchConsensusReturnsWinnerEvaluation) {
  Corpus c;
  c.Add("alpha beta gamma delta epsilon zeta eta theta");
  c.Add("alpha beta gamma delta epsilon zeta eta theta");
  c.Add("alpha beta gamma spoon epsilon zeta eta theta");
  PadVocabulary(c, 200);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  std::vector<std::vector<TokenId>> docs;
  for (size_t i = 0; i < 3; ++i) docs.push_back(c.doc(i).tokens);
  PoaGraph graph(docs[0]);
  graph.AddSequence(docs[1]);
  graph.AddSequence(docs[2]);

  FineClustering fine;
  FineStageStats stats;
  FineClustering::ConsensusChoice choice =
      fine.SearchConsensus(graph, docs, cm, &stats);

  EXPECT_EQ(choice.tmpl.tokens, choice.consensus);
  ASSERT_EQ(choice.alignments.size(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    EXPECT_TRUE(
        AlignmentIsConsistent(choice.alignments[i], choice.consensus,
                              docs[i]));
  }
  // choice.cost is the search objective: template cost + Σ base.
  double expected =
      cm.TemplateCost(choice.tmpl.length(), choice.tmpl.num_slots());
  for (const Alignment& a : choice.alignments) {
    expected += EncodeDocumentWithAlignment(choice.tmpl, a, cm).base_cost;
  }
  EXPECT_EQ(choice.cost, expected);
  EXPECT_GT(stats.consensus_probes, 0u);
}

TEST(FineClusteringTest, ConsensusCacheHitsOnNearDuplicates) {
  // Near-duplicate candidates: most thresholds select the same consensus,
  // so the dichotomous search's probes should mostly hit the cache.
  Corpus c;
  for (int i = 0; i < 12; ++i) {
    c.Add("repeat offer best deal call 555000" + std::to_string(i % 2) +
          " now");
  }
  PadVocabulary(c, 200);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  std::vector<std::vector<TokenId>> docs;
  for (size_t i = 0; i < 12; ++i) docs.push_back(c.doc(i).tokens);
  PoaGraph graph(docs[0]);
  for (size_t i = 1; i < docs.size(); ++i) graph.AddSequence(docs[i]);

  FineClustering fine;
  FineStageStats stats;
  fine.SearchConsensus(graph, docs, cm, &stats);
  EXPECT_GT(stats.consensus_cache_hits, 0u);
  EXPECT_LE(stats.consensus_cache_hits, stats.consensus_probes);
}

TEST(FineClusteringTest, ExhaustiveMatchesDichotomousOnVariedCluster) {
  // The identical documents above give a flat cost curve; re-check on
  // candidate sets whose cost actually varies with the threshold. The
  // dichotomous search probes fewer thresholds, but on each of these it
  // finds the exhaustive search's winner.
  std::vector<DocId> ids;
  Corpus c = MixedCluster(&ids);
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  std::vector<std::vector<DocId>> candidate_sets = {{0, 1, 2, 3}, {4, 5, 6},
                                                    ids};
  const FineResult r = FineClustering().RunOnCluster(c, ids, cm);
  ASSERT_FALSE(r.templates.empty());
  for (const TemplateCluster& tc : r.templates) {
    candidate_sets.push_back(tc.members);
  }
  for (const std::vector<DocId>& set : candidate_sets) {
    EXPECT_EQ(DiffFromExhaustiveSearch(c, set, cm), "")
        << "candidate set of " << set.size() << " documents";
  }
}

TEST(FineClusteringTest, DetectSlotsPublicApi) {
  Corpus c;
  c.Add("one two soap four five");
  c.Add("one two chair four five");
  c.Add("one two hat four five");
  CostModel cm(10.0);
  // Consensus is the shared backbone.
  Vocabulary& v = const_cast<Corpus&>(c).mutable_vocab();
  Template tmpl(std::vector<TokenId>{v.Find("one"), v.Find("two"),
                                     v.Find("four"), v.Find("five")});
  std::vector<Alignment> alignments;
  for (const Document& d : c.docs()) {
    alignments.push_back(NeedlemanWunsch(tmpl.tokens, d.tokens));
  }
  Template reference = tmpl;
  FineClustering fine;
  fine.DetectSlots(tmpl, alignments, cm);
  EXPECT_TRUE(tmpl.HasSlotAtGap(2));
  EXPECT_EQ(tmpl.num_slots(), 1u);
  oracle::ReferenceDetectSlots(reference, alignments, cm);
  EXPECT_EQ(tmpl.SlotGaps(), reference.SlotGaps());
}

}  // namespace
}  // namespace infoshield
