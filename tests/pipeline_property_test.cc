// Parameterized property tests over the full pipeline: invariants that
// must hold for any seed and any generator configuration.

#include <gtest/gtest.h>

#include "core/infoshield.h"
#include "datagen/twitter_gen.h"
#include "eval/metrics.h"

namespace infoshield {
namespace {

struct PropertyCase {
  uint64_t seed;
  size_t genuine;
  size_t bots;
  double edit_prob;
};

class PipelinePropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(PipelinePropertyTest, StructuralInvariantsHold) {
  const PropertyCase& p = GetParam();
  TwitterGenOptions o;
  o.num_genuine_accounts = p.genuine;
  o.num_bot_accounts = p.bots;
  o.bot_edit_prob = p.edit_prob;
  TwitterGenerator gen(o);
  LabeledTweets data = gen.Generate(p.seed);

  InfoShield shield;
  InfoShieldResult r = shield.Run(data.corpus);

  // 1. doc_template is a partial function into templates.
  ASSERT_EQ(r.doc_template.size(), data.corpus.size());
  for (int64_t t : r.doc_template) {
    EXPECT_GE(t, -1);
    EXPECT_LT(t, static_cast<int64_t>(r.templates.size()));
  }

  // 2. Template membership partitions the suspicious set: no doc in two
  //    templates, membership lists sorted and consistent with the map.
  std::vector<int> seen(data.corpus.size(), 0);
  for (size_t t = 0; t < r.templates.size(); ++t) {
    const TemplateCluster& tc = r.templates[t];
    EXPECT_GE(tc.members.size(), kMinTemplateSupport);
    EXPECT_EQ(tc.members.size(), tc.encodings.size());
    for (size_t i = 1; i < tc.members.size(); ++i) {
      EXPECT_LT(tc.members[i - 1], tc.members[i]);
    }
    for (DocId d : tc.members) {
      EXPECT_EQ(r.doc_template[d], static_cast<int64_t>(t));
      ++seen[d];
    }
  }
  for (int count : seen) EXPECT_LE(count, 1);

  // 3. Every cluster compresses or stays flat, never inflates; relative
  //    length within (0, 1] and above the Lemma 1 bound.
  for (const ClusterStats& s : r.cluster_stats) {
    EXPECT_LE(s.cost_after, s.cost_before);
    EXPECT_GT(s.relative_length, 0.0);
    EXPECT_LE(s.relative_length, 1.0);
    if (s.num_templates > 0) {
      EXPECT_GE(s.relative_length, s.lower_bound * 0.999);
    }
  }

  // 4. Slot fills decode losslessly: each encoding's column walk must
  //    reproduce the original document tokens.
  for (const TemplateCluster& tc : r.templates) {
    for (size_t m = 0; m < tc.members.size(); ++m) {
      std::vector<TokenId> reconstructed;
      for (const AnnotatedColumn& col : tc.encodings[m].columns) {
        switch (col.kind) {
          case ColumnKind::kConstant:
          case ColumnKind::kSlotFill:
          case ColumnKind::kInsertion:
          case ColumnKind::kSubstitution:
            reconstructed.push_back(col.doc_token);
            break;
          case ColumnKind::kDeletion:
            break;
        }
      }
      EXPECT_EQ(reconstructed, data.corpus.doc(tc.members[m]).tokens)
          << "template member " << m << " fails lossless reconstruction";
    }
  }

  // 5. Determinism: a rerun gives the identical result.
  InfoShieldResult r2 = shield.Run(data.corpus);
  EXPECT_EQ(r.doc_template, r2.doc_template);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinePropertyTest,
    ::testing::Values(PropertyCase{1, 10, 5, 0.02},
                      PropertyCase{2, 15, 8, 0.05},
                      PropertyCase{3, 8, 12, 0.10},
                      PropertyCase{4, 20, 4, 0.00},
                      PropertyCase{5, 5, 15, 0.15},
                      PropertyCase{6, 12, 6, 0.08}));

// Precision should degrade gracefully (not collapse) as bot edit noise
// rises — the slope matters for Fig. 1-left's story.
TEST(PipelineNoiseSweepTest, PrecisionSurvivesModerateNoise) {
  double previous_f1 = 1.1;
  for (double noise : {0.0, 0.05, 0.10}) {
    TwitterGenOptions o;
    o.num_genuine_accounts = 15;
    o.num_bot_accounts = 10;
    o.bot_edit_prob = noise;
    TwitterGenerator gen(o);
    LabeledTweets data = gen.Generate(42);
    InfoShield shield;
    InfoShieldResult r = shield.Run(data.corpus);
    std::vector<bool> predicted;
    for (size_t i = 0; i < data.corpus.size(); ++i) {
      predicted.push_back(r.IsSuspicious(static_cast<DocId>(i)));
    }
    std::vector<bool> truth(data.is_bot.begin(), data.is_bot.end());
    BinaryMetrics m = ComputeBinaryMetrics(predicted, truth);
    EXPECT_GT(m.f1(), 0.7) << "noise " << noise;
    // Allow mild non-monotonicity but catch collapses.
    EXPECT_GT(m.f1(), previous_f1 - 0.25);
    previous_f1 = m.f1();
  }
}

}  // namespace
}  // namespace infoshield
