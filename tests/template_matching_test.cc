#include "baselines/template_matching.h"

#include <gtest/gtest.h>

#include "datagen/twitter_gen.h"

namespace infoshield {
namespace {

TEST(TemplateMatchingTest, ClustersNearDuplicates) {
  Corpus c;
  for (int i = 0; i < 4; ++i) {
    c.Add("buy cheap watches now great deal online store best price today");
  }
  c.Add("completely different text about gardens and mountain hiking");
  c.Add("another unrelated sentence mentioning cooking and recipes only");
  TemplateMatchingResult r = TemplateMatching(c, TemplateMatchingOptions{});
  EXPECT_EQ(r.num_clusters, 1u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r.labels[i], 0);
    EXPECT_TRUE(r.suspicious[i]);
  }
  EXPECT_EQ(r.labels[4], -1);
  EXPECT_EQ(r.labels[5], -1);
}

TEST(TemplateMatchingTest, SeparatesDistinctCampaigns) {
  Corpus c;
  for (int i = 0; i < 3; ++i) {
    c.Add("alpha beta gamma delta epsilon zeta eta theta iota kappa");
  }
  for (int i = 0; i < 3; ++i) {
    c.Add("uno dos tres cuatro cinco seis siete ocho nueve diez");
  }
  TemplateMatchingResult r = TemplateMatching(c, TemplateMatchingOptions{});
  EXPECT_EQ(r.num_clusters, 2u);
  EXPECT_EQ(r.labels[0], r.labels[2]);
  EXPECT_EQ(r.labels[3], r.labels[5]);
  EXPECT_NE(r.labels[0], r.labels[3]);
}

TEST(TemplateMatchingTest, NearDuplicatesWithSmallEdits) {
  Corpus c;
  c.Add("grand opening best massage in town call 5551234 today now yes");
  c.Add("grand opening best massage in town call 5559876 today now yes");
  c.Add("grand opening best massage in town call 5554321 today now yes");
  TemplateMatchingOptions opts;
  opts.jaccard_threshold = 0.4;
  TemplateMatchingResult r = TemplateMatching(c, opts);
  EXPECT_EQ(r.num_clusters, 1u);
  EXPECT_TRUE(r.suspicious[0] && r.suspicious[1] && r.suspicious[2]);
}

TEST(TemplateMatchingTest, EmptyCorpusAndEmptyDocs) {
  Corpus empty;
  TemplateMatchingResult r0 =
      TemplateMatching(empty, TemplateMatchingOptions{});
  EXPECT_TRUE(r0.labels.empty());

  Corpus c;
  c.Add("");
  c.Add("");
  c.Add("real words here for contrast purposes only");
  TemplateMatchingResult r = TemplateMatching(c, TemplateMatchingOptions{});
  // Empty docs never cluster (no shingles).
  EXPECT_EQ(r.labels[0], -1);
  EXPECT_EQ(r.labels[1], -1);
}

TEST(TemplateMatchingTest, PairCountersPopulated) {
  Corpus c;
  for (int i = 0; i < 5; ++i) {
    c.Add("identical spam text repeated again and again verbatim here");
  }
  TemplateMatchingResult r = TemplateMatching(c, TemplateMatchingOptions{});
  EXPECT_GT(r.candidate_pairs, 0u);
  EXPECT_GT(r.verified_pairs, 0u);
  EXPECT_LE(r.verified_pairs, r.candidate_pairs);
}

TEST(TemplateMatchingTest, PinnedOutputOnAblationCorpora) {
  // The ablation bench's A5 corpora (bench_ablation: 40 genuine + 40 bot
  // accounts, seed 89) under the default options. The counts pin the
  // whole path: signatures, banding, pair deduplication, verification
  // and components.
  struct Expected {
    double bot_edit_prob;
    size_t clusters;
    size_t candidate_pairs;
    size_t verified_pairs;
  };
  for (const Expected& e :
       {Expected{0.02, 30, 1125, 566}, Expected{0.10, 22, 768, 213}}) {
    TwitterGenOptions o;
    o.num_genuine_accounts = 40;
    o.num_bot_accounts = 40;
    o.bot_edit_prob = e.bot_edit_prob;
    const LabeledTweets data = TwitterGenerator(o).Generate(89);
    const TemplateMatchingResult r =
        TemplateMatching(data.corpus, TemplateMatchingOptions{});
    EXPECT_EQ(r.num_clusters, e.clusters) << "edit prob " << e.bot_edit_prob;
    EXPECT_EQ(r.candidate_pairs, e.candidate_pairs)
        << "edit prob " << e.bot_edit_prob;
    EXPECT_EQ(r.verified_pairs, e.verified_pairs)
        << "edit prob " << e.bot_edit_prob;
  }
}

TEST(TemplateMatchingDeathTest, BandsMustDivideHashes) {
  Corpus c;
  c.Add("a b c");
  TemplateMatchingOptions opts;
  opts.num_hashes = 64;
  opts.bands = 7;
  EXPECT_DEATH(TemplateMatching(c, opts), "Check failed");
}

}  // namespace
}  // namespace infoshield
