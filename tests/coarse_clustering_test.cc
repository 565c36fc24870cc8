#include "coarse/coarse_clustering.h"

#include <gtest/gtest.h>

#include "oracle/reference_coarse.h"

namespace infoshield {
namespace {

TEST(CoarseTest, NearDuplicatesGrouped) {
  Corpus c;
  c.Add("this is a great soap and the 5 dollar price is great");
  c.Add("this is a great chair and the 10 dollar price is great");
  c.Add("this is a great hat and the 3 dollar price is great");
  c.Add("completely different text about mountains rivers valleys oceans");
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  ASSERT_EQ(r.clusters.size(), 1u);
  EXPECT_EQ(r.clusters[0], (std::vector<DocId>{0, 1, 2}));
  EXPECT_EQ(r.singletons, (std::vector<DocId>{3}));
}

TEST(CoarseTest, DisjointTopicsSeparate) {
  Corpus c;
  c.Add("alpha beta gamma delta epsilon zeta eta theta");
  c.Add("alpha beta gamma delta epsilon zeta eta iota");
  c.Add("uno dos tres cuatro cinco seis siete ocho");
  c.Add("uno dos tres cuatro cinco seis siete nueve");
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  ASSERT_EQ(r.clusters.size(), 2u);
  EXPECT_EQ(r.clusters[0], (std::vector<DocId>{0, 1}));
  EXPECT_EQ(r.clusters[1], (std::vector<DocId>{2, 3}));
}

TEST(CoarseTest, EmptyCorpus) {
  Corpus c;
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  EXPECT_TRUE(r.clusters.empty());
  EXPECT_TRUE(r.singletons.empty());
}

TEST(CoarseTest, AllUniqueDocsAreSingletons) {
  Corpus c;
  c.Add("one red apple fell from tall tree yesterday morning quietly");
  c.Add("two blue birds flew over green hills during warm evening");
  c.Add("three old ships sailed across deep ocean under bright stars");
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  EXPECT_TRUE(r.clusters.empty());
  EXPECT_EQ(r.singletons.size(), 3u);
}

TEST(CoarseTest, ExactDuplicatesAlwaysCluster) {
  Corpus c;
  for (int i = 0; i < 5; ++i) {
    c.Add("identical spam message repeated many times verbatim");
  }
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  ASSERT_EQ(r.clusters.size(), 1u);
  EXPECT_EQ(r.clusters[0].size(), 5u);
}

TEST(CoarseTest, MinClusterSizeThreeDropsPairs) {
  Corpus c;
  c.Add("alpha beta gamma delta epsilon zeta eta theta");
  c.Add("alpha beta gamma delta epsilon zeta eta theta");
  CoarseOptions opts;
  opts.min_cluster_size = 3;
  CoarseClustering coarse(opts);
  CoarseResult r = coarse.Run(c);
  EXPECT_TRUE(r.clusters.empty());
  EXPECT_EQ(r.singletons.size(), 2u);
}

TEST(CoarseTest, PhraseDegreeCapBreaksHubs) {
  // All docs share one phrase; capping the degree at 1 means the second
  // and later occurrences add no edges, leaving everything singleton.
  Corpus c;
  for (int i = 0; i < 4; ++i) {
    c.Add("shared phrase here " + std::to_string(i) + " unique suffix " +
          std::to_string(i * 7));
  }
  CoarseOptions opts;
  opts.max_phrase_degree = 1;
  CoarseClustering coarse(opts);
  CoarseResult r = coarse.Run(c);
  EXPECT_TRUE(r.clusters.empty());
}

// Mixture corpus: several near-duplicate campaigns plus unique filler,
// big enough that the parallel path actually chunks the work.
Corpus MixtureCorpus() {
  Corpus c;
  for (int i = 0; i < 30; ++i) {
    c.Add("identical spam message blast number " + std::to_string(i % 5) +
          " contact now " + std::to_string(i % 5));
  }
  for (int i = 0; i < 10; ++i) {
    c.Add("wholly unique filler text piece " + std::to_string(i) + " " +
          std::to_string(i * 13 + 100) + " nothing shared");
  }
  return c;
}

// Everything the coarse stage promises to reproduce (stats excluded).
void ExpectSameResult(const CoarseResult& actual, const CoarseResult& want,
                      size_t threads) {
  EXPECT_EQ(actual.clusters, want.clusters) << "threads=" << threads;
  EXPECT_EQ(actual.singletons, want.singletons) << "threads=" << threads;
  EXPECT_EQ(actual.doc_top_phrases, want.doc_top_phrases)
      << "threads=" << threads;
  EXPECT_EQ(actual.num_edges, want.num_edges) << "threads=" << threads;
}

TEST(CoarseTest, ParallelMatchesSerialReference) {
  Corpus c = MixtureCorpus();
  const CoarseResult reference = oracle::ReferenceCoarse(c, CoarseOptions{});
  ASSERT_FALSE(reference.clusters.empty());
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    CoarseOptions opts;
    opts.num_threads = threads;
    ExpectSameResult(CoarseClustering(opts).Run(c), reference, threads);
  }
}

TEST(CoarseTest, ParallelMatchesSerialWithPhraseDegreeCap) {
  // The degree cap is order-sensitive: only a hub phrase's first
  // max_phrase_degree edges survive, so which documents "win" depends
  // on edge order. The production path replays its edges in the
  // reference's (document, phrase-rank) order and must therefore cap the
  // exact same edges.
  Corpus c;
  for (int i = 0; i < 12; ++i) {
    c.Add("hub shared phrase everywhere plus suffix " + std::to_string(i) +
          " " + std::to_string(i * 3 + 50));
  }
  CoarseOptions opts;
  opts.max_phrase_degree = 3;
  const CoarseResult reference = oracle::ReferenceCoarse(c, opts);
  for (size_t threads : {1u, 4u}) {
    opts.num_threads = threads;
    ExpectSameResult(CoarseClustering(opts).Run(c), reference, threads);
  }
}

TEST(CoarseTest, StatsCarryPerPhaseTimings) {
  Corpus c = MixtureCorpus();
  CoarseOptions opts;
  opts.num_threads = 4;
  CoarseResult r = CoarseClustering(opts).Run(c);
  EXPECT_GE(r.stats.index_seconds, 0.0);
  EXPECT_GE(r.stats.top_phrase_seconds, 0.0);
  EXPECT_GE(r.stats.graph_seconds, 0.0);
}

TEST(CoarseTest, EdgeCountPositiveWhenClustered) {
  Corpus c;
  c.Add("repeat me exactly word for word please thanks");
  c.Add("repeat me exactly word for word please thanks");
  CoarseClustering coarse;
  CoarseResult r = coarse.Run(c);
  EXPECT_GT(r.num_edges, 0u);
}

}  // namespace
}  // namespace infoshield
