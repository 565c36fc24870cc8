#include "msa/poa.h"

#include <gtest/gtest.h>

#include "oracle/reference_msa.h"
#include "util/random.h"

namespace infoshield {
namespace {

using Tokens = std::vector<TokenId>;

TEST(PoaTest, SingleSequenceIsItsOwnConsensus) {
  Tokens seq = {1, 2, 3, 4};
  PoaGraph g(seq);
  EXPECT_EQ(g.num_sequences(), 1u);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.ConsensusAtThreshold(0), seq);
  EXPECT_TRUE(g.ConsensusAtThreshold(1).empty());
}

TEST(PoaTest, IdenticalSequencesFuseCompletely) {
  Tokens seq = {5, 6, 7};
  PoaGraph g(seq);
  g.AddSequence(seq);
  g.AddSequence(seq);
  EXPECT_EQ(g.num_sequences(), 3u);
  EXPECT_EQ(g.node_count(), 3u);  // full fusion, no new nodes
  EXPECT_EQ(g.max_support(), 3u);
  EXPECT_EQ(g.ConsensusAtThreshold(2), seq);
}

TEST(PoaTest, SubstitutionCreatesBranch) {
  PoaGraph g({1, 2, 3});
  g.AddSequence({1, 9, 3});
  EXPECT_EQ(g.node_count(), 4u);  // 1,2,3 + branch node 9
  // Shared tokens have support 2; the variant tokens support 1.
  Tokens consensus = g.ConsensusAtThreshold(1);
  EXPECT_EQ(consensus, (Tokens{1, 3}));
}

TEST(PoaTest, InsertionAddsNode) {
  PoaGraph g({1, 2});
  g.AddSequence({1, 7, 2});
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.ConsensusAtThreshold(1), (Tokens{1, 2}));
  EXPECT_EQ(g.ConsensusAtThreshold(0), (Tokens{1, 7, 2}));
}

TEST(PoaTest, DeletionKeepsSupportLow) {
  PoaGraph g({1, 2, 3});
  g.AddSequence({1, 3});
  // Node 2 only supported by the first sequence.
  EXPECT_EQ(g.ConsensusAtThreshold(1), (Tokens{1, 3}));
}

TEST(PoaTest, MajorityConsensusEmerges) {
  // Template "a b c d" posted 3 times with one divergent document.
  PoaGraph g({10, 20, 30, 40});
  g.AddSequence({10, 20, 30, 40});
  g.AddSequence({10, 20, 99, 30, 40});
  g.AddSequence({77, 88});
  EXPECT_EQ(g.ConsensusAtThreshold(2), (Tokens{10, 20, 30, 40}));
}

TEST(PoaTest, EmptyFirstSequence) {
  PoaGraph g(Tokens{});
  EXPECT_EQ(g.node_count(), 0u);
  g.AddSequence({1, 2});
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.ConsensusAtThreshold(0), (Tokens{1, 2}));
}

TEST(PoaTest, EmptyLaterSequence) {
  PoaGraph g({1, 2});
  g.AddSequence({});
  EXPECT_EQ(g.num_sequences(), 2u);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(PoaTest, SupportNeverExceedsSequenceCount) {
  PoaGraph g({1, 2, 3});
  for (int i = 0; i < 5; ++i) g.AddSequence({1, 2, 3});
  EXPECT_EQ(g.max_support(), 6u);
  for (uint32_t s : g.SupportByTopoOrder()) {
    EXPECT_LE(s, g.num_sequences());
  }
}

TEST(PoaTest, ConsensusMonotoneInThreshold) {
  PoaGraph g({1, 2, 3, 4, 5});
  g.AddSequence({1, 2, 9, 4, 5});
  g.AddSequence({1, 2, 4, 5});
  size_t prev = g.ConsensusAtThreshold(0).size();
  for (size_t h = 1; h <= g.num_sequences(); ++h) {
    size_t cur = g.ConsensusAtThreshold(h).size();
    EXPECT_LE(cur, prev);
    prev = cur;
  }
}

// Property test: fusing random near-duplicates never breaks the DAG
// invariants (RecomputeTopoOrder CHECKs acyclicity internally) and the
// consensus at the max threshold is the intersection-ish backbone.
class PoaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoaPropertyTest, RandomNearDuplicatesKeepInvariants) {
  Rng rng(GetParam());
  Tokens base;
  const size_t len = 8 + rng.NextIndex(10);
  for (size_t i = 0; i < len; ++i) {
    base.push_back(static_cast<TokenId>(100 + i));
  }
  PoaGraph g(base);
  const size_t num_seqs = 3 + rng.NextIndex(6);
  for (size_t s = 0; s < num_seqs; ++s) {
    Tokens variant;
    for (TokenId t : base) {
      double r = rng.NextDouble();
      if (r < 0.05) continue;  // delete
      if (r < 0.10) {
        variant.push_back(static_cast<TokenId>(rng.NextIndex(50)));  // sub
      } else if (r < 0.15) {
        variant.push_back(static_cast<TokenId>(rng.NextIndex(50)));
        variant.push_back(t);  // insert
      } else {
        variant.push_back(t);
      }
    }
    g.AddSequence(variant);
  }
  EXPECT_EQ(g.num_sequences(), num_seqs + 1);
  // Threshold 0 keeps every node; thresholds weakly shrink the consensus.
  size_t prev = g.ConsensusAtThreshold(0).size();
  EXPECT_EQ(prev, g.node_count());
  for (size_t h = 1; h <= g.num_sequences(); ++h) {
    size_t cur = g.ConsensusAtThreshold(h).size();
    EXPECT_LE(cur, prev);
    prev = cur;
  }
  // Supports are within bounds.
  for (uint32_t s : g.SupportByTopoOrder()) {
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, g.num_sequences());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoaPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// A set of 2-8 sequences: a random base and near-duplicates of it, with
// now and then an unrelated sequence or an empty one.
std::vector<Tokens> NearDuplicateSet(Rng& rng, size_t len, size_t alphabet) {
  Tokens base;
  for (size_t i = 0; i < len; ++i) {
    base.push_back(static_cast<TokenId>(rng.NextIndex(alphabet)));
  }
  std::vector<Tokens> seqs{base};
  const size_t count = 2 + rng.NextIndex(7);
  while (seqs.size() < count) {
    const double kind = rng.NextDouble();
    Tokens v;
    if (kind < 0.1) {
      v.resize(rng.NextIndex(len + 1));
      for (TokenId& t : v) t = static_cast<TokenId>(rng.NextIndex(alphabet));
    } else if (kind < 0.9) {
      v = oracle::NearDuplicate(rng, base, alphabet);
    }
    seqs.push_back(std::move(v));
  }
  return seqs;
}

// Differential check against the full-table POA (tests/oracle/): the
// score-only DP with a re-derived traceback must build the same graph
// under every differential scoring, including tie-heavy {1, 0, -1}.
TEST(PoaOracleTest, MatchesFullTableReference) {
  Rng rng(515);
  for (const AlignmentScoring& scoring : oracle::kDifferentialScorings) {
    for (int trial = 0; trial < 25; ++trial) {
      const size_t len = trial == 0 ? 2000 : 1 + rng.NextIndex(60);
      const size_t alphabet = trial % 2 == 0 ? 5 : 40;
      const std::vector<Tokens> seqs = NearDuplicateSet(rng, len, alphabet);
      PoaGraph g(seqs[0], scoring);
      oracle::ReferencePoaGraph ref(seqs[0], scoring);
      for (size_t i = 1; i < seqs.size(); ++i) {
        g.AddSequence(seqs[i]);
        ref.AddSequence(seqs[i]);
      }
      ASSERT_EQ(g.node_count(), ref.node_count()) << "trial " << trial;
      EXPECT_EQ(g.SupportByTopoOrder(), ref.SupportByTopoOrder());
      for (size_t h = 0; h <= g.num_sequences(); ++h) {
        EXPECT_EQ(g.ConsensusAtThreshold(h), ref.ConsensusAtThreshold(h))
            << "trial " << trial << " h " << h;
      }
    }
  }
}

Tokens RandomTokens(Rng& rng, size_t len, size_t alphabet) {
  Tokens out;
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<TokenId>(rng.NextIndex(alphabet)));
  }
  return out;
}

Tokens Concat(Tokens a, const Tokens& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

Tokens Slice(const Tokens& a, size_t begin, size_t end) {
  return Tokens(a.begin() + begin, a.begin() + end);
}

// Fuses `seqs` into a PoaGraph and into the full-table reference and
// checks that they agree: node count, supports and Sel(A, h) for every
// h. Returns the DP cells the graph filled; `*full` gets the cells the
// full tables hold (nodes x |seq| per fusion).
uint64_t FuseAndCompare(const std::vector<Tokens>& seqs,
                        const AlignmentScoring& scoring, uint64_t* full) {
  PoaGraph g(seqs[0], scoring);
  oracle::ReferencePoaGraph ref(seqs[0], scoring);
  *full = 0;
  for (size_t i = 1; i < seqs.size(); ++i) {
    *full += g.node_count() * seqs[i].size();
    g.AddSequence(seqs[i]);
    ref.AddSequence(seqs[i]);
  }
  EXPECT_EQ(g.node_count(), ref.node_count());
  EXPECT_EQ(g.SupportByTopoOrder(), ref.SupportByTopoOrder());
  for (size_t h = 0; h <= g.num_sequences(); ++h) {
    EXPECT_EQ(g.ConsensusAtThreshold(h), ref.ConsensusAtThreshold(h))
        << "h " << h;
  }
  return g.dp_cells();
}

// Path: per-node bands on a graph with bubbles of unequal length. The
// 40- and 80-token deletion blocks add edges that skip part of the base,
// so every later node has pre_min < pre_max, and the 30-token insertion
// block a detour longer than the path it bypasses. Each fusion
// certifies a band far narrower than the table.
TEST(PoaOracleTest, UnequalBubblesGetPerNodeBands) {
  Rng rng(1500);
  const Tokens base = RandomTokens(rng, 1500, 5000);
  Tokens substituted = base;
  for (TokenId& t : substituted) {
    if (rng.NextDouble() < 0.02) t = static_cast<TokenId>(rng.NextIndex(5000));
  }
  const std::vector<Tokens> seqs = {
      base,
      Concat(Slice(base, 0, 500), Slice(base, 540, 1500)),
      Concat(Concat(Slice(base, 0, 1000), RandomTokens(rng, 30, 5000)),
             Slice(base, 1000, 1500)),
      substituted,
      Concat(Slice(base, 0, 480), Slice(base, 560, 1500))};
  uint64_t full = 0;
  const uint64_t cells = FuseAndCompare(seqs, AlignmentScoring{}, &full);
  EXPECT_LT(cells, full / 4);
}

// Path: two doublings. Fusing S + B' into the graph of B + S (|B| =
// |B'| = 150, |S| = 1,000): the optimal path skips B and inserts B', so
// its cells need 300 gaps, beyond the slacks 128 and 256; the third band
// (512) certifies. Accepting an earlier band would fuse S shifted.
TEST(PoaOracleTest, BlockShiftDoublesTheSlackTwice) {
  Rng rng(8);
  const Tokens block = RandomTokens(rng, 150, 5000);
  const Tokens shared = RandomTokens(rng, 1000, 5000);
  const Tokens other = RandomTokens(rng, 150, 5000);
  uint64_t full = 0;
  const uint64_t cells = FuseAndCompare(
      {Concat(block, shared), Concat(shared, other)}, AlignmentScoring{},
      &full);
  EXPECT_LT(cells, full);
}

// Path: full table at once. With 2·gap >= max(match, mismatch) no band
// can be certified.
TEST(PoaOracleTest, ScoringWithoutABoundFillsTheFullTable) {
  Rng rng(9);
  const Tokens base = RandomTokens(rng, 300, 50);
  uint64_t full = 0;
  const uint64_t cells =
      FuseAndCompare({base, oracle::NearDuplicate(rng, base, 50),
                      oracle::NearDuplicate(rng, base, 50)},
                     AlignmentScoring{0, -1, 0}, &full);
  EXPECT_EQ(cells, full);
}

// Path: full table after every band fails; the failed passes count.
TEST(PoaOracleTest, UnrelatedSequenceDoublesToTheFullTable) {
  Rng rng(12);
  uint64_t full = 0;
  const uint64_t cells = FuseAndCompare(
      {RandomTokens(rng, 500, 1000), RandomTokens(rng, 500, 1000)},
      AlignmentScoring{}, &full);
  EXPECT_GT(cells, full);
}

// Paths: a length gap beyond the first slack. A 40-token sequence
// against a 3,000-node graph (or the reverse) needs dist(m, [Lmin,
// Lmax]) = 2,960 gaps, so the first slack already covers every cell:
// the full table, once. A 300-token one gets bands around that gap and
// certifies them at once.
TEST(PoaOracleTest, LengthGapWiderThanTheFirstBand) {
  Rng rng(10);
  const Tokens a = RandomTokens(rng, 3000, 2000);
  const Tokens short_side = Slice(a, 1000, 1040);
  Tokens mid_side = Slice(a, 1000, 1300);
  for (TokenId& t : mid_side) {
    if (rng.NextDouble() < 0.02) t = static_cast<TokenId>(rng.NextIndex(2000));
  }
  uint64_t full = 0;
  EXPECT_EQ(FuseAndCompare({a, short_side}, AlignmentScoring{}, &full), full);
  EXPECT_EQ(FuseAndCompare({short_side, a}, AlignmentScoring{}, &full), full);
  EXPECT_LT(FuseAndCompare({a, mid_side}, AlignmentScoring{}, &full), full);
  EXPECT_LT(FuseAndCompare({mid_side, a}, AlignmentScoring{}, &full), full);
}

// Path: the second band ties its bound exactly, so it is rejected and
// the third is the full table. The graph is a = V + U, the sequence
// b = W + V (|V| = 65, |U| = 129, |W| = 130, all tokens distinct but
// one planted match a[11] = b[10] on diagonal -1). Every path needs 1
// gap; the slacks are 129, then 258. Inside the second band the best
// path uses only the planted match: 1 match, 192 mismatches, 3 gaps =
// -194. The path that inserts W, matches V and skips U has 259 gaps:
// 65 - 259 = -194, exactly the bound. The full traceback leaves the
// sink by a skip on that path; the band's path does not, so accepting a
// tie would fuse b differently.
TEST(PoaOracleTest, BandThatTiesItsBoundIsRejected) {
  Tokens v(65);
  Tokens u(129);
  Tokens w(130);
  TokenId next = 0;
  for (Tokens* part : {&v, &u, &w}) {
    for (TokenId& t : *part) t = next++;
  }
  w[10] = v[11];
  uint64_t full = 0;
  const uint64_t cells =
      FuseAndCompare({Concat(v, u), Concat(w, v)}, AlignmentScoring{}, &full);
  EXPECT_GT(cells, full);  // two rejected bands, then the full table
}

}  // namespace
}  // namespace infoshield
