#include "msa/pairwise.h"

#include <utility>

#include <gtest/gtest.h>

#include "oracle/reference_msa.h"
#include "util/random.h"

namespace infoshield {
namespace {

using Tokens = std::vector<TokenId>;

Tokens RandomTokens(Rng& rng, size_t len, size_t alphabet) {
  Tokens out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<TokenId>(rng.NextIndex(alphabet)));
  }
  return out;
}

TEST(NeedlemanWunschTest, IdenticalSequencesAllMatch) {
  Tokens a = {1, 2, 3, 4};
  Alignment al = NeedlemanWunsch(a, a);
  EXPECT_EQ(al.length(), 4u);
  EXPECT_EQ(al.matches(), 4u);
  EXPECT_EQ(al.unmatched(), 0u);
}

TEST(NeedlemanWunschTest, SingleSubstitution) {
  Alignment al = NeedlemanWunsch({1, 2, 3}, {1, 9, 3});
  EXPECT_EQ(al.matches(), 2u);
  EXPECT_EQ(al.substitutions(), 1u);
  EXPECT_EQ(al.length(), 3u);
}

TEST(NeedlemanWunschTest, InsertionAndDeletion) {
  // b has an extra token -> one insertion.
  Alignment ins = NeedlemanWunsch({1, 2}, {1, 5, 2});
  EXPECT_EQ(ins.insertions(), 1u);
  EXPECT_EQ(ins.matches(), 2u);
  // b is missing a token -> one deletion.
  Alignment del = NeedlemanWunsch({1, 5, 2}, {1, 2});
  EXPECT_EQ(del.deletions(), 1u);
  EXPECT_EQ(del.matches(), 2u);
}

TEST(NeedlemanWunschTest, EmptySequences) {
  Alignment both = NeedlemanWunsch({}, {});
  EXPECT_EQ(both.length(), 0u);
  Alignment left = NeedlemanWunsch({1, 2}, {});
  EXPECT_EQ(left.deletions(), 2u);
  Alignment right = NeedlemanWunsch({}, {1, 2});
  EXPECT_EQ(right.insertions(), 2u);
}

TEST(NeedlemanWunschTest, CompletelyDifferent) {
  Alignment al = NeedlemanWunsch({1, 2, 3}, {4, 5, 6});
  EXPECT_EQ(al.matches(), 0u);
  // With match=1/mismatch=-1/gap=-1, substitutions and ins+del pairs tie
  // at the same score; either way all columns are unmatched.
  EXPECT_EQ(al.unmatched(), al.length());
}

TEST(NeedlemanWunschTest, ConsistencyCheckerAcceptsTruth) {
  Tokens a = {1, 2, 3, 4, 5};
  Tokens b = {1, 3, 4, 9, 5};
  Alignment al = NeedlemanWunsch(a, b);
  EXPECT_TRUE(AlignmentIsConsistent(al, a, b));
}

TEST(NeedlemanWunschTest, ConsistencyCheckerRejectsWrongPair) {
  Tokens a = {1, 2, 3};
  Tokens b = {1, 2, 4};
  Alignment al = NeedlemanWunsch(a, b);
  EXPECT_FALSE(AlignmentIsConsistent(al, a, a));
  EXPECT_FALSE(AlignmentIsConsistent(al, b, b));
}

TEST(NeedlemanWunschTest, PaperDoc4Example) {
  // Template: "this is a great X and the Y dollar price is great"
  // Doc4:     "this is great blue pen and the 3 dollar price is so good"
  // The paper (§III-A) describes doc4 as one deletion (a), insertions,
  // and a substitution (great -> good). Verify the alignment is
  // consistent and the edit structure is in that ballpark.
  Vocabulary v;
  auto intern_all = [&v](std::initializer_list<const char*> words) {
    Tokens out;
    for (const char* w : words) out.push_back(v.Intern(w));
    return out;
  };
  Tokens tmpl = intern_all({"this", "is", "a", "great", "soap", "and",
                            "the", "5", "dollar", "price", "is", "great"});
  Tokens doc4 = intern_all({"this", "is", "great", "blue", "pen", "and",
                            "the", "3", "dollar", "price", "is", "so",
                            "good"});
  Alignment al = NeedlemanWunsch(tmpl, doc4);
  EXPECT_TRUE(AlignmentIsConsistent(al, tmpl, doc4));
  EXPECT_GE(al.matches(), 8u);  // the shared backbone
}

// Property test over random sequences: reconstruction always holds and
// the column count never exceeds |a| + |b|.
class PairwisePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PairwisePropertyTest, RandomPairsReconstruct) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Tokens a;
    Tokens b;
    const size_t la = rng.NextIndex(20);
    const size_t lb = rng.NextIndex(20);
    for (size_t i = 0; i < la; ++i) {
      a.push_back(static_cast<TokenId>(rng.NextIndex(8)));
    }
    for (size_t i = 0; i < lb; ++i) {
      b.push_back(static_cast<TokenId>(rng.NextIndex(8)));
    }
    Alignment al = NeedlemanWunsch(a, b);
    EXPECT_TRUE(AlignmentIsConsistent(al, a, b));
    EXPECT_LE(al.length(), a.size() + b.size());
    EXPECT_GE(al.length(), std::max(a.size(), b.size()));
    EXPECT_EQ(al.matches() + al.substitutions() + al.insertions() +
                  al.deletions(),
              al.length());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairwisePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 1234));

// The identical-sequence fast path bypasses the DP table; it must
// produce exactly what the DP's tie-breaking (diagonal first) would.
// A negative match score defeats the fast-path gate, so comparing the
// two scorings' structure on identical inputs pins the contract.
TEST(NeedlemanWunschTest, IdenticalFastPathMatchesDpTraceback) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    Tokens a;
    const size_t len = 1 + rng.NextIndex(30);
    for (size_t i = 0; i < len; ++i) {
      a.push_back(static_cast<TokenId>(rng.NextIndex(6)));
    }
    // Default scoring takes the fast path.
    Alignment fast = NeedlemanWunsch(a, a);
    EXPECT_EQ(fast.matches(), a.size());
    EXPECT_EQ(fast.length(), a.size());
    EXPECT_TRUE(AlignmentIsConsistent(fast, a, a));
    // match < 0 fails the gate and runs the full DP; for identical
    // sequences the DP's diagonal-first tie-break still yields all
    // diagonal columns, which for a == b are all matches.
    AlignmentScoring dp_scoring;
    dp_scoring.match = -1;
    dp_scoring.mismatch = -2;
    Alignment dp = NeedlemanWunsch(a, a, dp_scoring);
    ASSERT_EQ(dp.ops.size(), fast.ops.size());
    for (size_t i = 0; i < dp.ops.size(); ++i) {
      EXPECT_EQ(dp.ops[i].type, fast.ops[i].type);
      EXPECT_EQ(dp.ops[i].a_token, fast.ops[i].a_token);
      EXPECT_EQ(dp.ops[i].b_token, fast.ops[i].b_token);
    }
  }
}

TEST(NeedlemanWunschTest, ReusedWorkspaceMatchesFreshCalls) {
  Rng rng(14);
  AlignmentWorkspace ws;
  for (int trial = 0; trial < 20; ++trial) {
    Tokens a;
    Tokens b;
    const size_t la = rng.NextIndex(25);
    const size_t lb = rng.NextIndex(25);
    for (size_t i = 0; i < la; ++i) {
      a.push_back(static_cast<TokenId>(rng.NextIndex(8)));
    }
    for (size_t i = 0; i < lb; ++i) {
      b.push_back(static_cast<TokenId>(rng.NextIndex(8)));
    }
    // Alternating sizes across trials: the workspace shrinks and grows,
    // and stale contents from the previous trial must never leak.
    Alignment with_ws = NeedlemanWunsch(a, b, AlignmentScoring{}, &ws);
    Alignment fresh = NeedlemanWunsch(a, b);
    ASSERT_EQ(with_ws.ops.size(), fresh.ops.size());
    for (size_t i = 0; i < fresh.ops.size(); ++i) {
      EXPECT_EQ(with_ws.ops[i].type, fresh.ops[i].type);
      EXPECT_EQ(with_ws.ops[i].a_token, fresh.ops[i].a_token);
      EXPECT_EQ(with_ws.ops[i].b_token, fresh.ops[i].b_token);
    }
  }
}

// Differential check against the full-table DP (tests/oracle/): the
// two-row kernel must produce the same ops under every differential
// scoring, on
// near-duplicate pairs up to ~2k tokens, random pairs over tiny
// alphabets (tie-heavy) and identical pairs (the fast path).
TEST(NeedlemanWunschOracleTest, MatchesFullTableReference) {
  Rng rng(2024);
  AlignmentWorkspace ws;
  for (const AlignmentScoring& scoring : oracle::kDifferentialScorings) {
    for (int trial = 0; trial < 60; ++trial) {
      const size_t len = trial < 3 ? 1500 + rng.NextIndex(600)
                                   : rng.NextIndex(120);
      const size_t alphabet = trial % 2 == 0 ? 4 : 50;
      const Tokens a = RandomTokens(rng, len, alphabet);
      Tokens b;
      switch (trial % 3) {
        case 0:
          b = oracle::NearDuplicate(rng, a, alphabet);
          break;
        case 1:
          b = RandomTokens(rng, rng.NextIndex(120), alphabet);
          break;
        default:
          b = a;
          break;
      }
      const Alignment expected =
          oracle::ReferenceNeedlemanWunsch(a, b, scoring);
      EXPECT_EQ(NeedlemanWunsch(a, b, scoring, &ws).ops, expected.ops)
          << "trial " << trial << " |a|=" << a.size() << " |b|=" << b.size();
      EXPECT_EQ(NeedlemanWunsch(a, b, scoring).ops, expected.ops);
    }
  }
}

// The workspace holds two band rows and 2-bit moves for the band the
// score certifies, not (|a|+1)(|b|+1) tables nor full-width rows.
// NearDuplicate edits ~15% of the tokens, so this pair certifies the
// half-band 1,024 (after four doublings from 64): 2,049 diagonals, so
// 4,100 ints and ~3.1 MB of moves instead of 12,002 ints and ~9 MB.
TEST(NeedlemanWunschTest, WorkspaceHoldsTwoRowsAndTwoBitMoves) {
  Rng rng(6000);
  const Tokens a = RandomTokens(rng, 6000, 1000);
  Tokens b = oracle::NearDuplicate(rng, a, 1000);
  b.resize(6000, 7);
  ASSERT_NE(a, b);
  AlignmentWorkspace ws;
  const Alignment al = NeedlemanWunsch(a, b, AlignmentScoring{}, &ws);
  EXPECT_TRUE(AlignmentIsConsistent(al, a, b));
  constexpr size_t kBand = 2 * 1024 + 1;
  EXPECT_LE(ws.score.size(), 2 * (kBand + 1));
  EXPECT_LE(ws.move.size(), a.size() * ((kBand + 3) / 4));
}

// The workspace counts the DP cells it fills. A long pair with 2%
// substitutions certifies the first band, far below |a|·|b|; a pair
// that fits the first band fills the full table, once.
TEST(NeedlemanWunschTest, CountsFilledDpCells) {
  Rng rng(7);
  const Tokens a = RandomTokens(rng, 4000, 5000);
  Tokens b = a;
  for (TokenId& t : b) {
    if (rng.NextDouble() < 0.02) t = static_cast<TokenId>(rng.NextIndex(5000));
  }
  AlignmentWorkspace ws;
  EXPECT_EQ(NeedlemanWunsch(a, b, AlignmentScoring{}, &ws).ops,
            oracle::ReferenceNeedlemanWunsch(a, b).ops);
  EXPECT_GT(ws.cells, 0u);
  EXPECT_LE(ws.cells, a.size() * b.size() / 8);

  const Tokens c = RandomTokens(rng, 20, 5);
  const Tokens d = RandomTokens(rng, 20, 5);
  AlignmentWorkspace small;
  NeedlemanWunsch(c, d, AlignmentScoring{}, &small);
  EXPECT_EQ(small.cells, 400u);
  // Identical sequences skip the DP.
  NeedlemanWunsch(c, c, AlignmentScoring{}, &small);
  EXPECT_EQ(small.cells, 400u);
}

Tokens Concat(Tokens a, const Tokens& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Path: two doublings. a = B + S and b = S + B' with |B| = |B'| = 150
// and |S| = 1,000: the optimal path runs on diagonal -150 (or +150 with
// the roles swapped), outside the half-bands 64 and 128, so only the
// third band (256) certifies. Accepting an earlier band would align S
// against itself shifted and change the ops.
TEST(NeedlemanWunschOracleTest, BlockShiftDoublesTheBandTwice) {
  Rng rng(8);
  const Tokens block = RandomTokens(rng, 150, 5000);
  const Tokens shared = RandomTokens(rng, 1000, 5000);
  const Tokens other = RandomTokens(rng, 150, 5000);
  const Tokens a = Concat(block, shared);
  const Tokens b = Concat(shared, other);
  for (const auto& [x, y] : {std::pair(a, b), std::pair(b, a)}) {
    AlignmentWorkspace ws;
    EXPECT_EQ(NeedlemanWunsch(x, y, AlignmentScoring{}, &ws).ops,
              oracle::ReferenceNeedlemanWunsch(x, y).ops);
    EXPECT_EQ(ws.verdict.size(), 2 * 256 + 1u);  // the band's width
    EXPECT_LT(ws.cells, x.size() * y.size());
  }
}

// Path: full table at once. With 2·gap >= max(match, mismatch) a path
// loses nothing per extra gap pair, so no band can be certified; under
// {0, -1, 0} gaps are free and ties abound.
TEST(NeedlemanWunschOracleTest, ScoringWithoutABoundFillsTheFullTable) {
  Rng rng(9);
  const AlignmentScoring free_gaps{0, -1, 0};
  for (int trial = 0; trial < 4; ++trial) {
    const Tokens a = RandomTokens(rng, 300, trial < 2 ? 4 : 50);
    const Tokens b = oracle::NearDuplicate(rng, a, trial < 2 ? 4 : 50);
    AlignmentWorkspace ws;
    EXPECT_EQ(NeedlemanWunsch(a, b, free_gaps, &ws).ops,
              oracle::ReferenceNeedlemanWunsch(a, b, free_gaps).ops);
    EXPECT_EQ(ws.cells, a.size() * b.size());
  }
}

// Path: full table after every band fails. Unrelated sequences score
// far below any band's bound, so the band doubles until it covers the
// table; the failed passes count as filled cells.
TEST(NeedlemanWunschOracleTest, UnrelatedPairDoublesToTheFullTable) {
  Rng rng(12);
  const Tokens a = RandomTokens(rng, 500, 1000);
  const Tokens b = RandomTokens(rng, 500, 1000);
  AlignmentWorkspace ws;
  EXPECT_EQ(NeedlemanWunsch(a, b, AlignmentScoring{}, &ws).ops,
            oracle::ReferenceNeedlemanWunsch(a, b).ops);
  EXPECT_EQ(ws.verdict.size(), b.size() + 1);
  EXPECT_GT(ws.cells, a.size() * b.size());
}

// Paths: |Δ| = ||b| - |a|| beyond the first band's half-width. A
// 40-token side fits the first band whole (full table, one pass); a
// 300-token side gets the band [min(0,Δ) - 64, max(0,Δ) + 64], which
// holds every diagonal the short side can reach, and certifies at once.
TEST(NeedlemanWunschOracleTest, LengthGapWiderThanTheFirstBand) {
  Rng rng(10);
  const Tokens a = RandomTokens(rng, 3000, 2000);
  const Tokens short_side(a.begin() + 1000, a.begin() + 1040);
  Tokens mid_side(a.begin() + 1000, a.begin() + 1300);
  for (TokenId& t : mid_side) {
    if (rng.NextDouble() < 0.02) t = static_cast<TokenId>(rng.NextIndex(2000));
  }
  for (const auto& [x, y] :
       {std::pair(a, short_side), std::pair(short_side, a)}) {
    AlignmentWorkspace ws;
    EXPECT_EQ(NeedlemanWunsch(x, y, AlignmentScoring{}, &ws).ops,
              oracle::ReferenceNeedlemanWunsch(x, y).ops);
    EXPECT_EQ(ws.cells, x.size() * y.size());
  }
  for (const auto& [x, y] : {std::pair(a, mid_side), std::pair(mid_side, a)}) {
    AlignmentWorkspace ws;
    EXPECT_EQ(NeedlemanWunsch(x, y, AlignmentScoring{}, &ws).ops,
              oracle::ReferenceNeedlemanWunsch(x, y).ops);
    EXPECT_LT(ws.cells, x.size() * y.size());
  }
}

// Path: the first band ties its bound exactly, so it is rejected and the
// doubled band is the full table. a = V + U and b = W + V (|V| = 33,
// |U| = |W| = 65, all tokens distinct but one planted match
// a[97] = b[96]). Inside the half-band 64 the best path uses only the
// planted match: 1 match, 96 mismatches, 2 gaps = -97. The path that
// inserts W, matches V and deletes U touches diagonal 65 with 130 gaps:
// 33 - 130 = -97, exactly the bound. The full traceback leaves (98, 98)
// by `up` on that path; the band's path leaves it by `left`, so
// accepting a tie would change the ops.
TEST(NeedlemanWunschOracleTest, BandThatTiesItsBoundIsRejected) {
  Tokens v(33);
  Tokens u(65);
  Tokens w(65);
  TokenId next = 0;
  for (Tokens* part : {&v, &u, &w}) {
    for (TokenId& t : *part) t = next++;
  }
  u.back() = v[31];
  const Tokens a = Concat(v, u);
  const Tokens b = Concat(w, v);
  AlignmentWorkspace ws;
  EXPECT_EQ(NeedlemanWunsch(a, b, AlignmentScoring{}, &ws).ops,
            oracle::ReferenceNeedlemanWunsch(a, b).ops);
  EXPECT_EQ(ws.verdict.size(), b.size() + 1);
}

}  // namespace
}  // namespace infoshield
