#include "msa/profile_msa.h"

#include <gtest/gtest.h>

#include "oracle/reference_msa.h"
#include "util/random.h"

namespace infoshield {
namespace {

using Tokens = std::vector<TokenId>;

TEST(ProfileMsaTest, SingleSequenceIsItsOwnConsensus) {
  Tokens seq = {1, 2, 3};
  ProfileMsa msa(seq);
  EXPECT_EQ(msa.num_sequences(), 1u);
  EXPECT_EQ(msa.column_count(), 3u);
  EXPECT_EQ(msa.ConsensusAtThreshold(0), seq);
  EXPECT_TRUE(msa.ConsensusAtThreshold(1).empty());
}

TEST(ProfileMsaTest, IdenticalSequencesKeepColumns) {
  Tokens seq = {5, 6, 7};
  ProfileMsa msa(seq);
  msa.AddSequence(seq);
  msa.AddSequence(seq);
  EXPECT_EQ(msa.column_count(), 3u);
  EXPECT_EQ(msa.ConsensusAtThreshold(2), seq);
}

TEST(ProfileMsaTest, SubstitutionSharesColumn) {
  // Unlike POA, a profile blurs alternatives into one column: the
  // substituted token occupies the same column as the original.
  ProfileMsa msa({1, 2, 3});
  msa.AddSequence({1, 9, 3});
  EXPECT_EQ(msa.column_count(), 3u);
  // At threshold 1 the middle column ties 1-1 and stays out.
  EXPECT_EQ(msa.ConsensusAtThreshold(1), (Tokens{1, 3}));
  // At threshold 0 the dominant (tie -> smaller id) token appears.
  EXPECT_EQ(msa.ConsensusAtThreshold(0), (Tokens{1, 2, 3}));
}

TEST(ProfileMsaTest, InsertionAddsColumn) {
  ProfileMsa msa({1, 2});
  msa.AddSequence({1, 7, 2});
  EXPECT_EQ(msa.column_count(), 3u);
  EXPECT_EQ(msa.ConsensusAtThreshold(1), (Tokens{1, 2}));
}

TEST(ProfileMsaTest, MajorityConsensus) {
  ProfileMsa msa({10, 20, 30});
  msa.AddSequence({10, 20, 30});
  msa.AddSequence({10, 99, 30});
  // "support > h": the middle column's dominant token 20 has count 2.
  EXPECT_EQ(msa.ConsensusAtThreshold(1), (Tokens{10, 20, 30}));
  EXPECT_EQ(msa.ConsensusAtThreshold(2), (Tokens{10, 30}));
}

TEST(ProfileMsaTest, EmptySequences) {
  ProfileMsa msa(Tokens{});
  EXPECT_EQ(msa.column_count(), 0u);
  msa.AddSequence({4, 5});
  EXPECT_EQ(msa.ConsensusAtThreshold(0), (Tokens{4, 5}));
  msa.AddSequence({});
  EXPECT_EQ(msa.num_sequences(), 3u);
  EXPECT_EQ(msa.column_count(), 2u);
}

TEST(ProfileMsaTest, ConsensusMonotoneInThreshold) {
  Rng rng(77);
  Tokens base;
  for (int i = 0; i < 12; ++i) base.push_back(100 + i);
  ProfileMsa msa(base);
  for (int s = 0; s < 6; ++s) {
    Tokens v;
    for (TokenId t : base) {
      if (rng.NextBernoulli(0.1)) continue;
      v.push_back(t);
    }
    msa.AddSequence(v);
  }
  size_t prev = msa.ConsensusAtThreshold(0).size();
  for (size_t h = 1; h <= msa.num_sequences(); ++h) {
    size_t cur = msa.ConsensusAtThreshold(h).size();
    EXPECT_LE(cur, prev);
    prev = cur;
  }
}

TEST(ProfileMsaTest, WorksAsMsaAlignerInterface) {
  std::unique_ptr<MsaAligner> aligner =
      std::make_unique<ProfileMsa>(Tokens{1, 2, 3});
  aligner->AddSequence({1, 2, 3});
  EXPECT_EQ(aligner->num_sequences(), 2u);
  EXPECT_EQ(aligner->ConsensusAtThreshold(1), (Tokens{1, 2, 3}));
}

// Differential check against the full-table profile DP (tests/oracle/):
// the shared two-row kernel must build the same profile under every
// differential scoring. Sets of 2-8 near-duplicates; the first trial of
// each scoring is 1k tokens.
TEST(ProfileMsaOracleTest, MatchesFullTableReference) {
  Rng rng(616);
  for (const AlignmentScoring& scoring : oracle::kDifferentialScorings) {
    for (int trial = 0; trial < 25; ++trial) {
      const size_t len = trial == 0 ? 1000 : 1 + rng.NextIndex(60);
      const size_t alphabet = trial % 2 == 0 ? 5 : 40;
      Tokens base;
      for (size_t i = 0; i < len; ++i) {
        base.push_back(static_cast<TokenId>(rng.NextIndex(alphabet)));
      }
      ProfileMsa msa(base, scoring);
      oracle::ReferenceProfileMsa ref(base, scoring);
      const size_t count = 2 + rng.NextIndex(7);
      for (size_t s = 1; s < count; ++s) {
        const Tokens v = oracle::NearDuplicate(rng, base, alphabet);
        msa.AddSequence(v);
        ref.AddSequence(v);
      }
      ASSERT_EQ(msa.column_count(), ref.column_count()) << "trial " << trial;
      for (size_t h = 0; h <= msa.num_sequences(); ++h) {
        EXPECT_EQ(msa.ConsensusAtThreshold(h), ref.ConsensusAtThreshold(h))
            << "trial " << trial << " h " << h;
      }
    }
  }
}

}  // namespace
}  // namespace infoshield
