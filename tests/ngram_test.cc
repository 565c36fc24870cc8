#include "text/ngram.h"

#include <gtest/gtest.h>

namespace infoshield {
namespace {

TEST(HashNgramTest, DeterministicAndOrderSensitive) {
  TokenId a[] = {1, 2, 3};
  TokenId b[] = {3, 2, 1};
  EXPECT_EQ(HashNgram(a, 3), HashNgram(a, 3));
  EXPECT_NE(HashNgram(a, 3), HashNgram(b, 3));
}

TEST(HashNgramTest, LengthSeedingAvoidsPrefixCollision) {
  // (5) as a unigram must differ from (5, 0) as a bigram even though the
  // trailing token id is all-zero bytes.
  TokenId uni[] = {5};
  TokenId bi[] = {5, 0};
  EXPECT_NE(HashNgram(uni, 1), HashNgram(bi, 2));
}

}  // namespace
}  // namespace infoshield
