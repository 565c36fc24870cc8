#include "text/tokenizer.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/reference_text.h"

namespace infoshield {
namespace {

TEST(TokenizerTest, BasicWhitespace) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("hello world"),
            (std::vector<std::string>{"hello", "world"}));
}

TEST(TokenizerTest, LowercasesAscii) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("Hello WORLD"),
            (std::vector<std::string>{"hello", "world"}));
}

TEST(TokenizerTest, StripsPunctuation) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("great, soap! (cheap)"),
            (std::vector<std::string>{"great", "soap", "cheap"}));
}

TEST(TokenizerTest, KeepsDigitsAndMixedTokens) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("call 555-1234 now"),
            (std::vector<std::string>{"call", "555", "1234", "now"}));
  EXPECT_EQ(t.Tokenize("30K"), (std::vector<std::string>{"30k"}));
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("  \t\n ").empty());
  EXPECT_TRUE(t.Tokenize("...!!!").empty());
}

TEST(TokenizerTest, PreservesUtf8Sequences) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("sureste de Méjico"),
            (std::vector<std::string>{"sureste", "de", "méjico"}));
  // Japanese text survives as a single token per whitespace run.
  EXPECT_EQ(t.Tokenize("こんにちは 世界"),
            (std::vector<std::string>{"こんにちは", "世界"}));
}

TEST(TokenizerTest, UrlsStayIntact) {
  Tokenizer t;
  std::vector<std::string> toks = t.Tokenize("visit http://scam.com today");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "visit");
  EXPECT_EQ(toks[1], "http://scam.com");
  EXPECT_EQ(toks[2], "today");
}

TEST(TokenizerTest, HttpsUrls) {
  Tokenizer t;
  std::vector<std::string> toks = t.Tokenize("see https://t.co/AbC123");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[1], "https://t.co/abc123");
}

// Fuzz-style property test: arbitrary byte soup must tokenize without
// crashing, produce non-empty tokens, and intern into valid vocab ids.
class TokenizerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerFuzzTest, RandomBytesAreSafe) {
  // Simple xorshift so this file needs no extra includes.
  uint64_t state = GetParam() * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  Tokenizer t;
  for (int trial = 0; trial < 50; ++trial) {
    std::string input;
    const size_t len = next() % 120;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(next() & 0xFF));
    }
    std::vector<std::string> tokens = t.Tokenize(input);
    size_t total_bytes = 0;
    for (const std::string& tok : tokens) {
      EXPECT_FALSE(tok.empty());
      total_bytes += tok.size();
    }
    // Tokens never contain more bytes than the input.
    EXPECT_LE(total_bytes, input.size());
    // Tokenization is deterministic.
    EXPECT_EQ(t.Tokenize(input), tokens);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TokenizerTest, TruncatedUtf8AtEndOfInput) {
  Tokenizer t;
  // 0xC3 starts a 2-byte sequence but the input ends: must not crash or
  // read out of bounds; the stray lead byte is copied as one byte.
  std::string truncated = "abc";
  truncated.push_back(static_cast<char>(0xC3));
  std::vector<std::string> toks = t.Tokenize(truncated);
  ASSERT_EQ(toks.size(), 1u);
  std::string expected = "abc";
  expected.push_back(static_cast<char>(0xC3));
  EXPECT_EQ(toks[0], expected);
}

TEST(TokenizerTest, MalformedLeadByteDoesNotSwallowAscii) {
  Tokenizer t;
  // 0xC3 claims a 2-byte sequence but is followed by ASCII 'D', which is
  // not a continuation byte (10xxxxxx). The lead byte must degrade to a
  // single-byte copy and the ASCII must go through normal handling
  // (lowercasing proves it wasn't swallowed as raw sequence payload).
  std::string input;
  input.push_back(static_cast<char>(0xC3));
  input += "Def";
  std::vector<std::string> toks = t.Tokenize(input);
  ASSERT_EQ(toks.size(), 1u);
  std::string expected;
  expected.push_back(static_cast<char>(0xC3));
  expected += "def";
  EXPECT_EQ(toks[0], expected);
}

TEST(TokenizerTest, TruncatedThreeByteSequenceMidInput) {
  Tokenizer t;
  // 0xE3 claims 3 bytes but only one valid continuation follows before
  // ASCII resumes: both malformed bytes degrade to single-byte copies
  // and the ASCII is lowercased, not captured.
  std::string input;
  input.push_back(static_cast<char>(0xE3));
  input.push_back(static_cast<char>(0x81));
  input += "Ab";
  std::vector<std::string> toks = t.Tokenize(input);
  ASSERT_EQ(toks.size(), 1u);
  std::string expected;
  expected.push_back(static_cast<char>(0xE3));
  expected.push_back(static_cast<char>(0x81));
  expected += "ab";
  EXPECT_EQ(toks[0], expected);
}

TEST(TokenizerTest, StrayContinuationBytesCopiedIndividually) {
  Tokenizer t;
  // Continuation bytes with no lead, and an invalid lead (0xFF), each
  // pass through as deterministic single-byte copies.
  std::string input = "ok ";
  input.push_back(static_cast<char>(0x80));
  input.push_back(static_cast<char>(0xBF));
  input.push_back(static_cast<char>(0xFF));
  std::vector<std::string> toks = t.Tokenize(input);
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "ok");
  std::string expected;
  expected.push_back(static_cast<char>(0x80));
  expected.push_back(static_cast<char>(0xBF));
  expected.push_back(static_cast<char>(0xFF));
  EXPECT_EQ(toks[1], expected);
}

TEST(TokenizerTest, ValidUtf8StillCopiedWhole) {
  Tokenizer t;
  // The continuation validation must not break well-formed sequences:
  // é (0xC3 0xA9) stays glued to its word.
  EXPECT_EQ(t.Tokenize("café open"),
            (std::vector<std::string>{"café", "open"}));
}

// Builds a string from raw byte values (test readability for the
// malformed-sequence cases below).
std::string Bytes(std::initializer_list<unsigned char> bytes) {
  std::string s;
  for (unsigned char b : bytes) s.push_back(static_cast<char>(b));
  return s;
}

TEST(TokenizerTest, OverlongEncodingsDegradeToSingleBytes) {
  Tokenizer t;
  // C0 80 is the classic overlong NUL; C1 BF, E0 9F BF, and F0 8F BF BF
  // are the maximal overlong forms of each length. Continuation-byte
  // validation alone accepts all of them; RFC 3629 rejects them. Each
  // byte must degrade to a single-byte copy — trailing ASCII proves the
  // sequence was not consumed whole (it gets lowercased).
  for (const std::string& overlong :
       {Bytes({0xC0, 0x80}), Bytes({0xC1, 0xBF}), Bytes({0xE0, 0x9F, 0xBF}),
        Bytes({0xF0, 0x8F, 0xBF, 0xBF})}) {
    std::vector<std::string> toks = t.Tokenize(overlong + "Ab");
    ASSERT_EQ(toks.size(), 1u) << "input bytes: " << overlong.size();
    EXPECT_EQ(toks[0], overlong + "ab");
    EXPECT_FALSE(IsValidUtf8(overlong));
  }
}

TEST(TokenizerTest, SurrogateCodePointsDegradeToSingleBytes) {
  Tokenizer t;
  // ED A0 80 (U+D800, first high surrogate) and ED BF BF (U+DFFF, last
  // low surrogate) are well-formed by continuation-byte shape only;
  // UTF-8 forbids encoding surrogates. ED 9F BF (U+D7FF) is the last
  // valid code point before the range and must still pass whole.
  for (const std::string& surrogate :
       {Bytes({0xED, 0xA0, 0x80}), Bytes({0xED, 0xBF, 0xBF})}) {
    std::vector<std::string> toks = t.Tokenize(surrogate + "Ab");
    ASSERT_EQ(toks.size(), 1u);
    EXPECT_EQ(toks[0], surrogate + "ab");
    EXPECT_FALSE(IsValidUtf8(surrogate));
  }
  const std::string just_below = Bytes({0xED, 0x9F, 0xBF});
  EXPECT_TRUE(IsValidUtf8(just_below));
  EXPECT_EQ(t.Tokenize(just_below + " x"),
            (std::vector<std::string>{just_below, "x"}));
}

TEST(TokenizerTest, CodePointsAboveU10FFFFDegradeToSingleBytes) {
  Tokenizer t;
  // F4 90 80 80 is U+110000 (one past the Unicode ceiling); F5..F7 leads
  // are always invalid. F4 8F BF BF (U+10FFFF) is the ceiling itself and
  // must pass whole.
  for (const std::string& above :
       {Bytes({0xF4, 0x90, 0x80, 0x80}), Bytes({0xF5, 0x80, 0x80, 0x80})}) {
    std::vector<std::string> toks = t.Tokenize(above + "Ab");
    ASSERT_EQ(toks.size(), 1u);
    EXPECT_EQ(toks[0], above + "ab");
    EXPECT_FALSE(IsValidUtf8(above));
  }
  const std::string ceiling = Bytes({0xF4, 0x8F, 0xBF, 0xBF});
  EXPECT_TRUE(IsValidUtf8(ceiling));
  EXPECT_EQ(t.Tokenize(ceiling), (std::vector<std::string>{ceiling}));
}

TEST(TokenizerTest, ValidUtf8SequenceLengthBoundaries) {
  // Direct checks of the validator IsValidUtf8, the reference tokenizer
  // and the fuzz harnesses lean on: minimal/maximal valid sequence of
  // each length.
  EXPECT_EQ(ValidUtf8SequenceLength(Bytes({0xC2, 0x80}), 0), 2u);
  EXPECT_EQ(ValidUtf8SequenceLength(Bytes({0xDF, 0xBF}), 0), 2u);
  EXPECT_EQ(ValidUtf8SequenceLength(Bytes({0xE0, 0xA0, 0x80}), 0), 3u);
  EXPECT_EQ(ValidUtf8SequenceLength(Bytes({0xEF, 0xBF, 0xBF}), 0), 3u);
  EXPECT_EQ(ValidUtf8SequenceLength(Bytes({0xF0, 0x90, 0x80, 0x80}), 0), 4u);
  EXPECT_EQ(ValidUtf8SequenceLength(Bytes({0xF4, 0x8F, 0xBF, 0xBF}), 0), 4u);
  // ASCII, stray continuation, truncation, out-of-range pos.
  EXPECT_EQ(ValidUtf8SequenceLength("a", 0), 0u);
  EXPECT_EQ(ValidUtf8SequenceLength(Bytes({0x80}), 0), 0u);
  EXPECT_EQ(ValidUtf8SequenceLength(Bytes({0xE0, 0xA0}), 0), 0u);
  EXPECT_EQ(ValidUtf8SequenceLength("ab", 5), 0u);
  EXPECT_TRUE(IsValidUtf8(""));
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
}

TEST(TokenizerTest, MatchesReferenceForEveryOptionCombination) {
  // The byte-run core against the per-character reference tokenizer:
  // random strings over bytes that cross every class boundary, plus URL
  // prefixes cut off at the end of the input. The tokenizer has no
  // options, so its one fixed rule is the only combination to run.
  // TokenizeViews reuses one scratch buffer across inputs.
  const std::vector<std::string> pieces = {
      "http", "https", "HTTP", "://", ":/", "s", "p", "Ab", "z9", "7",
      " ",    "\t",   "\n",  ".",   ",",  "?", "=", "-", "\x01", "\x7f",
      "é",    "東",    "\xc3", "\x80", "\xed\xa0\x80", "\xf4\x90"};
  std::vector<std::string> inputs = {"",          "http",       "https",
                                     "http:",     "http:/",     "see https",
                                     "https://",  "x http://",  "HTTPS://A.b",
                                     "(http://x", "http://a b", "https://t.co/9"};
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 400; ++trial) {
    std::string input;
    const size_t len = next() % 24;
    for (size_t i = 0; i < len; ++i) input += pieces[next() % pieces.size()];
    inputs.push_back(input);
    inputs.push_back(input + (trial % 2 == 0 ? "http" : "https://"));
  }
  const Tokenizer tokenizer;
  std::string scratch;
  std::vector<std::string_view> views;
  for (const std::string& input : inputs) {
    const std::vector<std::string> expected = oracle::ReferenceTokenize(input);
    EXPECT_EQ(tokenizer.Tokenize(input), expected)
        << "input '" << input << "'";
    tokenizer.TokenizeViews(input, &scratch, &views);
    EXPECT_EQ(std::vector<std::string>(views.begin(), views.end()), expected)
        << "input '" << input << "'";
  }
}

}  // namespace
}  // namespace infoshield
