#include "text/corpus.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace infoshield {

// Fakes the document counter close to the DocId limit so the overflow
// guards are testable without materializing ~2^32 documents.
class CorpusTestPeer {
 public:
  static void SetSizeOffset(Corpus& corpus, size_t offset) {
    corpus.debug_size_offset_ = offset;
  }
};

namespace {

TEST(CorpusTest, AddTokenizesAndInterns) {
  Corpus c;
  DocId id = c.Add("This is a great soap");
  EXPECT_EQ(id, 0u);
  const Document& d = c.doc(id);
  EXPECT_EQ(d.tokens.size(), 5u);
  EXPECT_EQ(c.vocab().size(), 5u);
  EXPECT_EQ(d.raw, "This is a great soap");
}

TEST(CorpusTest, SharedVocabularyAcrossDocs) {
  Corpus c;
  c.Add("great soap");
  c.Add("great chair");
  EXPECT_EQ(c.vocab().size(), 3u);  // great, soap, chair
  EXPECT_EQ(c.doc(0).tokens[0], c.doc(1).tokens[0]);
}

TEST(CorpusTest, TokenTextRoundTrip) {
  Corpus c;
  DocId id = c.Add("Hello, World!");
  EXPECT_EQ(c.TokenText(id), "hello world");
}

TEST(CorpusTest, AddTokensDirect) {
  Corpus c;
  TokenId a = c.mutable_vocab().Intern("a");
  TokenId b = c.mutable_vocab().Intern("b");
  DocId id = c.AddTokens({a, b, a}, "a b a");
  EXPECT_EQ(c.doc(id).tokens, (std::vector<TokenId>{a, b, a}));
  EXPECT_EQ(c.TokenText(id), "a b a");
}

TEST(CorpusDeathTest, AddTokensValidatesIds) {
  Corpus c;
  EXPECT_DEATH(c.AddTokens({42}, "bad"), "Check failed");
}

TEST(CorpusTest, EmptyDocument) {
  Corpus c;
  DocId id = c.Add("");
  EXPECT_EQ(c.doc(id).length(), 0u);
  EXPECT_EQ(c.TokenText(id), "");
}

TEST(CorpusTest, SizeAndEmpty) {
  Corpus c;
  EXPECT_TRUE(c.empty());
  c.Add("x");
  EXPECT_FALSE(c.empty());
  EXPECT_EQ(c.size(), 1u);
}

TEST(CorpusTest, MoveSemantics) {
  Corpus c;
  c.Add("move me");
  Corpus moved = std::move(c);
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved.TokenText(0), "move me");
}

TEST(CorpusTest, AddBatchMatchesSequentialAdd) {
  // AddBatch tokenizes byte-balanced chunks into chunk-local
  // dictionaries and merges them in chunk order; documents, token ids,
  // vocabulary and raw text must all come out exactly as a sequential
  // Add loop's. The short batch is one chunk; the long one, past
  // several times Corpus::kMinChunkBytes, splits into chunks at 2+
  // threads, and new words keep first appearing up to its last chunk.
  const std::vector<std::string> short_texts = {
      "This is a great soap",  "great chair, cheap!",
      "",                      "call 555-1234 now",
      "sureste de Méjico",     "This is a great soap",
      "visit http://scam.com", "completely fresh words entirely",
  };
  std::vector<std::string> long_texts = short_texts;
  size_t bytes = 0;
  for (size_t i = 0; bytes < 5 * Corpus::kMinChunkBytes; ++i) {
    std::string text = "Shared Opening words ";
    for (size_t k = 0; k < 24; ++k) {
      text += "w" + std::to_string((i * 7 + k * 13) % 500) + " ";
    }
    // A word first seen here, so every chunk brings new ones.
    text += "fresh" + std::to_string(i / 3) + " " + short_texts[i % 8];
    bytes += text.size();
    long_texts.push_back(std::move(text));
  }
  for (const std::vector<std::string>* texts :
       std::vector<const std::vector<std::string>*>{&short_texts,
                                                    &long_texts}) {
    Corpus serial;
    for (const std::string& t : *texts) serial.Add(t);
    for (size_t threads : {2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << texts->size() << " texts, "
                                      << threads << " threads");
      Corpus batched;
      DocId first = batched.AddBatch(*texts, threads);
      EXPECT_EQ(first, 0u);
      ASSERT_EQ(batched.size(), serial.size());
      ASSERT_EQ(batched.vocab().size(), serial.vocab().size());
      for (TokenId w = 0; w < serial.vocab().size(); ++w) {
        ASSERT_EQ(batched.vocab().Word(w), serial.vocab().Word(w))
            << "word " << w;
      }
      for (DocId d = 0; d < serial.size(); ++d) {
        EXPECT_EQ(batched.doc(d).id, d);
        EXPECT_EQ(batched.doc(d).tokens, serial.doc(d).tokens) << "doc " << d;
        EXPECT_EQ(batched.doc(d).raw, serial.doc(d).raw) << "doc " << d;
      }
    }
  }
}

TEST(CorpusTest, AddBatchAppendsAfterExistingDocs) {
  Corpus c;
  c.Add("existing doc");
  DocId first = c.AddBatch({"new one", "new two"}, /*num_threads=*/2);
  EXPECT_EQ(first, 1u);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.TokenText(2), "new two");
}

TEST(CorpusTest, AddBatchEmptyInput) {
  Corpus c;
  c.Add("x");
  EXPECT_EQ(c.AddBatch({}, /*num_threads=*/4), 1u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(CorpusTest, DocIdsAreSequential) {
  Corpus c;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(c.Add("doc " + std::to_string(i)), static_cast<DocId>(i));
  }
}

TEST(CorpusTest, TryAddBatchBehavesLikeAddWhenRoomRemains) {
  Corpus c;
  Result<DocId> id = c.TryAddBatch({"great soap"}, /*num_threads=*/1);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  Result<DocId> first = c.TryAddBatch({"a b", "c d"}, /*num_threads=*/2);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  EXPECT_EQ(c.size(), 3u);
}

TEST(CorpusTest, TryAddBatchReportsExhaustionAtTheDocIdLimit) {
  Corpus c;
  c.Add("existing");
  CorpusTestPeer::SetSizeOffset(c, Corpus::kMaxDocuments - c.size());
  // Exactly full: one more document would mint an id past the last
  // representable DocId instead of wrapping silently.
  Result<DocId> id = c.TryAddBatch({"one too many"}, /*num_threads=*/1);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(c.size(), 1u);  // corpus unchanged
}

TEST(CorpusTest, TryAddBatchIsAllOrNothingNearTheLimit) {
  Corpus c;
  c.Add("existing");
  CorpusTestPeer::SetSizeOffset(c, Corpus::kMaxDocuments - c.size() - 2);
  // Two slots left: a three-document batch must be rejected whole.
  Result<DocId> first =
      c.TryAddBatch({"a", "b", "c"}, /*num_threads=*/1);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(c.size(), 1u);
  // A two-document batch still fits.
  Result<DocId> fits = c.TryAddBatch({"a", "b"}, /*num_threads=*/1);
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(c.size(), 3u);
}

TEST(CorpusDeathTest, AddPastTheDocIdLimitDies) {
  Corpus c;
  CorpusTestPeer::SetSizeOffset(c, Corpus::kMaxDocuments);
  EXPECT_DEATH(c.Add("overflow"), "Check failed");
  EXPECT_DEATH(c.AddBatch({"overflow"}, /*num_threads=*/1), "Check failed");
  EXPECT_DEATH(c.AddTokens({}, "overflow"), "Check failed");
}

}  // namespace
}  // namespace infoshield
