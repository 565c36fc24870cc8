// Document and Corpus: the in-memory representation every stage of the
// pipeline consumes. A Document is a tokenized, interned view of one input
// text; the Corpus owns the shared Vocabulary.

#ifndef INFOSHIELD_TEXT_CORPUS_H_
#define INFOSHIELD_TEXT_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace infoshield {

using DocId = uint32_t;

struct Document {
  // Position in the corpus.
  DocId id = 0;
  // Interned token sequence.
  std::vector<TokenId> tokens;
  // Original text as given (kept for visualization).
  std::string raw;

  size_t length() const { return tokens.size(); }
};

class Corpus {
 public:
  Corpus() = default;

  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;
  Corpus(Corpus&&) = default;
  Corpus& operator=(Corpus&&) = default;

  // DocId is uint32_t, so the corpus can hold at most 2^32 - 1 documents
  // (the last representable id is reserved so "the next id" — what
  // AddBatch returns for an empty batch — always fits in a DocId).
  // Appending past this limit would silently wrap ids and corrupt the
  // doc–phrase graph; Add/AddBatch/AddTokens CHECK-fail instead, and
  // TryAddBatch returns ResourceExhausted for callers (e.g. the
  // incremental ingestion path) that must surface the error.
  static constexpr size_t kMaxDocuments =
      static_cast<size_t>(UINT32_MAX) - 1;

  // AddBatch (and LoadCorpusFromCsv, io/csv.h) split their input into
  // contiguous chunks of at least about this many bytes, at most 4 per
  // worker, so a small batch runs as one chunk on the calling thread.
  static constexpr size_t kMinChunkBytes = 256 * 1024;

  // Tokenizes, interns, and appends a document; returns its DocId. The
  // one-document case of AddBatch. CHECK-fails when the corpus is full
  // (see kMaxDocuments).
  DocId Add(std::string_view text);

  // Appends one document per text, in order, using `num_threads`
  // workers (1 = sequential, 0 = hardware concurrency); each text moves
  // into its document's raw. Each byte-balanced chunk of texts is
  // tokenized into a chunk-local dictionary, and the dictionaries are
  // merged into the vocabulary in chunk order, so the documents, token
  // ids and vocabulary are byte-identical to calling Add on each text in
  // turn (DESIGN.md §19). Returns the DocId of the first appended
  // document (the rest follow consecutively); returns the would-be next
  // id when `texts` is empty. CHECK-fails when the batch would overflow
  // kMaxDocuments.
  DocId AddBatch(std::vector<std::string> texts, size_t num_threads);

  // As AddBatch, but reports an overflowing batch as ResourceExhausted
  // instead of dying. The check is all-or-nothing and happens before any
  // tokenization: on error the corpus is unchanged.
  Result<DocId> TryAddBatch(std::vector<std::string> texts,
                            size_t num_threads);

  // Appends a pre-tokenized document (token ids must be valid for the
  // corpus vocabulary — used by data generators that intern directly).
  DocId AddTokens(std::vector<TokenId> tokens, std::string raw);

  const Document& doc(DocId id) const;
  size_t size() const { return docs_.size(); }
  bool empty() const { return docs_.empty(); }

  const std::vector<Document>& docs() const { return docs_; }
  const Vocabulary& vocab() const { return vocab_; }
  Vocabulary& mutable_vocab() { return vocab_; }

  // Reconstructs a document's tokens as a space-joined string.
  std::string TokenText(DocId id) const;

 private:
  friend class CorpusTestPeer;

  // OK iff `additional` more documents fit under kMaxDocuments. The test
  // peer raises debug_size_offset_ to exercise the limit without
  // materializing ~2^32 documents.
  Status CheckRoom(size_t additional) const;

  Tokenizer tokenizer_;
  Vocabulary vocab_;
  std::vector<Document> docs_;
  size_t debug_size_offset_ = 0;
};

}  // namespace infoshield

#endif  // INFOSHIELD_TEXT_CORPUS_H_
