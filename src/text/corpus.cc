#include "text/corpus.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace infoshield {

Status Corpus::CheckRoom(size_t additional) const {
  const size_t effective = docs_.size() + debug_size_offset_;
  if (additional <= kMaxDocuments && effective <= kMaxDocuments - additional) {
    return Status::Ok();
  }
  return Status::ResourceExhausted(
      StrFormat("corpus holds %zu documents; adding %zu would exceed the "
                "DocId capacity of %zu",
                effective, additional, kMaxDocuments));
}

DocId Corpus::Add(std::string_view text) {
  std::vector<std::string> one;
  one.emplace_back(text);
  return AddBatch(std::move(one), /*num_threads=*/1);
}

Result<DocId> Corpus::TryAdd(std::string_view text) {
  INFOSHIELD_RETURN_IF_ERROR(CheckRoom(1));
  return Add(text);
}

namespace {

// The words one chunk of texts sees, in first-occurrence order, with
// dense ids in that order: the words sit back to back in one buffer,
// indexed by an open-addressing table of ids, so a chunk allocates per
// table growth rather than per word or per lookup.
class ChunkDictionary {
 public:
  TokenId Intern(std::string_view word) {
    if (2 * (ends_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t s = std::hash<std::string_view>{}(word) & mask;;
         s = (s + 1) & mask) {
      if (slots_[s] == kInvalidToken) {
        slots_[s] = static_cast<TokenId>(ends_.size());
        bytes_.append(word);
        ends_.push_back(bytes_.size());
        return slots_[s];
      }
      if (Word(slots_[s]) == word) return slots_[s];
    }
  }

  size_t size() const { return ends_.size(); }

  // Valid until the next Intern.
  std::string_view Word(TokenId id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(bytes_).substr(begin, ends_[id] - begin);
  }

 private:
  // Doubles the table (from 64 slots) and re-inserts every id.
  void Grow() {
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), kInvalidToken);
    const size_t mask = slots_.size() - 1;
    for (TokenId id = 0; id < ends_.size(); ++id) {
      size_t s = std::hash<std::string_view>{}(Word(id)) & mask;
      while (slots_[s] != kInvalidToken) s = (s + 1) & mask;
      slots_[s] = id;
    }
  }

  std::string bytes_;
  std::vector<size_t> ends_;
  std::vector<TokenId> slots_;
};

// Tokenizes texts[0, count) into docs[0, count) with ids of `dict`, and
// moves each text into its document's raw.
void TokenizeChunk(const Tokenizer& tokenizer, std::string* texts,
                   size_t count, ChunkDictionary* dict, Document* docs) {
  std::string scratch;
  std::vector<std::string_view> tokens;
  for (size_t t = 0; t < count; ++t) {
    tokenizer.TokenizeViews(texts[t], &scratch, &tokens);
    docs[t].tokens.reserve(tokens.size());
    for (std::string_view token : tokens) {
      docs[t].tokens.push_back(dict->Intern(token));
    }
    docs[t].raw = std::move(texts[t]);
  }
}

}  // namespace

DocId Corpus::AddBatch(std::vector<std::string> texts, size_t num_threads) {
  Status room = CheckRoom(texts.size());
  CHECK(room.ok()) << room.ToString();
  const size_t first = docs_.size();
  docs_.resize(first + texts.size());
  Document* const docs = docs_.data() + first;
  for (size_t t = 0; t < texts.size(); ++t) {
    docs[t].id = static_cast<DocId>(first + t);
  }
  // Each worker tokenizes its own chunk into its own dictionary and
  // writes only its own documents. A word's vocabulary id is the rank of
  // its first occurrence in (chunk, position) order, and every earlier
  // first occurrence lies in an earlier chunk or earlier in this chunk's
  // word list, so interning the word lists in chunk order gives the ids
  // of a sequential Add loop (DESIGN.md §19).
  const std::vector<size_t> bounds = ThreadPool::BalancedChunks(
      num_threads, texts.size(), kMinChunkBytes,
      [&](size_t t) { return texts[t].size(); });
  const size_t chunks = bounds.empty() ? 0 : bounds.size() - 1;
  std::vector<ChunkDictionary> dicts(chunks);
  ThreadPool::ParallelFor(num_threads, chunks, [&](size_t c) {
    TokenizeChunk(tokenizer_, texts.data() + bounds[c],
                  bounds[c + 1] - bounds[c], &dicts[c], docs + bounds[c]);
  });
  std::vector<std::vector<TokenId>> vocab_ids(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    vocab_ids[c].reserve(dicts[c].size());
    for (TokenId local = 0; local < dicts[c].size(); ++local) {
      vocab_ids[c].push_back(vocab_.Intern(dicts[c].Word(local)));
    }
  }
  ThreadPool::ParallelFor(num_threads, chunks, [&](size_t c) {
    for (size_t t = bounds[c]; t < bounds[c + 1]; ++t) {
      for (TokenId& id : docs[t].tokens) id = vocab_ids[c][id];
    }
  });
  return static_cast<DocId>(first);
}

Result<DocId> Corpus::TryAddBatch(std::vector<std::string> texts,
                                  size_t num_threads) {
  INFOSHIELD_RETURN_IF_ERROR(CheckRoom(texts.size()));
  return AddBatch(std::move(texts), num_threads);
}

DocId Corpus::AddTokens(std::vector<TokenId> tokens, std::string raw) {
  Status room = CheckRoom(1);
  CHECK(room.ok()) << room.ToString();
  for (TokenId t : tokens) CHECK_LT(t, vocab_.size());
  Document d;
  d.id = static_cast<DocId>(docs_.size());
  d.tokens = std::move(tokens);
  d.raw = std::move(raw);
  docs_.push_back(std::move(d));
  return docs_.back().id;
}

const Document& Corpus::doc(DocId id) const {
  CHECK_LT(id, docs_.size());
  return docs_[id];
}

std::string Corpus::TokenText(DocId id) const {
  const Document& d = doc(id);
  std::string out;
  for (size_t i = 0; i < d.tokens.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out += vocab_.Word(d.tokens[i]);
  }
  return out;
}

}  // namespace infoshield
