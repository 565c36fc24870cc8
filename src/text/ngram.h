// N-gram ("phrase") extraction and hashing.
//
// InfoShield-Coarse works over phrases of 1..max_n consecutive tokens
// (paper §IV-A1, n <= 5 by default). Phrases are identified by a 64-bit
// hash of their token-id sequence; collisions at 64 bits are negligible at
// the corpus sizes involved and, in the worst case, only make the coarse
// stage slightly more permissive — which InfoShield-Fine then corrects.

#ifndef INFOSHIELD_TEXT_NGRAM_H_
#define INFOSHIELD_TEXT_NGRAM_H_

#include <cstdint>
#include <vector>

#include "text/corpus.h"
#include "text/vocabulary.h"

namespace infoshield {

using PhraseHash = uint64_t;

// FNV-1a over the token-id bytes, seeded with the n-gram length so that
// e.g. the unigram (5) and the bigram (5,0) cannot collide trivially.
PhraseHash HashNgram(const TokenId* tokens, size_t n);

// Appends the hash of every n-gram of length min_n..max_n in `doc` to
// *out, ordered by start offset and, for one offset, by ascending length.
// Hot paths hash into a reused buffer this way instead of allocating
// per-document n-gram lists.
void AppendNgramHashes(const Document& doc, size_t min_n, size_t max_n,
                       std::vector<PhraseHash>* out);

}  // namespace infoshield

#endif  // INFOSHIELD_TEXT_NGRAM_H_
