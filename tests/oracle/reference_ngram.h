// Test-only n-gram enumeration with positions: the plain span list the
// coarse reference (reference_coarse.cc) and the df tests walk.
// Production hashes n-grams straight into a buffer through
// AppendNgramHashes (text/ngram.h) and never materializes spans.

#ifndef INFOSHIELD_TESTS_ORACLE_REFERENCE_NGRAM_H_
#define INFOSHIELD_TESTS_ORACLE_REFERENCE_NGRAM_H_

#include <cstdint>
#include <vector>

#include "text/corpus.h"
#include "text/ngram.h"

namespace infoshield::oracle {

struct NgramSpan {
  PhraseHash hash;
  uint32_t begin;  // token offset in the document
  uint32_t n;      // gram length
};

// All n-grams of lengths 1..max_n in a document, in document order.
std::vector<NgramSpan> ExtractNgrams(const Document& doc, size_t max_n);

}  // namespace infoshield::oracle

#endif  // INFOSHIELD_TESTS_ORACLE_REFERENCE_NGRAM_H_
