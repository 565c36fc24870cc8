// Test-only reference implementation of the tf-idf coarse stage: the
// plain serial algorithm that the production path (partitioned df count,
// chunked top-phrase fan-out, DESIGN.md §11) must reproduce byte for
// byte at every thread count. It lives outside src/ so production keeps
// one code path per stage; the unit tests and the differential fuzzers
// link it as their oracle.

#ifndef INFOSHIELD_TESTS_ORACLE_REFERENCE_COARSE_H_
#define INFOSHIELD_TESTS_ORACLE_REFERENCE_COARSE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "coarse/coarse_clustering.h"
#include "text/corpus.h"
#include "text/ngram.h"

namespace infoshield::oracle {

// Document frequency of every n-gram of length 1..max_ngram over
// documents [begin, end): one global map, each document's n-grams
// deduplicated through a set.
std::unordered_map<PhraseHash, uint32_t> ReferenceDocumentFrequencies(
    const Corpus& corpus, size_t begin, size_t end, size_t max_ngram);

// The kTfidfGraph coarse stage, serially: the df map above, each
// document's top phrases scored against it from a std::map of term
// frequencies and a full sort, and the edges replayed in document
// order through the shared CoarseEdgeAccumulator. Stats stay zero.
CoarseResult ReferenceCoarse(const Corpus& corpus,
                             const CoarseOptions& options);

}  // namespace infoshield::oracle

#endif  // INFOSHIELD_TESTS_ORACLE_REFERENCE_COARSE_H_
