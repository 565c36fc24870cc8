// MinHash/LSH coarse backend driver (DESIGN.md §16).
//
// Pipeline: tokenized corpus -> per-document MinHash signatures (pure,
// fanned across the thread pool) -> band bucket keys -> canonical
// doc-major edge replay and connected components, both by
// BuildCoarseComponents (coarse_clustering.h). The replay consumes
// (doc, band key) edges in ascending document order, so (as with the tf-idf
// backend's (doc, phrase-rank) replay) output is byte-identical at any
// thread count and the max_phrase_degree hub cap drops the same edges
// at every thread count.
//
// CoarseResult::doc_top_phrases carries each document's band keys, so
// the fine stage's phrase-sharing neighbor seeding transparently
// becomes bucket-sharing neighbor seeding.

#ifndef INFOSHIELD_LSH_LSH_COARSE_H_
#define INFOSHIELD_LSH_LSH_COARSE_H_

#include <cstddef>

#include "coarse/coarse_clustering.h"
#include "text/corpus.h"

namespace infoshield {

// Runs the MinHash/LSH candidate generator with `num_threads` workers
// (0 = hardware concurrency). CHECK-fails on invalid
// minhash/lsh parameters — validate with
// options.lsh.Validate(options.minhash) first where the parameters come
// from user input.
CoarseResult RunLshCoarse(const Corpus& corpus, const CoarseOptions& options,
                          size_t num_threads);

}  // namespace infoshield

#endif  // INFOSHIELD_LSH_LSH_COARSE_H_
