// Near-duplicate family generator with controllable Jaccard similarity.
//
// The LSH recall tests need ground-truth clusters whose
// pairwise similarity is a dial, not an accident of edit probabilities:
// each family draws a base template of `template_tokens` words, then
// every member independently substitutes each token with probability p,
// where p is derived from `target_jaccard` so that the EXPECTED
// k-shingle Jaccard between two members hits the target. Derivation: a
// k-shingle survives in both members iff its k positions are untouched
// in both, probability s = (1-p)^(2k); with |A ∩ B| ≈ s·S and
// |A ∪ B| ≈ (2-s)·S over S template shingles, J ≈ s / (2 - s), so
// s = 2J/(1+J) and p = 1 - s^(1/2k). The approximation ignores
// collisions between substituted tokens (drawn from a large extended
// pool, so negligible); neardup_gen_test verifies the measured Jaccard
// lands on target within sampling tolerance.
//
// Noise documents are independent free text over the same pools — the
// benign tail both backends must leave as singletons.

#ifndef INFOSHIELD_DATAGEN_NEARDUP_GEN_H_
#define INFOSHIELD_DATAGEN_NEARDUP_GEN_H_

#include <cstdint>
#include <vector>

#include "text/corpus.h"

namespace infoshield {

struct NearDupGenOptions {
  size_t num_families = 40;
  size_t family_size_min = 3;
  size_t family_size_max = 12;
  // Tokens per family template (members keep the template length:
  // substitution only, so shingle counts stay comparable).
  size_t template_tokens = 24;
  // Expected k-shingle Jaccard between two members of one family.
  double target_jaccard = 0.85;
  // The shingle length the similarity targets (match the MinHash
  // backend's shingle_k when generating for the LSH backend).
  size_t shingle_k = 3;
  // Independent noise documents (no family).
  size_t num_noise = 200;
  size_t noise_tokens_min = 12;
  size_t noise_tokens_max = 32;
  // Effective vocabulary for template/noise/substitution draws. Keep it
  // large relative to the corpus so unrelated documents rarely share
  // shingles — the regime real 100k+-vocabulary corpora are in.
  size_t vocab_size = 20000;
};

struct NearDupCorpus {
  Corpus corpus;
  // Parallel to corpus documents: family id, or -1 for noise.
  std::vector<int64_t> family;
};

// Per-token substitution probability that hits `target_jaccard` for
// k-shingles (the derivation above). Exposed for tests.
double SubstitutionProbForJaccard(double target_jaccard, size_t shingle_k);

// Deterministic for a given (options, seed) pair.
NearDupCorpus GenerateNearDupFamilies(const NearDupGenOptions& options,
                                      uint64_t seed);

}  // namespace infoshield

#endif  // INFOSHIELD_DATAGEN_NEARDUP_GEN_H_
