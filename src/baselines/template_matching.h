// Template Matching baseline — a simplified reimplementation of the
// scalable text-template-matching approach of Li et al. (IEEE Big Data
// 2018), the paper's unsupervised anti-HT predecessor ([10], Table I).
//
// Pipeline: MinHash signatures over token shingles -> LSH banding to
// propose candidate near-duplicate pairs -> Jaccard verification on the
// signatures -> union-find connected components as clusters. The first
// two steps are src/lsh's MinHashFamily and LshIndex, the standard
// MinHash/LSH dedup the coarse stage's LSH backend runs too. Scalable
// and unsupervised, but (as Table I notes) with limited
// interpretability: it yields clusters, not templates with slots.

#ifndef INFOSHIELD_BASELINES_TEMPLATE_MATCHING_H_
#define INFOSHIELD_BASELINES_TEMPLATE_MATCHING_H_

#include <cstdint>
#include <vector>

#include "text/corpus.h"

namespace infoshield {

struct TemplateMatchingOptions {
  // Token shingle width for the document's set representation.
  size_t shingle_size = 3;
  // MinHash signature length; must be divisible by `bands`.
  size_t num_hashes = 64;
  // LSH bands (rows per band = num_hashes / bands). More bands = more
  // candidate pairs = higher recall, lower precision before verification.
  // Two rows per band catches pairs down to Jaccard ~0.35 reliably —
  // the regime of templated ads whose slot fills differ.
  size_t bands = 32;
  // Candidate pairs are kept iff estimated Jaccard similarity (signature
  // agreement) reaches this threshold.
  double jaccard_threshold = 0.35;
  // Components smaller than this become noise.
  size_t min_cluster_size = 2;
  uint64_t seed = 0x5eed;
};

struct TemplateMatchingResult {
  // Cluster per document (-1 = noise).
  std::vector<int64_t> labels;
  // suspicious[i] <=> labels[i] >= 0.
  std::vector<bool> suspicious;
  size_t num_clusters = 0;
  // Candidate pairs proposed by LSH / surviving verification.
  size_t candidate_pairs = 0;
  size_t verified_pairs = 0;
};

TemplateMatchingResult TemplateMatching(const Corpus& corpus,
                                        const TemplateMatchingOptions& options);

}  // namespace infoshield

#endif  // INFOSHIELD_BASELINES_TEMPLATE_MATCHING_H_
