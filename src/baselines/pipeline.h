// The paper's *-cl baseline pipelines (§V-A4): train an embedding model
// on the corpus, embed every document, cluster with HDBSCAN (min cluster
// size 3), and call every clustered document "suspicious".

#ifndef INFOSHIELD_BASELINES_PIPELINE_H_
#define INFOSHIELD_BASELINES_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "baselines/embedding.h"
#include "text/corpus.h"

namespace infoshield {

struct EmbedClusterOptions {
  size_t min_cluster_size = 3;  // paper baseline setting
};

struct BaselineResult {
  // Cluster per document (-1 = noise).
  std::vector<int64_t> labels;
  // suspicious[i] <=> labels[i] >= 0.
  std::vector<bool> suspicious;
  size_t num_clusters = 0;
};

// Trains `embedder` on the corpus, embeds it, clusters.
BaselineResult EmbedAndCluster(DocumentEmbedder& embedder,
                               const Corpus& corpus,
                               const EmbedClusterOptions& options,
                               uint64_t seed);

// Clusters precomputed embeddings.
BaselineResult ClusterEmbeddings(const std::vector<Vec>& embeddings,
                                 const EmbedClusterOptions& options);

}  // namespace infoshield

#endif  // INFOSHIELD_BASELINES_PIPELINE_H_
