#include "baselines/pipeline.h"

#include <unordered_set>

#include "baselines/hdbscan.h"

namespace infoshield {

BaselineResult ClusterEmbeddings(const std::vector<Vec>& embeddings,
                                 const EmbedClusterOptions& options) {
  BaselineResult result;
  HdbscanOptions ho;
  ho.min_cluster_size = options.min_cluster_size;
  result.labels = Hdbscan(embeddings, ho);
  result.suspicious.reserve(result.labels.size());
  std::unordered_set<int64_t> distinct;
  for (int64_t l : result.labels) {
    result.suspicious.push_back(l >= 0);
    if (l >= 0) distinct.insert(l);
  }
  result.num_clusters = distinct.size();
  return result;
}

BaselineResult EmbedAndCluster(DocumentEmbedder& embedder,
                               const Corpus& corpus,
                               const EmbedClusterOptions& options,
                               uint64_t seed) {
  embedder.Train(corpus, seed);
  std::vector<Vec> embeddings = EmbedCorpus(embedder, corpus);
  return ClusterEmbeddings(embeddings, options);
}

}  // namespace infoshield
