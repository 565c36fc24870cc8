#include "coarse/coarse_clustering.h"

#include <algorithm>
#include <vector>

#include "graph/connected_components.h"
#include "graph/union_find.h"
#include "lsh/lsh_coarse.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace infoshield {

void EmitCoarseComponents(UnionFind& uf, const CoarseOptions& options,
                          CoarseResult* result) {
  Components components = ExtractComponents(uf, /*min_component_size=*/1);
  for (auto& group : components.groups) {
    if (group.size() < options.min_cluster_size) {
      for (uint32_t id : group) result->singletons.push_back(id);
    } else {
      result->clusters.push_back(std::move(group));
    }
  }
  // Canonical emission order: undersized groups arrive sorted by their
  // first member, so their documents interleave; sort so the singleton
  // list is the same ascending sequence however the groups fell out.
  std::sort(result->singletons.begin(), result->singletons.end());
}

// analyzer: hot
void BuildCoarseComponents(const CoarseOptions& options,
                           CoarseResult* result) {
  const std::vector<std::vector<PhraseHash>>& keys = result->doc_top_phrases;
  UnionFind uf(keys.size());
  CoarseEdgeAccumulator edges(options.max_phrase_degree, &uf);
  result->num_edges = 0;
  for (DocId d = 0; d < keys.size(); ++d) {
    result->num_edges += keys[d].size();
    for (const PhraseHash key : keys[d]) edges.Add(d, key);
  }
  EmitCoarseComponents(uf, options, result);
}

CoarseResult CoarseClustering::Run(const Corpus& corpus) const {
  const size_t threads = ThreadPool::ResolveNumThreads(options_.num_threads);
  if (options_.backend == CoarseBackend::kMinhashLsh) {
    return RunLshCoarse(corpus, options_, threads);
  }
  CoarseResult result;
  if (corpus.size() == 0) return result;

  WallTimer timer;
  TfidfIndex index;
  index.Build(corpus, options_.tfidf, threads);
  result.stats.index_seconds = timer.ElapsedSeconds();

  timer.Restart();
  result.doc_top_phrases = SelectTopPhrases(index, corpus, threads);
  result.stats.top_phrase_seconds = timer.ElapsedSeconds();

  timer.Restart();
  BuildCoarseComponents(options_, &result);
  result.stats.graph_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace infoshield
