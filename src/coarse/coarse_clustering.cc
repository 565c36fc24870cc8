#include "coarse/coarse_clustering.h"

#include <bit>
#include <vector>

#include "graph/connected_components.h"
#include "graph/union_find.h"
#include "lsh/lsh_coarse.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace infoshield {

void CoarseEdgeAccumulator::Grow() {
  const size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<PhraseSlot> old(capacity);
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const PhraseSlot& slot : old) {
    if (slot.degree == 0) continue;
    size_t i = FibonacciSlot(slot.phrase, shift_);
    while (slots_[i].degree != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void EmitCoarseComponents(UnionFind& uf, const CoarseOptions& options,
                          CoarseResult* result) {
  Components components = ExtractComponents(uf, options.min_cluster_size);
  for (auto& group : components.groups) {
    result->clusters.push_back(std::move(group));
  }
  const uint32_t n = static_cast<uint32_t>(uf.num_elements());
  for (uint32_t id = 0; id < n; ++id) {
    if (uf.SetSize(id) < options.min_cluster_size) {
      result->singletons.push_back(id);
    }
  }
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
