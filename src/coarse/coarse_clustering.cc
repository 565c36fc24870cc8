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
CoarseResult CoarseClustering::Run(const Corpus& corpus) const {
  const size_t threads = ThreadPool::ResolveNumThreads(options_.num_threads);
  if (options_.backend == CoarseBackend::kMinhashLsh) {
    return RunLshCoarse(corpus, options_, threads);
  }
  CoarseResult result;
  const size_t n = corpus.size();
  if (n == 0) return result;

  WallTimer timer;
  TfidfIndex index;
  index.Build(corpus, options_.tfidf, threads);
  result.stats.index_seconds = timer.ElapsedSeconds();

  // Top-phrase selection: against the frozen df table TopPhrases is a
  // pure function of the document, so workers own contiguous chunks and
  // write only their documents' doc_top_phrases slots.
  timer.Restart();
  result.doc_top_phrases.resize(n);
  const size_t num_chunks = std::min(n, threads * 4);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t end = (chunk + 1) * n / num_chunks;
    for (size_t d = chunk * n / num_chunks; d < end; ++d) {
      // analyzer: allow(hot-loop-alloc) -- TopPhrases returns its scored
      // list by value (one move per document, the API contract).
      const std::vector<ScoredPhrase> scored =
          index.TopPhrases(corpus.docs()[d]);
      std::vector<PhraseHash>& top = result.doc_top_phrases[d];
      top.reserve(scored.size());
      for (const ScoredPhrase& phrase : scored) top.push_back(phrase.hash);
    }
  });
  result.stats.top_phrase_seconds = timer.ElapsedSeconds();

  // The doc_top_phrases lists, read in document order, are the edges in
  // canonical (document, phrase-rank) order.
  timer.Restart();
  UnionFind uf(n);
  CoarseEdgeAccumulator edges(options_.max_phrase_degree, &uf);
  for (DocId d = 0; d < n; ++d) {
    for (PhraseHash phrase : result.doc_top_phrases[d]) {
      ++result.num_edges;
      edges.Add(d, phrase);
    }
  }
  result.stats.graph_seconds = timer.ElapsedSeconds();

  EmitCoarseComponents(uf, options_, &result);
  return result;
}

}  // namespace infoshield
