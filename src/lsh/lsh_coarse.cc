#include "lsh/lsh_coarse.h"

#include <algorithm>
#include <vector>

#include "graph/union_find.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace infoshield {

// analyzer: hot
CoarseResult RunLshCoarse(const Corpus& corpus, const CoarseOptions& options,
                          size_t num_threads) {
  CHECK(options.lsh.Validate(options.minhash).ok())
      << "invalid MinHash/LSH parameters reached RunLshCoarse: "
      << options.lsh.Validate(options.minhash).ToString();

  CoarseResult result;
  const size_t n = corpus.size();
  if (n == 0) return result;
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);

  // Signatures + band keys: a pure per-document function of (tokens,
  // hash family), so workers own contiguous chunks and write only their
  // chunk's slots — no shared mutable state, no df-style barrier, and
  // the result is independent of the thread count by construction.
  WallTimer timer;
  const MinHashFamily family(options.minhash);
  std::vector<MinHashSignature> signatures(n);
  result.doc_top_phrases.resize(n);
  const size_t num_chunks = std::min(n, threads * 4);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t begin = chunk * n / num_chunks;
    const size_t end = (chunk + 1) * n / num_chunks;
    for (size_t d = begin; d < end; ++d) {
      // analyzer: allow(hot-loop-alloc) -- Signature/BandKeys return
      // their per-document vectors by value (one move per document,
      // the API contract).
      signatures[d] = family.Signature(corpus.docs()[d].tokens);
      result.doc_top_phrases[d] = BandKeys(signatures[d], options.lsh);
    }
  });
  result.stats.signature_seconds = timer.ElapsedSeconds();

  // Banded bucketing, for the candidate-pair diagnostics the sub-linear
  // claim is measured by (and the Query primitive a serving layer
  // needs). The canonical replay below does not read the index: it
  // replays the band keys doc-major instead.
  timer.Restart();
  LshIndex index(options.minhash, options.lsh);
  index.Build(signatures, threads);
  const LshIndex::Stats bucket_stats = index.ComputeStats();
  result.stats.lsh_buckets = bucket_stats.num_buckets;
  result.stats.lsh_max_bucket = bucket_stats.max_bucket;
  result.stats.lsh_candidate_pairs = bucket_stats.candidate_pairs;
  result.stats.bucket_seconds = timer.ElapsedSeconds();

  // Canonical (doc, band-key) replay in ascending document order — the
  // band-key analogue of the tf-idf backend's (doc, phrase-rank) order.
  // Documents sharing a bucket key union through the key's anchor
  // document; max_phrase_degree caps bucket degree identically on every
  // path because the edge sequence is identical on every path.
  timer.Restart();
  UnionFind uf(n);
  CoarseEdgeAccumulator edges(options.max_phrase_degree, &uf);
  for (DocId d = 0; d < n; ++d) {
    for (const PhraseHash key : result.doc_top_phrases[d]) {
      ++result.num_edges;
      edges.Add(d, key);
    }
  }
  result.stats.graph_seconds = timer.ElapsedSeconds();

  timer.Restart();
  EmitCoarseComponents(uf, options, &result);
  result.stats.components_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace infoshield
