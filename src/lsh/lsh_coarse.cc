#include "lsh/lsh_coarse.h"

#include <algorithm>
#include <vector>

#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

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
  const MinHashFamily family(options.minhash);
  result.doc_top_phrases.resize(n);
  const size_t num_chunks = std::min(n, threads * 4);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t begin = chunk * n / num_chunks;
    const size_t end = (chunk + 1) * n / num_chunks;
    for (size_t d = begin; d < end; ++d) {
      // analyzer: allow(hot-loop-alloc) -- Signature/BandKeys return
      // their per-document vectors by value (one move per document,
      // the API contract).
      result.doc_top_phrases[d] =
          BandKeys(family.Signature(corpus.docs()[d].tokens), options.lsh);
    }
  });

  // Canonical (doc, band-key) replay in ascending document order — the
  // band-key analogue of the tf-idf backend's (doc, phrase-rank) order.
  // Nothing here needs the buckets themselves, so no LshIndex is built.
  // Documents sharing a bucket key union through the key's anchor
  // document; max_phrase_degree caps bucket degree identically on every
  // path because the edge sequence is identical on every path.
  BuildCoarseComponents(options, &result);
  return result;
}

}  // namespace infoshield
