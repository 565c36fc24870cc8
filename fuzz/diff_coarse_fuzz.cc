// Harness (e2): differential fuzzing of the coarse stage.
//
// The coarse pipeline (partitioned df count, per-chunk top-phrase
// fan-out, canonical edge replay) must be byte-identical to the
// test-only serial reference (tests/oracle) at every thread count. This
// harness decodes fuzz bytes into a synthetic corpus, runs the reference
// and the coarse stage with 1, 2, 4 and 8 worker threads, and asserts
// identical clusters, singletons, per-document top phrases, and edge
// counts.

#include <cstdint>
#include <string>
#include <vector>

#include "coarse/coarse_clustering.h"
#include "fuzz_util.h"
#include "oracle/reference_coarse.h"
#include "synthetic_corpus.h"
#include "text/corpus.h"
#include "util/logging.h"

namespace {

using infoshield::CoarseClustering;
using infoshield::CoarseOptions;
using infoshield::CoarseResult;
using infoshield::Corpus;

// Canonical serialization of everything the coarse stage promises to
// reproduce across thread counts (stats deliberately excluded — timings
// legitimately differ).
std::string Canonical(const CoarseResult& result) {
  std::string out;
  out += "clusters:";
  for (const auto& cluster : result.clusters) {
    out.push_back('[');
    for (infoshield::DocId d : cluster) {
      out += std::to_string(d);
      out.push_back(',');
    }
    out.push_back(']');
  }
  out += ";singletons:";
  for (infoshield::DocId d : result.singletons) {
    out += std::to_string(d);
    out.push_back(',');
  }
  out += ";top_phrases:";
  for (const auto& phrases : result.doc_top_phrases) {
    out.push_back('[');
    for (infoshield::PhraseHash h : phrases) {
      out += std::to_string(h);
      out.push_back(',');
    }
    out.push_back(']');
  }
  out += ";edges:" + std::to_string(result.num_edges);
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  infoshield::fuzz::FuzzInput in(data, size);

  CoarseOptions options;
  const uint8_t option_bits = in.TakeByte();
  if ((option_bits & 1) != 0) options.tfidf.min_ngram = 1;
  if ((option_bits & 2) != 0) options.tfidf.max_ngram = 3;
  if ((option_bits & 4) != 0) options.max_phrase_degree = 4;
  if ((option_bits & 8) != 0) options.min_cluster_size = 3;

  const std::vector<std::string> texts =
      infoshield::fuzz::DecodeSyntheticTexts(in, /*max_docs=*/16);
  const Corpus corpus = infoshield::fuzz::BuildSyntheticCorpus(texts);

  const std::string serial =
      Canonical(infoshield::oracle::ReferenceCoarse(corpus, options));

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    options.num_threads = threads;
    const std::string parallel =
        Canonical(CoarseClustering(options).Run(corpus));
    CHECK(parallel == serial)
        << "coarse stage diverged from the serial reference at "
        << threads << " thread(s) on a corpus of " << texts.size()
        << " docs";
  }
  return 0;
}
