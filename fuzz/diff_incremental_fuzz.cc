// Harness (e3): differential fuzzing of the incremental ingestion core.
//
// IncrementalInfoShield promises that after ANY sequence of IngestBatch
// calls, the emitted JSON byte-matches a fresh batch InfoShield::Run
// over the concatenated corpus (DESIGN.md §15). This harness decodes
// fuzz bytes into a synthetic corpus plus a random batch split of it,
// drives the incremental engine batch by batch, and after every prefix
// asserts byte equality against the batch oracle — so the fuzzer
// explores cache reuse, dirty marking, vocabulary growth, and
// degree-cap replays all at once.

#include <cstdint>
#include <string>
#include <vector>

#include "core/infoshield.h"
#include "fuzz_util.h"
#include "incremental/incremental_infoshield.h"
#include "io/json_writer.h"
#include "synthetic_corpus.h"
#include "text/corpus.h"
#include "util/logging.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  infoshield::fuzz::FuzzInput in(data, size);

  infoshield::InfoShieldOptions options;
  const uint8_t option_bits = in.TakeByte();
  if ((option_bits & 1) != 0) options.coarse.tfidf.min_ngram = 1;
  if ((option_bits & 2) != 0) options.coarse.tfidf.max_ngram = 3;
  if ((option_bits & 4) != 0) options.coarse.max_phrase_degree = 4;
  if ((option_bits & 8) != 0) options.coarse.min_cluster_size = 3;
  if ((option_bits & 16) != 0) options.num_threads = 4;

  const std::vector<std::string> texts =
      infoshield::fuzz::DecodeSyntheticTexts(in, /*max_docs=*/12);

  // Batch boundaries: ascending cut positions decoded from the tail of
  // the input, end implied. A boundary equal to the previous one yields
  // an empty batch — deliberately kept, empty ingests must be no-ops.
  std::vector<size_t> ends;
  size_t at = 0;
  while (at < texts.size() && ends.size() < 6) {
    at += in.TakeBounded(texts.size() - at);
    ends.push_back(at);
    if (in.empty()) break;
  }
  if (ends.empty() || ends.back() != texts.size()) {
    ends.push_back(texts.size());
  }

  infoshield::IncrementalInfoShield engine(options);
  size_t begin = 0;
  for (size_t end : ends) {
    const infoshield::Result<infoshield::IngestStats> stats =
        engine.IngestBatch(std::vector<std::string>(texts.begin() + begin,
                                                    texts.begin() + end));
    CHECK(stats.ok()) << stats.status();
    const std::string incremental =
        infoshield::ResultToJson(engine.result(), engine.corpus());

    infoshield::Corpus oracle_corpus;
    oracle_corpus.AddBatch(
        std::vector<std::string>(texts.begin(), texts.begin() + end),
        options.num_threads);
    infoshield::InfoShield oracle(options);
    const std::string batch =
        infoshield::ResultToJson(oracle.Run(oracle_corpus), oracle_corpus);

    CHECK(incremental == batch)
        << "incremental engine diverged from the batch oracle after "
        << end << " of " << texts.size() << " docs (batch boundary at "
        << begin << ", option bits " << static_cast<int>(option_bits)
        << ")";
    begin = end;
  }
  return 0;
}
