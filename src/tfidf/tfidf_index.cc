#include "tfidf/tfidf_index.h"

#include <algorithm>
#include <cmath>

#include "tfidf/df_count.h"
#include "tfidf/snapshot_df_table.h"
#include "util/audit.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infoshield {

void TfidfIndex::Build(const Corpus& corpus, const TfidfOptions& options,
                       size_t num_threads) {
  DfCounts counts = CountDocumentFrequencies(corpus, 0, corpus.size(),
                                             options.max_ngram, num_threads);
  SnapshotDfTable table;
  table.ApplyBatch(&counts, corpus.size(), num_threads);
  BuildFromSnapshot(table.Snapshot(), options);
}

void TfidfIndex::BuildFromSnapshot(const DfSnapshot& snapshot,
                                   const TfidfOptions& options) {
  options_ = options;
  snapshot_ = snapshot;
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
}

size_t TfidfIndex::DocumentFrequency(PhraseHash phrase) const {
  return snapshot_.DocumentFrequency(phrase);
}

double TfidfIndex::ScoreWithDf(size_t df, size_t tf) const {
  const size_t num_documents = snapshot_.num_documents();
  if (df == 0 || num_documents == 0) return 0.0;
  double idf =
      std::log(static_cast<double>(num_documents) / static_cast<double>(df));
  return static_cast<double>(tf) * idf;
}

double TfidfIndex::Score(PhraseHash phrase, size_t tf) const {
  return ScoreWithDf(DocumentFrequency(phrase), tf);
}

std::vector<ScoredPhrase> TfidfIndex::TopPhrases(const Document& doc) const {
  // Term frequencies of the document's eligible phrases: sort the n-gram
  // hashes, then each run of equal hashes is one phrase and its tf.
  const size_t min_n = std::min(options_.min_ngram, options_.max_ngram);
  std::vector<PhraseHash> grams;
  // No n-gram is longer than the document, however large max_ngram is.
  grams.reserve(doc.tokens.size() *
                std::min(options_.max_ngram, doc.tokens.size()));
  AppendNgramHashes(doc, min_n, options_.max_ngram, &grams);
  std::sort(grams.begin(), grams.end());

  std::vector<ScoredPhrase> scored;
  // One df lookup per phrase: the min_df filter and the score share it
  // (Score(hash, tf) would redo the hash probe).
  for (size_t i = 0; i < grams.size();) {
    size_t j = i + 1;
    while (j < grams.size() && grams[j] == grams[i]) ++j;
    const size_t df = DocumentFrequency(grams[i]);
    if (df >= options_.min_df) {
      scored.push_back(ScoredPhrase{grams[i], ScoreWithDf(df, j - i)});
    }
    i = j;
  }

  // top_fraction applies to the phrases actually eligible after the
  // min_df filter; counting the pre-filter distinct phrases would
  // inflate `keep` and defeat the fraction whenever min_df drops many
  // phrases (with min_df == 1 the two counts coincide).
  size_t keep = static_cast<size_t>(
      std::ceil(options_.top_fraction * static_cast<double>(scored.size())));
  keep = std::max(keep, options_.min_phrases_per_doc);
  keep = std::min(keep, scored.size());

  // Deterministic order: score desc, hash asc as tie-break (a total
  // order, since the hashes are distinct).
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const ScoredPhrase& a, const ScoredPhrase& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.hash < b.hash;
                    });
  scored.resize(keep);
  INFOSHIELD_AUDIT_INVARIANTS(ValidateTopPhrases(scored));
  return scored;
}

Status TfidfIndex::ValidateInvariants() const {
  audit::Auditor a("TfidfIndex");
  a.Expect(options_.top_fraction >= 0.0 && options_.top_fraction <= 1.0,
           StrFormat("top_fraction %.3f outside [0, 1]",
                     options_.top_fraction));
  a.Expect(options_.max_ngram >= 1, "max_ngram is 0");
  return a.Finish();
}

Status ValidateTopPhrases(const std::vector<ScoredPhrase>& phrases) {
  audit::Auditor a("TopPhrases");
  for (size_t i = 0; i < phrases.size(); ++i) {
    a.Expect(std::isfinite(phrases[i].score),
             StrFormat("phrase #%zu has non-finite score", i));
    if (i == 0) continue;
    const ScoredPhrase& prev = phrases[i - 1];
    const ScoredPhrase& cur = phrases[i];
    a.Expect(prev.score > cur.score ||
                 (prev.score == cur.score && prev.hash < cur.hash),
             StrFormat("phrases #%zu..#%zu out of order or duplicated",
                       i - 1, i));
  }
  return a.Finish();
}

}  // namespace infoshield
