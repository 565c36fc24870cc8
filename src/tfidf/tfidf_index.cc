#include "tfidf/tfidf_index.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "tfidf/df_count.h"
#include "util/audit.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace infoshield {

void TfidfIndex::Build(const Corpus& corpus, const TfidfOptions& options,
                       size_t num_threads) {
  options_ = options;
  shared_ = {};
  once_ = {};
  num_documents_ = 0;
  num_phrases_ = 0;
  AddDocuments(corpus, 0, corpus.size(), num_threads);
}

void TfidfIndex::AddDocuments(const Corpus& corpus, size_t begin, size_t end,
                              size_t num_threads) {
  // Each partition's run is folded on the worker that counted it. The
  // fold moves the partition's tables into locals and back, which copies
  // nothing and touches shared_ and once_ only at the worker's own index:
  // the disjoint-slot form the race analysis can see (DESIGN.md §11).
  std::array<size_t, kDfPartitions> inserted{};
  CountDocumentFrequencies(
      corpus, begin, end, options_.max_ngram, num_threads,
      [&](size_t p, std::span<const PhraseDf> run) {
        FlatDfMap shared = std::move(shared_[p]);
        FlatPhraseSet once = std::move(once_[p]);
        const size_t run_once = static_cast<size_t>(std::count_if(
            run.begin(), run.end(),
            [](const PhraseDf& entry) { return entry.df == 1; }));
        shared.Reserve(shared.size() + run.size() - run_once);
        once.Reserve(once.size() + run_once);
        size_t added = 0;
        for (const PhraseDf& entry : run) {
          if (entry.df > 1) {
            if (once.Erase(entry.hash)) {
              // Seen in one earlier document: promote with the sum.
              shared.Add(entry.hash, entry.df + 1);
            } else if (shared.Add(entry.hash, entry.df)) {
              ++added;
            }
          } else if (shared.Find(entry.hash) != 0) {
            shared.Add(entry.hash, 1);
          } else if (once.Insert(entry.hash)) {
            ++added;
          } else {
            // Seen in one earlier document: promote with df 2.
            once.Erase(entry.hash);
            shared.Add(entry.hash, 2);
          }
        }
        shared_[p] = std::move(shared);
        once_[p] = std::move(once);
        inserted[p] = added;
      });
  for (const size_t added : inserted) num_phrases_ += added;
  num_documents_ += end - begin;
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
}

double TfidfIndex::ScoreWithDf(size_t df, size_t tf) const {
  if (df == 0 || num_documents_ == 0) return 0.0;
  double idf =
      std::log(static_cast<double>(num_documents_) / static_cast<double>(df));
  return static_cast<double>(tf) * idf;
}

double TfidfIndex::Score(PhraseHash phrase, size_t tf) const {
  return ScoreWithDf(DocumentFrequency(phrase), tf);
}

std::vector<ScoredPhrase> TfidfIndex::TopPhrases(const Document& doc) const {
  const size_t min_n = std::min(options_.min_ngram, options_.max_ngram);
  std::vector<PhraseHash> grams;
  // No n-gram is longer than the document, however large max_ngram is.
  grams.reserve(doc.tokens.size() *
                std::min(options_.max_ngram, doc.tokens.size()));
  AppendNgramHashes(doc, min_n, options_.max_ngram, &grams);

  // Probe first: keep, in place, only the occurrences whose df passes
  // the min_df filter, so the sort below sees the eligible phrases alone
  // (a df-1 phrase is most of a document's n-grams and can never score
  // under min_df >= 2). Below min_df 2 the probe must see df-1 phrases
  // too; otherwise the small map of phrases in two or more documents
  // answers alone.
  const bool probe_once = options_.min_df < 2;
  auto df_of = [&](PhraseHash hash) -> size_t {
    return probe_once ? DocumentFrequency(hash)
                      : shared_[DfPartitionOf(hash)].Find(hash);
  };
  size_t eligible = 0;
  for (const PhraseHash hash : grams) {
    if (df_of(hash) >= options_.min_df) grams[eligible++] = hash;
  }
  grams.resize(eligible);

  // Term frequencies: sort the eligible occurrences, then each run of
  // equal hashes is one phrase and its tf; one more probe per phrase
  // gives the df to score it with.
  std::sort(grams.begin(), grams.end());
  std::vector<ScoredPhrase> scored;
  for (size_t i = 0; i < grams.size();) {
    size_t j = i + 1;
    while (j < grams.size() && grams[j] == grams[i]) ++j;
    scored.push_back(
        ScoredPhrase{grams[i], ScoreWithDf(df_of(grams[i]), j - i)});
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
  size_t total_phrases = 0;
  for (size_t p = 0; p < kDfPartitions; ++p) {
    total_phrases += shared_[p].size() + once_[p].size();
    shared_[p].ForEach([&](const PhraseDf& entry) {
      if (DfPartitionOf(entry.hash) != p) {
        a.Expect(false,
                 StrFormat("phrase %llu stored in partition %zu but hashes "
                           "to partition %zu",
                           static_cast<unsigned long long>(entry.hash), p,
                           DfPartitionOf(entry.hash)));
      }
      if (entry.df < 2 || entry.df > num_documents_) {
        a.Expect(false,
                 StrFormat("phrase %llu has df %u outside [2, %zu]",
                           static_cast<unsigned long long>(entry.hash),
                           entry.df, num_documents_));
      }
    });
    once_[p].ForEach([&](PhraseHash hash) {
      if (DfPartitionOf(hash) != p) {
        a.Expect(false,
                 StrFormat("df-1 phrase %llu stored in partition %zu but "
                           "hashes to partition %zu",
                           static_cast<unsigned long long>(hash), p,
                           DfPartitionOf(hash)));
      }
      if (shared_[p].Find(hash) != 0) {
        a.Expect(false,
                 StrFormat("phrase %llu is both a df-1 phrase and in the "
                           "df map",
                           static_cast<unsigned long long>(hash)));
      }
    });
  }
  a.Expect(total_phrases == num_phrases_,
           StrFormat("cached num_phrases %zu but partitions hold %zu",
                     num_phrases_, total_phrases));
  return a.Finish();
}

// analyzer: hot
std::vector<std::vector<PhraseHash>> SelectTopPhrases(const TfidfIndex& index,
                                                      const Corpus& corpus,
                                                      size_t num_threads) {
  const size_t n = corpus.size();
  std::vector<std::vector<PhraseHash>> top(n);
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);
  const size_t num_chunks = std::min(n, threads * 4);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t end = (chunk + 1) * n / num_chunks;
    for (size_t d = chunk * n / num_chunks; d < end; ++d) {
      // analyzer: allow(hot-loop-alloc) -- TopPhrases returns its scored
      // list by value (one move per document, the API contract).
      const std::vector<ScoredPhrase> scored =
          index.TopPhrases(corpus.docs()[d]);
      std::vector<PhraseHash>& hashes = top[d];
      hashes.reserve(scored.size());
      for (const ScoredPhrase& phrase : scored) hashes.push_back(phrase.hash);
    }
  });
  return top;
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
