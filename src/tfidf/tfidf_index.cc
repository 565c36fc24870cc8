#include "tfidf/tfidf_index.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "tfidf/df_count.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace infoshield {

namespace {

// The share of a document's eligible phrases kept as its top phrases,
// rounded up (Lemma 2's proof).
constexpr double kTopPhraseFraction = 0.10;

// How many n-grams ahead TopPhrases prefetches the df-map slot it will
// probe.
constexpr size_t kPrefetchDistance = 8;

}  // namespace

void TfidfIndex::Build(const Corpus& corpus, const TfidfOptions& options,
                       size_t num_threads) {
  options_ = options;
  shared_ = {};
  once_ = {};
  built_ = true;
  // Each partition's run is folded on the worker that counted it, into a
  // local map moved into place (see AddDocuments). A whole-corpus run
  // holds each phrase once, so every df >= 2 entry is a new phrase.
  std::array<size_t, kDfPartitions> phrases{};
  CountDocumentFrequencies(
      corpus, 0, corpus.size(), options_.max_ngram, num_threads,
      [&](size_t p, std::span<const PhraseDf> run) {
        FlatDfMap shared;
        shared.Reserve(static_cast<size_t>(std::count_if(
            run.begin(), run.end(),
            [](const PhraseDf& entry) { return entry.df > 1; })));
        for (const PhraseDf& entry : run) {
          if (entry.df > 1) shared.Add(entry.hash, entry.df);
        }
        shared_[p] = std::move(shared);
        phrases[p] = run.size();
      });
  num_documents_ = corpus.size();
  num_phrases_ = 0;
  for (const size_t count : phrases) num_phrases_ += count;
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
}

void TfidfIndex::AddDocuments(const Corpus& corpus, size_t begin, size_t end,
                              size_t num_threads) {
  CHECK(!built_) << "AddDocuments on a built index: Build keeps no df-1 "
                    "set, so a phrase seen again could not be promoted";
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

  // Probe first: keep, in place, only the occurrences found in the map of
  // phrases seen in two or more documents (0 means absent), so the sort
  // below sees the eligible phrases alone. A df-1 phrase cannot connect
  // two documents, and df-1 phrases are most of a document's n-grams.
  auto df_of = [&](PhraseHash hash) -> size_t {
    return shared_[DfPartitionOf(hash)].Find(hash);
  };
  size_t eligible = 0;
  for (size_t i = 0; i < grams.size(); ++i) {
    if (i + kPrefetchDistance < grams.size()) {
      const PhraseHash ahead = grams[i + kPrefetchDistance];
      shared_[DfPartitionOf(ahead)].Prefetch(ahead);
    }
    const PhraseHash hash = grams[i];
    if (df_of(hash) != 0) grams[eligible++] = hash;
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

  // The fraction applies to the eligible phrases, not to every distinct
  // n-gram. Rounding up keeps one phrase whenever any is eligible, and
  // never more than there are.
  const size_t keep = static_cast<size_t>(
      std::ceil(kTopPhraseFraction * static_cast<double>(scored.size())));

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
  a.Expect(options_.max_ngram >= 1, "max_ngram is 0");
  size_t total_phrases = 0;
  for (size_t p = 0; p < kDfPartitions; ++p) {
    total_phrases += shared_[p].size() + once_[p].size();
    if (built_ && once_[p].size() != 0) {
      a.Expect(false, StrFormat("built index holds %zu df-1 phrases in "
                                "partition %zu",
                                once_[p].size(), p));
    }
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
  a.Expect(built_ ? total_phrases <= num_phrases_
                  : total_phrases == num_phrases_,
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
