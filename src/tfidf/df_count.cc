#include "tfidf/df_count.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace infoshield {

// analyzer: hot
DfCounts CountDocumentFrequencies(const Corpus& corpus, size_t begin,
                                  size_t end, size_t max_ngram,
                                  size_t num_threads) {
  CHECK(begin <= end && end <= corpus.size())
      << "document range [" << begin << ", " << end << ") outside a corpus of "
      << corpus.size();
  DfCounts counts;
  const size_t n = end - begin;
  if (n == 0 || max_ngram == 0) return counts;
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);
  const size_t num_chunks = std::min(n, threads * 4);

  // Pass 1: each chunk's per-document-distinct hashes, bucketed by
  // partition.
  std::vector<std::array<std::vector<PhraseHash>, kDfPartitions>> buckets(
      num_chunks);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    std::array<std::vector<PhraseHash>, kDfPartitions>& out = buckets[chunk];
    std::vector<PhraseHash> phrases;
    const size_t chunk_end = begin + (chunk + 1) * n / num_chunks;
    for (size_t d = begin + chunk * n / num_chunks; d < chunk_end; ++d) {
      phrases.clear();
      AppendNgramHashes(corpus.docs()[d], 1, max_ngram, &phrases);
      std::sort(phrases.begin(), phrases.end());
      phrases.erase(std::unique(phrases.begin(), phrases.end()),
                    phrases.end());
      for (const PhraseHash hash : phrases) {
        // analyzer: allow(hot-loop-alloc) -- bucket vectors grow amortized
        // across the whole chunk; their final sizes are unknown up front.
        out[DfPartitionOf(hash)].push_back(hash);
      }
    }
  });

  // Pass 2: one worker per partition sorts its hashes from every chunk
  // and run-length counts them.
  ThreadPool::ParallelFor(threads, kDfPartitions, [&](size_t p) {
    size_t total = 0;
    for (const auto& chunk : buckets) total += chunk[p].size();
    std::vector<PhraseHash> hashes;
    hashes.reserve(total);
    for (auto& chunk : buckets) {
      hashes.insert(hashes.end(), chunk[p].begin(), chunk[p].end());
      std::vector<PhraseHash>().swap(chunk[p]);
    }
    std::sort(hashes.begin(), hashes.end());
    size_t distinct = 0;
    for (size_t i = 0; i < hashes.size(); ++i) {
      if (i == 0 || hashes[i] != hashes[i - 1]) ++distinct;
    }
    std::vector<PhraseDf>& run = counts[p];
    run.reserve(distinct);
    for (size_t i = 0; i < hashes.size();) {
      size_t j = i + 1;
      while (j < hashes.size() && hashes[j] == hashes[i]) ++j;
      run.push_back(PhraseDf{hashes[i], static_cast<uint32_t>(j - i)});
      i = j;
    }
  });
  return counts;
}

bool FlatDfMap::Add(PhraseHash hash, uint32_t count) {
  Reserve(size_ + 1);
  return Insert(hash, count);
}

bool FlatDfMap::Insert(PhraseHash hash, uint32_t count) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    PhraseDf& slot = slots_[i];
    if (slot.df == 0) {
      slot = PhraseDf{hash, count};
      ++size_;
      return true;
    }
    if (slot.hash == hash) {
      slot.df += count;
      return false;
    }
  }
}

void FlatDfMap::Reserve(size_t n) {
  if (n * 4 <= slots_.size() * 3) return;
  size_t capacity = 16;
  while (capacity * 3 < n * 4) capacity *= 2;
  std::vector<PhraseDf> old(capacity);
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(capacity);
  size_ = 0;
  for (const PhraseDf& slot : old) {
    if (slot.df != 0) Insert(slot.hash, slot.df);
  }
}

}  // namespace infoshield
