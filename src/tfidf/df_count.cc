#include "tfidf/df_count.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace infoshield {

namespace {

// The smallest power-of-two table, at least 16 slots, that holds `n`
// entries at most 3/4 full.
size_t CapacityFor(size_t n) {
  size_t capacity = 16;
  while (capacity * 3 < n * 4) capacity *= 2;
  return capacity;
}

// The number of n-grams of length 1..max_ngram in a document of `length`
// tokens, repeats included.
size_t NgramCount(size_t length, size_t max_ngram) {
  const size_t longest = std::min(length, max_ngram);
  return longest * (length + 1) - longest * (longest + 1) / 2;
}

// Drops repeated n-gram hashes within one document: open addressing with
// linear probing over (hash, stamp) slots, where a slot belongs to the
// current document only if it carries that document's stamp. Starting a
// document just moves the stamp, so the table is never cleared. Sized
// once for the longest document it will see, it is at most half full.
class DocumentDedupe {
 public:
  explicit DocumentDedupe(size_t max_grams) {
    size_t capacity = 16;
    while (capacity < 2 * max_grams) capacity *= 2;
    slots_.resize(capacity);
    shift_ = 64 - std::countr_zero(capacity);
  }

  // Starts the next document: every slot is free again.
  void NextDocument() { ++stamp_; }

  // Returns true iff `hash` is new in the current document.
  bool Insert(PhraseHash hash) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = FibonacciSlot(hash, shift_);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_) {
        slot = Slot{hash, stamp_};
        return true;
      }
      if (slot.hash == hash) return false;
    }
  }

 private:
  struct Slot {
    PhraseHash hash = 0;
    uint64_t stamp = 0;
  };
  std::vector<Slot> slots_;
  int shift_ = 64;
  uint64_t stamp_ = 0;
};

// Pass 2 aims at this many hashes per sub-range: few enough that each
// sub-range's sort is a short insertion sort.
constexpr size_t kHashesPerSubRange = 8;

// The radix bits that split a partition of `total` hashes into
// sub-ranges of kHashesPerSubRange to twice that many hashes on average:
// 0 (one sub-range) for a partition too small to split, and never more
// than the hash bits below the partition bits.
int SubRangeBits(size_t total) {
  const size_t ranges = total / kHashesPerSubRange;
  if (ranges < 2) return 0;
  return std::min(static_cast<int>(std::bit_width(ranges)) - 1,
                  static_cast<int>(64 - kDfPartitionBits));
}

// The sub-range of `hash` among 2^bits: the `bits` hash bits just below
// the partition bits. The shift is split in two so that it stays below
// 64 when bits is 0.
size_t SubRangeOf(PhraseHash hash, int bits) {
  return static_cast<size_t>(((hash << kDfPartitionBits) >> 1) >>
                             (63 - bits));
}

}  // namespace

// analyzer: hot
void CountDocumentFrequencies(const Corpus& corpus, size_t begin,
                              size_t end, size_t max_ngram,
                              size_t num_threads, const DfFold& fold) {
  CHECK(begin <= end && end <= corpus.size())
      << "document range [" << begin << ", " << end << ") outside a corpus of "
      << corpus.size();
  const size_t n = end - begin;
  if (n == 0 || max_ngram == 0) return;
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);
  const size_t num_chunks = std::min(n, threads * 4);

  // Pass 1: each chunk's per-document-distinct hashes, bucketed by
  // partition. A document's repeats are dropped as its hashes are
  // generated; pass 2 sorts them anyway.
  std::vector<std::array<std::vector<PhraseHash>, kDfPartitions>> buckets(
      num_chunks);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    std::array<std::vector<PhraseHash>, kDfPartitions>& out = buckets[chunk];
    const size_t chunk_begin = begin + chunk * n / num_chunks;
    const size_t chunk_end = begin + (chunk + 1) * n / num_chunks;
    size_t longest = 0;
    for (size_t d = chunk_begin; d < chunk_end; ++d) {
      longest = std::max(longest, corpus.docs()[d].tokens.size());
    }
    DocumentDedupe dedupe(NgramCount(longest, max_ngram));
    std::vector<PhraseHash> phrases;
    for (size_t d = chunk_begin; d < chunk_end; ++d) {
      phrases.clear();
      AppendNgramHashes(corpus.docs()[d], 1, max_ngram, &phrases);
      dedupe.NextDocument();
      for (const PhraseHash hash : phrases) {
        if (!dedupe.Insert(hash)) continue;
        // analyzer: allow(hot-loop-alloc) -- bucket vectors grow amortized
        // across the whole chunk; their final sizes are unknown up front.
        out[DfPartitionOf(hash)].push_back(hash);
      }
    }
  });

  // Pass 2: one worker per partition gathers its hashes from every chunk
  // by a counting sort on the sub-range bits, sorts each sub-range,
  // run-length counts them and folds the run. A partition's sub-ranges
  // in index order are ascending hash ranges, so the sorted sub-ranges
  // together are the partition's hashes in ascending order.
  ThreadPool::ParallelFor(threads, kDfPartitions, [&](size_t p) {
    size_t total = 0;
    for (const auto& chunk : buckets) total += chunk[p].size();
    if (total == 0) return;
    const int bits = SubRangeBits(total);
    const size_t num_ranges = size_t{1} << bits;
    // ends[s] counts sub-range s - 1, then holds where sub-range s starts
    // and, after the scatter, where it ends.
    std::vector<size_t> ends(num_ranges + 1, 0);
    for (const auto& chunk : buckets) {
      for (const PhraseHash hash : chunk[p]) {
        ++ends[SubRangeOf(hash, bits) + 1];
      }
    }
    for (size_t s = 0; s < num_ranges; ++s) ends[s + 1] += ends[s];
    std::vector<PhraseHash> hashes(total);
    for (auto& chunk : buckets) {
      for (const PhraseHash hash : chunk[p]) {
        hashes[ends[SubRangeOf(hash, bits)]++] = hash;
      }
      std::vector<PhraseHash>().swap(chunk[p]);
    }
    for (size_t s = 0; s < num_ranges; ++s) {
      const size_t first = s == 0 ? 0 : ends[s - 1];
      std::sort(hashes.begin() + static_cast<std::ptrdiff_t>(first),
                hashes.begin() + static_cast<std::ptrdiff_t>(ends[s]));
    }
    size_t distinct = 0;
    for (size_t i = 0; i < hashes.size(); ++i) {
      if (i == 0 || hashes[i] != hashes[i - 1]) ++distinct;
    }
    std::vector<PhraseDf> run;
    run.reserve(distinct);
    for (size_t i = 0; i < hashes.size();) {
      size_t j = i + 1;
      while (j < hashes.size() && hashes[j] == hashes[i]) ++j;
      run.push_back(PhraseDf{hashes[i], static_cast<uint32_t>(j - i)});
      i = j;
    }
    std::vector<PhraseHash>().swap(hashes);
    fold(p, run);
  });
}

bool FlatDfMap::Add(PhraseHash hash, uint32_t count) {
  Reserve(size_ + 1);
  return Insert(hash, count);
}

bool FlatDfMap::Insert(PhraseHash hash, uint32_t count) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = FibonacciSlot(hash, shift_);; i = (i + 1) & mask) {
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
  const size_t capacity = CapacityFor(n);
  std::vector<PhraseDf> old(capacity);
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(capacity);
  size_ = 0;
  for (const PhraseDf& slot : old) {
    if (slot.df != 0) Insert(slot.hash, slot.df);
  }
}

bool FlatPhraseSet::Insert(PhraseHash hash) {
  if (hash == 0) {
    if (has_zero_) return false;
    has_zero_ = true;
    ++size_;
    return true;
  }
  Reserve(size_ + 1);
  return InsertSlot(hash);
}

bool FlatPhraseSet::InsertSlot(PhraseHash hash) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = FibonacciSlot(hash, shift_);; i = (i + 1) & mask) {
    if (slots_[i] == hash) return false;
    if (slots_[i] == 0) {
      slots_[i] = hash;
      ++size_;
      return true;
    }
  }
}

bool FlatPhraseSet::Erase(PhraseHash hash) {
  if (hash == 0) {
    if (!has_zero_) return false;
    has_zero_ = false;
    --size_;
    return true;
  }
  if (slots_.empty()) return false;
  const size_t mask = slots_.size() - 1;
  size_t hole = FibonacciSlot(hash, shift_);
  while (slots_[hole] != hash) {
    if (slots_[hole] == 0) return false;
    hole = (hole + 1) & mask;
  }
  // Backward shift: a later member of the run may fill the hole iff the
  // hole lies on its probe path, i.e. its home is no nearer to it than
  // the hole is (distances taken cyclically).
  for (size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const size_t home = FibonacciSlot(slots_[j], shift_);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
  --size_;
  return true;
}

void FlatPhraseSet::Reserve(size_t n) {
  if (n * 4 <= slots_.size() * 3) return;
  const size_t capacity = CapacityFor(n);
  std::vector<PhraseHash> old(capacity);
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(capacity);
  size_ = has_zero_ ? 1 : 0;
  for (const PhraseHash slot : old) {
    if (slot != 0) InsertSlot(slot);
  }
}

}  // namespace infoshield
