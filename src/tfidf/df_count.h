// Partitioned document-frequency counting (DESIGN.md §11), shared by the
// batch tf-idf build and the incremental df table.
//
// Document frequency is a commutative integer sum keyed by PhraseHash.
// CountDocumentFrequencies computes it in two lock-free passes:
//
//   1. Contiguous document chunks are spread over the workers. Each
//      document's n-gram hashes are written into a reused buffer, sorted
//      and deduplicated there (a document counts once per phrase), and
//      appended to the chunk's bucket for their partition: the hash's top
//      kDfPartitionBits bits.
//   2. Each partition is owned by exactly one worker, which sorts that
//      partition's hashes from every chunk and run-length counts them.
//
// No worker writes another worker's data, so there are no locks and no
// merge, and the counts are a pure function of the documents: identical
// for any thread count. TfidfIndex::AddDocuments folds them into its
// per-partition FlatDfMaps in place: the batch build folds a
// whole-corpus count into empty maps, the incremental engine one batch's
// count into the live ones.

#ifndef INFOSHIELD_TFIDF_DF_COUNT_H_
#define INFOSHIELD_TFIDF_DF_COUNT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/corpus.h"
#include "text/ngram.h"

namespace infoshield {

// Partitions are selected by the hash's top bits, so each partition is a
// contiguous hash range and partitions in index order are ascending.
inline constexpr size_t kDfPartitionBits = 6;
inline constexpr size_t kDfPartitions = size_t{1} << kDfPartitionBits;

constexpr size_t DfPartitionOf(PhraseHash hash) {
  return static_cast<size_t>(hash >> (64 - kDfPartitionBits));
}

// A phrase and the number of documents it occurs in.
struct PhraseDf {
  PhraseHash hash = 0;
  uint32_t df = 0;

  bool operator==(const PhraseDf&) const = default;
};

// Counted (hash, df) entries split by DfPartitionOf, each partition
// ascending by hash; concatenated in partition order they are one sorted
// (hash, df) vector.
using DfCounts = std::array<std::vector<PhraseDf>, kDfPartitions>;

// The document frequency of every n-gram of length 1..max_ngram over
// documents [begin, end) of `corpus`, computed by `num_threads` workers
// (0 = hardware concurrency) as described above.
DfCounts CountDocumentFrequencies(const Corpus& corpus, size_t begin,
                                  size_t end, size_t max_ngram,
                                  size_t num_threads);

// One partition's df table: open addressing with linear probing over a
// flat array of (hash, df) slots, df == 0 marking an empty slot (a stored
// phrase occurs in at least one document). At most 3/4 full.
class FlatDfMap {
 public:
  // df of `hash`, 0 if absent.
  uint32_t Find(PhraseHash hash) const {
    if (slots_.empty()) return 0;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      const PhraseDf& slot = slots_[i];
      if (slot.df == 0) return 0;
      if (slot.hash == hash) return slot.df;
    }
  }

  // Adds `count` (> 0) to the df of `hash`, inserting the phrase if it is
  // absent. Returns true iff it was inserted.
  bool Add(PhraseHash hash, uint32_t count);

  // Makes room for `n` phrases in total without further rehashing.
  void Reserve(size_t n);

  size_t size() const { return size_; }

  // Calls fn(const PhraseDf&) for every stored phrase, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const PhraseDf& slot : slots_) {
      if (slot.df != 0) fn(slot);
    }
  }

 private:
  // Fibonacci hashing: the multiply folds every bit of the hash into the
  // top bits, so the slot does not repeat the partition's fixed top bits.
  size_t Home(PhraseHash hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  // Add without the capacity check.
  bool Insert(PhraseHash hash, uint32_t count);

  std::vector<PhraseDf> slots_;  // empty, or a power of two
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace infoshield

#endif  // INFOSHIELD_TFIDF_DF_COUNT_H_
