// Partitioned document-frequency counting (DESIGN.md §11), shared by the
// batch tf-idf build and the incremental df table.
//
// Document frequency is a commutative integer sum keyed by PhraseHash.
// CountDocumentFrequencies computes it in two lock-free passes:
//
//   1. Contiguous document chunks are spread over the workers. Each
//      document's n-gram hashes pass through a reused open-addressing
//      table, stamped per document and sized once per chunk from its
//      longest document, which drops the document's repeats (a document
//      counts once per phrase). The first occurrences are appended to
//      the chunk's bucket for their partition: the hash's top
//      kDfPartitionBits bits.
//   2. Each partition is owned by exactly one worker, which gathers that
//      partition's hashes from every chunk by a counting sort on the
//      hash bits just below the partition bits, as many as put about 8
//      hashes in each sub-range (none for a partition under 16 hashes),
//      sorts each sub-range, run-length counts the hashes and hands the
//      sorted run to the caller's fold on that same worker.
//
// No worker writes another worker's data, so there are no locks and no
// merge, and the runs are a pure function of the documents: identical
// for any thread count. TfidfIndex folds each run straight into its
// partition's tables, so no whole-corpus copy of the counts is ever held
// beside them: Build folds a whole-corpus count into an empty df >= 2
// map, the incremental engine one batch's count into the live map and
// df-1 set (AddDocuments).

#ifndef INFOSHIELD_TFIDF_DF_COUNT_H_
#define INFOSHIELD_TFIDF_DF_COUNT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
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

// Receives one partition's counts: its (hash, df) entries, ascending by
// hash. The view is valid only during the call.
using DfFold = std::function<void(size_t partition,
                                  std::span<const PhraseDf> run)>;

// Counts the document frequency of every n-gram of length 1..max_ngram
// over documents [begin, end) of `corpus` with `num_threads` workers
// (0 = hardware concurrency), as described above, and calls fold(p, run)
// once for every partition p that holds a phrase, on the worker that owns
// p. Calls for distinct partitions may run concurrently.
void CountDocumentFrequencies(const Corpus& corpus, size_t begin,
                              size_t end, size_t max_ngram,
                              size_t num_threads, const DfFold& fold);

// The slot a Fibonacci hash gives `hash` in a table of 2^(64 - shift)
// slots. The multiply folds every bit of the hash into the top bits, so
// the slot does not repeat a partition's fixed top bits.
constexpr size_t FibonacciSlot(PhraseHash hash, int shift) {
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift);
}

// One partition's table of phrases seen in two or more documents: open
// addressing with linear probing over a flat array of (hash, df) slots,
// df == 0 marking an empty slot (a stored phrase occurs in at least one
// document). At most 3/4 full.
class FlatDfMap {
 public:
  // df of `hash`, 0 if absent.
  uint32_t Find(PhraseHash hash) const {
    if (slots_.empty()) return 0;
    const size_t mask = slots_.size() - 1;
    for (size_t i = FibonacciSlot(hash, shift_);; i = (i + 1) & mask) {
      const PhraseDf& slot = slots_[i];
      if (slot.df == 0) return 0;
      if (slot.hash == hash) return slot.df;
    }
  }

  // Starts loading the slot where a Find of `hash` begins, so a later
  // Find does not wait for it.
  void Prefetch(PhraseHash hash) const {
    if (slots_.empty()) return;
    __builtin_prefetch(&slots_[FibonacciSlot(hash, shift_)]);
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
  // Add without the capacity check.
  bool Insert(PhraseHash hash, uint32_t count);

  std::vector<PhraseDf> slots_;  // empty, or a power of two
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
};

// One partition's set of phrases seen in exactly one document, kept only
// by an index grown with TfidfIndex::AddDocuments: the same probing as
// FlatDfMap over 8-byte slots holding only the hash. 0 marks
// an empty slot, so the valid hash 0 is kept in a flag beside the array.
// Erase shifts later members of the probe run back into the hole, so no
// tombstones pile up as phrases are promoted out of the set. At most 3/4
// full.
class FlatPhraseSet {
 public:
  bool Contains(PhraseHash hash) const {
    if (hash == 0) return has_zero_;
    if (slots_.empty()) return false;
    const size_t mask = slots_.size() - 1;
    for (size_t i = FibonacciSlot(hash, shift_);; i = (i + 1) & mask) {
      if (slots_[i] == hash) return true;
      if (slots_[i] == 0) return false;
    }
  }

  // Returns true iff `hash` was absent and is now stored.
  bool Insert(PhraseHash hash);

  // Returns true iff `hash` was stored and is now removed.
  bool Erase(PhraseHash hash);

  // Makes room for `n` phrases in total without further rehashing.
  void Reserve(size_t n);

  size_t size() const { return size_; }

  // Calls fn(PhraseHash) for every stored phrase: hash 0 first, then in
  // slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_zero_) fn(PhraseHash{0});
    for (const PhraseHash slot : slots_) {
      if (slot != 0) fn(slot);
    }
  }

 private:
  // Insert of a nonzero hash without the capacity check.
  bool InsertSlot(PhraseHash hash);

  std::vector<PhraseHash> slots_;  // empty, or a power of two
  size_t size_ = 0;                // includes hash 0 when has_zero_
  bool has_zero_ = false;
  int shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace infoshield

#endif  // INFOSHIELD_TFIDF_DF_COUNT_H_
