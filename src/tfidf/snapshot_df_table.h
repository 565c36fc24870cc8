// Versioned document-frequency store with copy-on-write snapshots: the
// one df table of the coarse stage (DESIGN.md §11, §15).
//
// The table holds one FlatDfMap per hash partition (df_count.h) behind
// shared_ptr<const ...>. ApplyBatch folds in a DfCounts delta from
// CountDocumentFrequencies: each partition the delta touches is cloned,
// the delta's counts are added, and the pointers are swapped. Because df
// accumulation is a commutative integer sum, folding batches in one by
// one yields exactly the table of one count over the concatenated
// documents. That additivity is what lets the batch index (one fold of
// the whole corpus into an empty table) and the incremental engine (one
// fold per ingested batch) share this code path, and what makes the
// incremental differential oracle (exact JSON match vs. a fresh batch
// run) attainable at all.
//
// Snapshot() copies the partition pointers under the mutex, so a reader
// holding a DfSnapshot keeps scoring against its frozen generation no
// matter how many batches land afterwards. Readers never lock; the
// writer locks only to read and to swap the pointers.

#ifndef INFOSHIELD_TFIDF_SNAPSHOT_DF_TABLE_H_
#define INFOSHIELD_TFIDF_SNAPSHOT_DF_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "text/ngram.h"
#include "tfidf/df_count.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace infoshield {

// An immutable view of the df table as of one generation. Cheap to copy
// (kDfPartitions shared_ptrs + counters) and safe to read from any thread
// with no synchronization: the maps it points at are never mutated.
class DfSnapshot {
 public:
  // A default snapshot is generation 0 of an empty table.
  DfSnapshot() = default;

  // Document frequency of a phrase as of this snapshot (0 if unseen).
  size_t DocumentFrequency(PhraseHash phrase) const {
    const FlatDfMap* partition = partitions_[DfPartitionOf(phrase)].get();
    return partition == nullptr ? 0 : partition->Find(phrase);
  }

  // Number of documents folded in as of this snapshot (the N in idf).
  size_t num_documents() const { return num_documents_; }

  // Distinct phrases across all partitions.
  size_t num_phrases() const { return num_phrases_; }

  // Monotone version counter: 0 for the empty table, +1 per ApplyBatch.
  uint64_t generation() const { return generation_; }

 private:
  friend class SnapshotDfTable;

  using Partitions = std::array<std::shared_ptr<const FlatDfMap>, kDfPartitions>;

  Partitions partitions_;
  size_t num_documents_ = 0;
  size_t num_phrases_ = 0;
  uint64_t generation_ = 0;
};

class SnapshotDfTable {
 public:
  SnapshotDfTable() = default;

  SnapshotDfTable(const SnapshotDfTable&) = delete;
  SnapshotDfTable& operator=(const SnapshotDfTable&) = delete;

  // The current generation's frozen view. Thread-safe and cheap; the
  // returned snapshot stays valid (and unchanged) forever.
  DfSnapshot Snapshot() const;

  // Folds a delta into the table: every partition `delta` touches is
  // cloned, the counts are added, and the new maps are swapped in
  // together; the generation advances by one and `num_new_documents` is
  // added to the document count. Partitions are folded by `num_threads`
  // workers (0 = hardware concurrency). Clears `delta`. Existing
  // snapshots are unaffected. Calls must be serialized; Snapshot() may
  // run concurrently with them.
  //
  // `delta` must hold per-document-deduplicated counts (each document
  // contributes at most 1 per phrase), as CountDocumentFrequencies
  // produces them.
  void ApplyBatch(DfCounts* delta, size_t num_new_documents,
                  size_t num_threads = 1);

  size_t num_documents() const;
  uint64_t generation() const;

  // Deep invariant audit (util/audit.h): every phrase sits in the
  // partition its hash selects, every df lies in [1, num_documents], and
  // the cached num_phrases matches the sum of partition sizes. Returns OK
  // or an Internal status listing every violation.
  Status ValidateInvariants() const;

 private:
  mutable Mutex mu_;
  DfSnapshot::Partitions partitions_ GUARDED_BY(mu_);
  size_t num_documents_ GUARDED_BY(mu_) = 0;
  size_t num_phrases_ GUARDED_BY(mu_) = 0;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
};

}  // namespace infoshield

#endif  // INFOSHIELD_TFIDF_SNAPSHOT_DF_TABLE_H_
