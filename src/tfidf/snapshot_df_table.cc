#include "tfidf/snapshot_df_table.h"

#include <utility>

#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace infoshield {

DfSnapshot SnapshotDfTable::Snapshot() const {
  MutexLock lock(&mu_);
  DfSnapshot snap;
  snap.partitions_ = partitions_;
  snap.num_documents_ = num_documents_;
  snap.num_phrases_ = num_phrases_;
  snap.generation_ = generation_;
  return snap;
}

void SnapshotDfTable::ApplyBatch(DfCounts* delta, size_t num_new_documents,
                                 size_t num_threads) {
  // Copy-on-write fold-in, built outside the lock: untouched partitions
  // keep their pointer (shared with every live snapshot); touched ones
  // are cloned and updated by one worker each. Readers holding a
  // DfSnapshot keep the old maps alive, so nothing they see ever mutates.
  const DfSnapshot base = Snapshot();
  DfSnapshot::Partitions next = base.partitions_;
  std::array<size_t, kDfPartitions> inserted{};
  ThreadPool::ParallelFor(num_threads, kDfPartitions, [&](size_t p) {
    std::vector<PhraseDf>& counts = (*delta)[p];
    if (counts.empty()) return;
    auto map = base.partitions_[p] == nullptr
                   ? std::make_shared<FlatDfMap>()
                   : std::make_shared<FlatDfMap>(*base.partitions_[p]);
    map->Reserve(map->size() + counts.size());
    for (const PhraseDf& entry : counts) {
      if (map->Add(entry.hash, entry.df)) ++inserted[p];
    }
    next[p] = std::move(map);
    std::vector<PhraseDf>().swap(counts);
  });
  size_t phrase_delta = 0;
  for (const size_t n : inserted) phrase_delta += n;
  {
    MutexLock lock(&mu_);
    CHECK(generation_ == base.generation_)
        << "concurrent SnapshotDfTable::ApplyBatch calls";
    partitions_ = std::move(next);
    num_documents_ += num_new_documents;
    num_phrases_ += phrase_delta;
    ++generation_;
  }
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
}

size_t SnapshotDfTable::num_documents() const {
  MutexLock lock(&mu_);
  return num_documents_;
}

uint64_t SnapshotDfTable::generation() const {
  MutexLock lock(&mu_);
  return generation_;
}

Status SnapshotDfTable::ValidateInvariants() const {
  const DfSnapshot snap = Snapshot();
  audit::Auditor a("SnapshotDfTable");
  size_t total_phrases = 0;
  for (size_t p = 0; p < kDfPartitions; ++p) {
    const FlatDfMap* partition = snap.partitions_[p].get();
    if (partition == nullptr) continue;
    total_phrases += partition->size();
    partition->ForEach([&](const PhraseDf& entry) {
      if (DfPartitionOf(entry.hash) != p) {
        a.Expect(false,
                 StrFormat("phrase %llu stored in partition %zu but hashes "
                           "to partition %zu",
                           static_cast<unsigned long long>(entry.hash), p,
                           DfPartitionOf(entry.hash)));
      }
      if (entry.df > snap.num_documents()) {
        a.Expect(false,
                 StrFormat("phrase %llu has df %u outside [1, %zu]",
                           static_cast<unsigned long long>(entry.hash),
                           entry.df, snap.num_documents()));
      }
    });
  }
  a.Expect(total_phrases == snap.num_phrases(),
           StrFormat("cached num_phrases %zu but partitions hold %zu",
                     snap.num_phrases(), total_phrases));
  return a.Finish();
}

}  // namespace infoshield
