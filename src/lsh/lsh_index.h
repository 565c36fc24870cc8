// Banded LSH bucketing over MinHash signatures (DESIGN.md §16).
//
// A signature of bands * rows components is cut into `bands` contiguous
// bands; each band's rows are hashed (seeded with the band index, the
// same trick HashNgram uses with the gram length, so band 0's buckets
// can never collide with band 1's) into a 64-bit bucket key. Two
// documents become candidates iff they share at least one bucket key —
// probability 1 - (1 - J^rows)^bands for Jaccard J, the classic S-curve
// with threshold ~ (1/bands)^(1/rows).
//
// The index is the queryable side of the coarse backend. Build buckets
// the signatures in the two lock-free passes of the df count
// (tfidf/df_count.h): document chunks scatter their (band key, doc)
// pairs by the key's top bits, then one worker per partition sorts its
// pairs and cuts them into buckets. Every bucket therefore lists its
// documents in ascending order whatever the thread count. Query returns
// the sorted candidate set for a probe signature; the coarse backend
// never reads the index for its canonical edge replay (lsh_coarse.cc
// replays doc-major band keys instead).

#ifndef INFOSHIELD_LSH_LSH_INDEX_H_
#define INFOSHIELD_LSH_LSH_INDEX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "lsh/minhash.h"
#include "text/corpus.h"
#include "util/status.h"

namespace infoshield {

struct LshParams {
  // bands * rows must equal MinHashParams::num_hashes. The defaults
  // (32 bands of 4 rows over 128 hashes) put the detection threshold at
  // (1/32)^(1/4) ~ 0.42 Jaccard — low enough that near-duplicate
  // families (J >= 0.6) are caught with probability 1 - 3e-5 or better,
  // high enough that unrelated documents almost never collide.
  size_t bands = 32;
  size_t rows = 4;

  // OK iff the banding is usable and consistent with `minhash`
  // (InvalidArgument otherwise; never dies).
  Status Validate(const MinHashParams& minhash) const;
};

// The bands 64-bit bucket keys of one signature, band-major. Empty for
// an empty signature. Pure; shared by Build, Query, and the coarse
// backend's canonical replay.
std::vector<uint64_t> BandKeys(const MinHashSignature& sig,
                               const LshParams& params);

class LshIndex {
 public:
  struct Stats {
    // Distinct (band, bucket) keys holding at least one document.
    size_t num_buckets = 0;
    // Occupancy of the fullest bucket (hub diagnostic).
    size_t max_bucket = 0;
    // Sum over buckets of C(|bucket|, 2): the number of candidate pairs
    // banded LSH proposes, the quantity the sub-linear claim is about.
    size_t candidate_pairs = 0;
  };

  LshIndex(const MinHashParams& minhash, const LshParams& params)
      : minhash_(minhash), params_(params) {}

  LshIndex(const LshIndex&) = delete;
  LshIndex& operator=(const LshIndex&) = delete;

  // Buckets every signature (indexed by DocId) across `num_threads`
  // workers (1 = sequential, 0 = hardware concurrency). Signatures with
  // no components (empty documents) occupy no bucket. May be called
  // once per index.
  void Build(const std::vector<MinHashSignature>& signatures,
             size_t num_threads);

  // DocIds sharing at least one band bucket with `sig`, sorted
  // ascending, deduplicated. The probe itself is not inserted. This is
  // the primitive a serving layer's "does this new ad look like an
  // existing one" pre-filter uses.
  std::vector<DocId> Query(const MinHashSignature& sig) const;

  // Aggregate bucket statistics (scans all partitions; call after Build).
  Stats ComputeStats() const;

  const MinHashParams& minhash_params() const { return minhash_; }
  const LshParams& params() const { return params_; }

 private:
  // Partitions, selected by the bucket key's top bits like the df
  // count's.
  static constexpr size_t kNumPartitions = 64;

  static constexpr size_t PartitionOf(uint64_t key) {
    return static_cast<size_t>(key >> 58);
  }

  // One partition's buckets: keys ascending, bucket i holding
  // docs[offsets[i], offsets[i + 1]), ascending.
  struct Partition {
    std::vector<uint64_t> keys;
    std::vector<size_t> offsets;
    std::vector<DocId> docs;
  };

  MinHashParams minhash_;
  LshParams params_;
  std::array<Partition, kNumPartitions> partitions_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_LSH_LSH_INDEX_H_
