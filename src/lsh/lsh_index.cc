#include "lsh/lsh_index.h"

#include <algorithm>

#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace infoshield {

Status LshParams::Validate(const MinHashParams& minhash) const {
  Status minhash_status = minhash.Validate();
  if (!minhash_status.ok()) return minhash_status;
  if (bands == 0) {
    return Status::InvalidArgument("LSH bands must be positive");
  }
  if (rows == 0) {
    return Status::InvalidArgument("LSH rows must be positive");
  }
  if (bands * rows != minhash.num_hashes) {
    return Status::InvalidArgument(
        "LSH banding must tile the signature exactly: bands * rows == "
        "num_hashes (got " +
        std::to_string(bands) + " * " + std::to_string(rows) +
        " != " + std::to_string(minhash.num_hashes) + ")");
  }
  return Status::Ok();
}

std::vector<uint64_t> BandKeys(const MinHashSignature& sig,
                               const LshParams& params) {
  std::vector<uint64_t> keys;
  if (sig.empty()) return keys;
  CHECK(sig.size() == params.bands * params.rows)
      << "signature width does not match the banding";
  keys.reserve(params.bands);
  for (size_t band = 0; band < params.bands; ++band) {
    // Chained SplitMix64 over the band's rows, seeded with the band
    // index so keys from different bands live in disjoint key spaces
    // (the HashNgram length-seeding trick).
    uint64_t h = 0x9e3779b97f4a7c15ull * (band + 1);
    for (size_t r = 0; r < params.rows; ++r) {
      uint64_t state = h ^ sig[band * params.rows + r];
      h = SplitMix64(state);
    }
    keys.push_back(h);
  }
  return keys;
}

namespace {

struct KeyDoc {
  uint64_t key;
  DocId doc;
};

}  // namespace

void LshIndex::Build(const std::vector<MinHashSignature>& signatures,
                     size_t num_threads) {
  const size_t n = signatures.size();
  if (n == 0) return;
  const size_t threads = ThreadPool::ResolveNumThreads(num_threads);
  const size_t num_chunks = std::min(n, threads * 4);
  // Pass 1: each chunk's (band key, doc) pairs, bucketed by partition.
  std::vector<std::array<std::vector<KeyDoc>, kNumPartitions>> pairs(num_chunks);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t end = (chunk + 1) * n / num_chunks;
    for (size_t d = chunk * n / num_chunks; d < end; ++d) {
      for (const uint64_t key : BandKeys(signatures[d], params_)) {
        pairs[chunk][PartitionOf(key)].push_back(
            KeyDoc{key, static_cast<DocId>(d)});
      }
    }
  });
  // Pass 2: one worker per partition sorts its pairs by (key, doc) and
  // cuts them into buckets.
  std::array<Partition, kNumPartitions> built;
  ThreadPool::ParallelFor(threads, kNumPartitions, [&](size_t p) {
    std::vector<KeyDoc> sorted;
    for (auto& chunk : pairs) {
      sorted.insert(sorted.end(), chunk[p].begin(), chunk[p].end());
      std::vector<KeyDoc>().swap(chunk[p]);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const KeyDoc& a, const KeyDoc& b) {
                return a.key != b.key ? a.key < b.key : a.doc < b.doc;
              });
    Partition part;
    part.docs.reserve(sorted.size());
    for (const KeyDoc& pair : sorted) {
      if (part.keys.empty() || part.keys.back() != pair.key) {
        part.keys.push_back(pair.key);
        part.offsets.push_back(part.docs.size());
      }
      part.docs.push_back(pair.doc);
    }
    part.offsets.push_back(part.docs.size());
    built[p] = std::move(part);
  });
  partitions_ = std::move(built);
}

LshIndex::Stats LshIndex::ComputeStats() const {
  Stats stats;
  ForEachBucket([&stats](std::span<const DocId> docs) {
    ++stats.num_buckets;
    stats.max_bucket = std::max(stats.max_bucket, docs.size());
    stats.candidate_pairs += docs.size() * (docs.size() - 1) / 2;
  });
  return stats;
}

}  // namespace infoshield
