// Near-duplicate inputs for the alignment harnesses (pairwise, poa): a
// random base of up to 600 tokens and fuzzed edit scripts over it. Long
// near-duplicates with indel blocks reach the band doubling and the
// full-table fallback of NeedlemanWunsch and PoaGraph::AddSequence
// (DESIGN.md §18); the harnesses' short sequences never do, since their
// tables fit the first band whole.
//
// Decoding, in order: the caller seeds an Rng with TakeUint64(); the
// base is TakeBounded(600) tokens drawn from [0, 1000). An edit
// script is TakeBounded(1024) (the substitution rate, in 1024ths), then
// TakeBounded(4) blocks, each a kind byte (even: insert, odd: delete),
// an offset TakeBounded(current length) and a length TakeBounded(200);
// a deletion stops at the end of the sequence. Substituted and inserted
// tokens come from the same Rng.

#ifndef INFOSHIELD_FUZZ_NEAR_DUPLICATE_H_
#define INFOSHIELD_FUZZ_NEAR_DUPLICATE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "fuzz_util.h"
#include "text/vocabulary.h"
#include "util/random.h"

namespace infoshield {
namespace fuzz {

inline constexpr size_t kNearDuplicateAlphabet = 1000;

inline std::vector<TokenId> TakeNearDuplicateBase(FuzzInput& in, Rng& rng) {
  std::vector<TokenId> base(in.TakeBounded(600));
  for (TokenId& t : base) {
    t = static_cast<TokenId>(rng.NextIndex(kNearDuplicateAlphabet));
  }
  return base;
}

inline std::vector<TokenId> TakeEdited(FuzzInput& in, Rng& rng,
                                       const std::vector<TokenId>& base) {
  std::vector<TokenId> out = base;
  const double rate = static_cast<double>(in.TakeBounded(1024)) / 1024.0;
  for (TokenId& t : out) {
    if (rng.NextDouble() < rate) {
      t = static_cast<TokenId>(rng.NextIndex(kNearDuplicateAlphabet));
    }
  }
  const size_t blocks = in.TakeBounded(4);
  for (size_t k = 0; k < blocks; ++k) {
    const bool insert = (in.TakeByte() & 1) == 0;
    const size_t offset = in.TakeBounded(out.size());
    const size_t length = in.TakeBounded(200);
    if (insert) {
      std::vector<TokenId> block(length);
      for (TokenId& t : block) {
        t = static_cast<TokenId>(rng.NextIndex(kNearDuplicateAlphabet));
      }
      out.insert(out.begin() + static_cast<ptrdiff_t>(offset), block.begin(),
                 block.end());
    } else {
      const size_t end = std::min(out.size(), offset + length);
      out.erase(out.begin() + static_cast<ptrdiff_t>(offset),
                out.begin() + static_cast<ptrdiff_t>(end));
    }
  }
  return out;
}

}  // namespace fuzz
}  // namespace infoshield

#endif  // INFOSHIELD_FUZZ_NEAR_DUPLICATE_H_
