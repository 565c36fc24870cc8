// Pairwise global alignment (Needleman–Wunsch) over token-id sequences.
//
// Used in two places:
//  * Candidate Alignment (§IV-B1): C(d | d1) — can document d be encoded
//    cheaply against document d1?
//  * Cost evaluation: each document's encoding cost against a consensus /
//    template is derived from its alignment to the template's constant
//    tokens (Definition 3).
//
// Conventions: the first sequence `a` is the template/reference, the
// second `b` is the document. kDelete = reference token absent from the
// document; kInsert = document token absent from the reference.

#ifndef INFOSHIELD_MSA_PAIRWISE_H_
#define INFOSHIELD_MSA_PAIRWISE_H_

#include <cstdint>
#include <vector>

#include "text/vocabulary.h"

namespace infoshield {

enum class AlignOpType : uint8_t {
  kMatch = 0,
  kSubstitute = 1,
  kInsert = 2,
  kDelete = 3,
};

struct AlignOp {
  AlignOpType type;
  // Valid for kMatch / kSubstitute / kDelete.
  TokenId a_token = kInvalidToken;
  // Valid for kMatch / kSubstitute / kInsert.
  TokenId b_token = kInvalidToken;
};

inline bool operator==(const AlignOp& x, const AlignOp& y) {
  return x.type == y.type && x.a_token == y.a_token && x.b_token == y.b_token;
}

struct Alignment {
  std::vector<AlignOp> ops;

  // Number of alignment columns (l̂ in the paper's notation).
  size_t length() const { return ops.size(); }

  size_t CountType(AlignOpType t) const;
  size_t matches() const { return CountType(AlignOpType::kMatch); }
  size_t substitutions() const { return CountType(AlignOpType::kSubstitute); }
  size_t insertions() const { return CountType(AlignOpType::kInsert); }
  size_t deletions() const { return CountType(AlignOpType::kDelete); }

  // Unmatched columns: everything but matches (e_d in Definition 3).
  size_t unmatched() const { return ops.size() - matches(); }
};

struct AlignmentScoring {
  int match = 1;
  int mismatch = -1;
  int gap = -1;
};

// Reusable DP buffers for NeedlemanWunsch, which fills only a diagonal
// band of W diagonals around the pair's corners (msa/nw_kernel.h,
// DESIGN.md §18). `score` holds the two rolling band rows,
// 2·(min(W, |b|+1)+1) ints; `move` holds a 2-bit move per band cell,
// packed four to a byte per row, |a|·ceil(min(W, |b|+1)/4) bytes;
// `verdict` is min(W, |b|+1) bytes of row scratch. Near-duplicates
// certify W = |Δ| + 129 (Δ = |b| - |a|): ~130 KB for 4,000 x 4,000
// tokens, against 4 MB for the full band. The fine stage aligns every
// cluster member against every probed consensus; one workspace per
// calling loop amortizes the buffers to high-water-mark allocations. A
// workspace must not be shared across threads.
struct AlignmentWorkspace {
  std::vector<int> score;
  std::vector<uint8_t> move;
  std::vector<uint8_t> verdict;
  // DP cells (i, j >= 1) filled by every call so far, rejected bands
  // included: a deterministic work count.
  uint64_t cells = 0;
};

// Global alignment of b against a. Deterministic tie-breaking
// (diagonal > delete > insert). Identical to the full-table DP, but
// fills only a band the score certifies: O(|a|·W) time for a band of W
// diagonals, O(|a|·|b|) when no band certifies; memory as stated for
// AlignmentWorkspace. `workspace`, when given, supplies the DP buffers
// (contents are scratch); the result is identical with or without it.
Alignment NeedlemanWunsch(const std::vector<TokenId>& a,
                          const std::vector<TokenId>& b,
                          const AlignmentScoring& scoring = {},
                          AlignmentWorkspace* workspace = nullptr);

// Verifies that replaying `ops` reconstructs exactly (a, b); used by tests
// and debug checks.
bool AlignmentIsConsistent(const Alignment& alignment,
                           const std::vector<TokenId>& a,
                           const std::vector<TokenId>& b);

}  // namespace infoshield

#endif  // INFOSHIELD_MSA_PAIRWISE_H_
