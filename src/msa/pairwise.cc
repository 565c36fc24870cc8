#include "msa/pairwise.h"

#include <algorithm>

#include "msa/nw_kernel.h"

namespace infoshield {

size_t Alignment::CountType(AlignOpType t) const {
  size_t n = 0;
  for (const AlignOp& op : ops) {
    if (op.type == t) ++n;
  }
  return n;
}

// analyzer: hot
Alignment NeedlemanWunsch(const std::vector<TokenId>& a,
                          const std::vector<TokenId>& b,
                          const AlignmentScoring& scoring,
                          AlignmentWorkspace* workspace) {
  const size_t n = a.size();
  const size_t m = b.size();

  // Identical sequences align as all matches whenever matching scores at
  // least as well as mismatching and gaps are not rewarded: any
  // alignment of a against itself has at most n diagonal columns (each
  // scoring <= match) plus gap columns (each scoring <= 0), so the
  // all-match path is optimal, and the DP's tie-breaking (diagonal
  // first) reconstructs exactly it. Exact duplicates dominate real spam
  // campaigns, so this skips the O(n^2) DP entirely for them.
  if (a == b && scoring.match >= scoring.mismatch && scoring.match >= 0 &&
      scoring.gap <= 0) {
    Alignment out;
    out.ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      AlignOp op;
      op.type = AlignOpType::kMatch;
      op.a_token = a[i];
      op.b_token = b[i];
      out.ops.push_back(op);
    }
    return out;
  }

  // Two rolling score rows and 2-bit packed moves (msa/nw_kernel.h).
  AlignmentWorkspace local;
  AlignmentWorkspace& ws = workspace != nullptr ? *workspace : local;
  const TokenId* pa = a.data();
  const TokenId* pb = b.data();
  const int match = scoring.match;
  const int mismatch = scoring.mismatch;
  internal::NwFill(
      n, m, scoring.gap,
      [pa, pb, match, mismatch](size_t i, size_t j) {
        return pa[i - 1] == pb[j - 1] ? match : mismatch;
      },
      &ws.score, &ws.move);

  Alignment out;
  out.ops.reserve(n + m);
  internal::NwTraceback(n, m, ws.move, [&](uint8_t move, size_t i, size_t j) {
    AlignOp op;
    switch (move) {
      case internal::kNwDiag:
        op.a_token = a[i - 1];
        op.b_token = b[j - 1];
        op.type = (a[i - 1] == b[j - 1]) ? AlignOpType::kMatch
                                         : AlignOpType::kSubstitute;
        break;
      case internal::kNwUp:
        op.type = AlignOpType::kDelete;
        op.a_token = a[i - 1];
        break;
      default:
        op.type = AlignOpType::kInsert;
        op.b_token = b[j - 1];
        break;
    }
    out.ops.push_back(op);
  });
  std::reverse(out.ops.begin(), out.ops.end());
  return out;
}

bool AlignmentIsConsistent(const Alignment& alignment,
                           const std::vector<TokenId>& a,
                           const std::vector<TokenId>& b) {
  std::vector<TokenId> ra;
  std::vector<TokenId> rb;
  for (const AlignOp& op : alignment.ops) {
    switch (op.type) {
      case AlignOpType::kMatch:
        if (op.a_token != op.b_token) return false;
        ra.push_back(op.a_token);
        rb.push_back(op.b_token);
        break;
      case AlignOpType::kSubstitute:
        if (op.a_token == op.b_token) return false;
        ra.push_back(op.a_token);
        rb.push_back(op.b_token);
        break;
      case AlignOpType::kInsert:
        rb.push_back(op.b_token);
        break;
      case AlignOpType::kDelete:
        ra.push_back(op.a_token);
        break;
    }
  }
  return ra == a && rb == b;
}

}  // namespace infoshield
