#include "msa/pairwise.h"

#include <algorithm>
#include <cstdlib>

#include "msa/nw_kernel.h"

namespace infoshield {

namespace {

// Half-width of the first band NeedlemanWunsch fills (DESIGN.md §18).
// Near-duplicates with ~1% edits certify it at once; every pair with a
// side of at most 64 tokens fits it whole.
constexpr size_t kFirstHalfBand = 64;

}  // namespace

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

  // Band doubling (msa/nw_kernel.h, DESIGN.md §18). A path that leaves
  // the band [min(0,Δ) - w, max(0,Δ) + w], Δ = m - n, has at least
  // g = |Δ| + 2w + 2 gap columns, so it scores at most
  // maxd·(n + m - g)/2 + gap·g. When the band's S(n, m) beats that
  // strictly, every optimal path lies inside the band, and the band's
  // tie-broken traceback is the full table's. Otherwise w doubles. The
  // bound falls with g only while 2·gap < maxd; for other scorings the
  // first band is the full table.
  AlignmentWorkspace local;
  AlignmentWorkspace& ws = workspace != nullptr ? *workspace : local;
  const TokenId* pa = a.data();
  const TokenId* pb = b.data();
  const int match = scoring.match;
  const int mismatch = scoring.mismatch;
  const int64_t maxd = std::max(match, mismatch);
  const int64_t gap = scoring.gap;
  const int64_t delta = static_cast<int64_t>(m) - static_cast<int64_t>(n);
  size_t half = kFirstHalfBand;
  internal::NwBand band = 2 * gap < maxd
                              ? internal::NwBand::Around(n, m, half)
                              : internal::NwBand::Full(n, m);
  for (;;) {
    const int64_t best = internal::NwFill(
        band, scoring.gap,
        [pa, pb, match, mismatch](size_t i, size_t j) {
          return pa[i - 1] == pb[j - 1] ? match : mismatch;
        },
        &ws.score, &ws.move, &ws.verdict);
    ws.cells += band.cells();
    if (band.full()) break;
    // Not full, so half < min(n, m) and n + m - g is even and >= 0.
    const int64_t g = std::abs(delta) + 2 * static_cast<int64_t>(half) + 2;
    const int64_t outside =
        maxd * ((static_cast<int64_t>(n + m) - g) / 2) + gap * g;
    if (best > outside) break;
    half *= 2;
    band = internal::NwBand::Around(n, m, half);
  }

  Alignment out;
  out.ops.reserve(n + m);
  internal::NwTraceback(band, ws.move, [&](uint8_t move, size_t i, size_t j) {
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
