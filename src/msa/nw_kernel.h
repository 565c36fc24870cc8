// The global-alignment dynamic program shared by NeedlemanWunsch
// (integer scores) and ProfileMsa (expected column scores in double).
// Private to src/msa/.
//
// Recurrence over rows i = 0..n and columns j = 0..m with a linear gap:
//
//   S(0, j) = S(0, j-1) + gap          S(i, 0) = S(i-1, 0) + gap
//   S(i, j) = best of  diag = S(i-1, j-1) + diag_score(i, j)
//                      up   = S(i-1, j)   + gap      (row item skipped)
//                      left = S(i, j-1)   + gap      (column item skipped)
//
// with the tie order diag > up > left: `up` replaces `diag` only if
// strictly greater, then `left` replaces the winner only if strictly
// greater.
//
// Memory: only two rolling score rows are kept, plus a 2-bit move per
// cell, packed four to a byte per row. Row 0 (all `left`) is implicit,
// so rows 1..n take NwRowBytes(m) = ceil((m+1)/4) bytes each: an n x m
// DP holds 2(m+1) scores, n·ceil((m+1)/4) move bytes and m+1 bytes of
// row scratch, ~0.25 B/cell instead of a full score table.
//
// Each row is computed in two passes (DESIGN.md §18). Pass 1 compares
// diag against up for every column; these have no dependency inside the
// row, so the loop vectorizes. Pass 2 runs the serial insertion chain,
// comparing left against pass 1's winner left to right. Every cell
// makes the same two comparisons in the same order as the one-pass
// recurrence, so scores and moves are identical to it.

#ifndef INFOSHIELD_MSA_NW_KERNEL_H_
#define INFOSHIELD_MSA_NW_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace infoshield {
namespace internal {

enum NwMove : uint8_t { kNwDiag = 0, kNwUp = 1, kNwLeft = 2, kNwNone = 3 };

// Bytes of packed moves per DP row: 2 bits for each of columns 0..m.
inline size_t NwRowBytes(size_t m) { return m / 4 + 1; }

// Runs the DP for an n x m problem. `diag_score(i, j)` scores aligning
// row item i-1 with column item j-1 (1 <= i <= n, 1 <= j <= m).
// `rows` is resized to the two rolling score rows (2(m+1) entries) and
// `moves` to n·NwRowBytes(m) packed moves; both are scratch that may be
// reused across calls, and their previous contents never matter.
template <typename Score, typename DiagScore>
void NwFill(size_t n, size_t m, Score gap, const DiagScore& diag_score,
            std::vector<Score>* rows, std::vector<uint8_t>* moves) {
  const size_t row_bytes = NwRowBytes(m);
  rows->resize(2 * (m + 1));
  moves->resize(n * row_bytes);
  // Pass 1's per-column verdict (up beat diag), one byte per column.
  std::vector<uint8_t> from_up(m + 1);

  Score* prev = rows->data();
  Score* cur = prev + (m + 1);
  prev[0] = Score{};
  for (size_t j = 1; j <= m; ++j) prev[j] = prev[j - 1] + gap;

  uint8_t* verdict = from_up.data();
  for (size_t i = 1; i <= n; ++i) {
    // Pass 1: diag vs up, independent across columns.
    for (size_t j = 1; j <= m; ++j) {
      const Score diag = prev[j - 1] + diag_score(i, j);
      const Score up = prev[j] + gap;
      const bool take_up = up > diag;
      cur[j] = take_up ? up : diag;
      verdict[j] = take_up ? kNwUp : kNwDiag;
    }
    // Pass 2: the insertion chain, packing each finished move.
    cur[0] = prev[0] + gap;
    uint8_t* out = moves->data() + (i - 1) * row_bytes;
    uint8_t byte = kNwUp;  // column 0 comes from above
    Score run = cur[0];
    for (size_t j = 1; j <= m; ++j) {
      const Score left = run + gap;
      Score best = cur[j];
      uint8_t move = verdict[j];
      if (left > best) {
        best = left;
        move = kNwLeft;
      }
      cur[j] = best;
      run = best;
      byte |= static_cast<uint8_t>(move << (2 * (j & 3)));
      if ((j & 3) == 3) {
        out[j >> 2] = byte;
        byte = 0;
      }
    }
    if ((m & 3) != 3) out[m >> 2] = byte;
    std::swap(prev, cur);
  }
}

// The move NwFill stored for cell (i, j); row 0 is all `left`.
inline uint8_t NwMoveAt(const std::vector<uint8_t>& moves, size_t m,
                        size_t i, size_t j) {
  if (i == 0) return j == 0 ? kNwNone : kNwLeft;
  const uint8_t byte = moves[(i - 1) * NwRowBytes(m) + (j >> 2)];
  return static_cast<uint8_t>((byte >> (2 * (j & 3))) & 3);
}

// Walks NwFill's optimal path back from (n, m) to (0, 0), calling
// step(move, i, j) for each cell it leaves; the calls run end to start.
template <typename Step>
void NwTraceback(size_t n, size_t m, const std::vector<uint8_t>& moves,
                 const Step& step) {
  size_t i = n;
  size_t j = m;
  while (i > 0 || j > 0) {
    const uint8_t move = NwMoveAt(moves, m, i, j);
    switch (move) {
      case kNwDiag:
        step(move, i, j);
        --i;
        --j;
        break;
      case kNwUp:
        step(move, i, j);
        --i;
        break;
      case kNwLeft:
        step(move, i, j);
        --j;
        break;
      default:
        LOG(FATAL) << "corrupt traceback at (" << i << "," << j << ")";
    }
  }
}

}  // namespace internal
}  // namespace infoshield

#endif  // INFOSHIELD_MSA_NW_KERNEL_H_
