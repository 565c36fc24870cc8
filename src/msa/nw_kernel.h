// The global-alignment dynamic program behind NeedlemanWunsch (integer
// scores). Private to src/msa/.
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
// Band: the DP fills only the cells on diagonals d = j - i in
// [dlo, dhi] (NwBand), and a source cell outside the band counts as
// -inf. Row i then spans the columns [lo(i), hi(i)] =
// [max(0, i + dlo), min(m, i + dhi)]. NwBand::Full is the band that
// covers the whole table; it runs the same loops with lo(i) = 0 and
// hi(i) = m, so no cell pays a range test. NeedlemanWunsch picks the
// band and certifies it (DESIGN.md §18).
//
// Memory: two rolling band rows of width()+1 scores (the extra entry is
// an -inf sentinel), and a 2-bit move per cell packed four to a byte per
// row, indexed by the cell's offset j - lo(i) in its row. Row 0 (all
// `left`) is implicit, so rows 1..n take NwRowBytes(width() - 1) bytes
// each, plus width() bytes of row scratch. The full band is
// n·ceil((m+1)/4) move bytes, ~0.25 B/cell; a band of W diagonals is
// n·ceil(W/4).
//
// Each row is computed in two passes (DESIGN.md §18). Pass 1 compares
// diag against up for every column; these have no dependency inside the
// row, so the loop vectorizes. Pass 2 runs the serial insertion chain,
// comparing left against pass 1's winner left to right. Every cell
// makes the same two comparisons in the same order as the one-pass
// recurrence, so scores and moves are identical to it.

#ifndef INFOSHIELD_MSA_NW_KERNEL_H_
#define INFOSHIELD_MSA_NW_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace infoshield {
namespace internal {

enum NwMove : uint8_t { kNwDiag = 0, kNwUp = 1, kNwLeft = 2, kNwNone = 3 };

// Bytes of packed moves per DP row: 2 bits for each of columns 0..m.
inline size_t NwRowBytes(size_t m) { return m / 4 + 1; }

// The diagonals d = j - i an n x m DP fills: [dlo, dhi], with
// dlo <= min(0, m - n) and dhi >= max(0, m - n) so that both corners
// (0, 0) and (n, m) are inside, and -n <= dlo, dhi <= m.
struct NwBand {
  size_t n = 0;
  size_t m = 0;
  ptrdiff_t dlo = 0;
  ptrdiff_t dhi = 0;

  static NwBand Full(size_t n, size_t m) {
    return {n, m, -static_cast<ptrdiff_t>(n), static_cast<ptrdiff_t>(m)};
  }

  // [min(0, Δ) - w, max(0, Δ) + w] for Δ = m - n, clamped to the table.
  // Clamping on either side happens exactly when w >= min(n, m), and
  // then the band is the full table.
  static NwBand Around(size_t n, size_t m, size_t w) {
    const ptrdiff_t rows = static_cast<ptrdiff_t>(n);
    const ptrdiff_t cols = static_cast<ptrdiff_t>(m);
    const ptrdiff_t half = static_cast<ptrdiff_t>(w);
    return {n, m, std::max(-rows, std::min<ptrdiff_t>(0, cols - rows) - half),
            std::min(cols, std::max<ptrdiff_t>(0, cols - rows) + half)};
  }

  bool full() const { return *this == Full(n, m); }
  bool operator==(const NwBand&) const = default;
  // Row i's first and last column; lo(i) <= hi(i) for every row.
  size_t lo(size_t i) const {
    const ptrdiff_t first = static_cast<ptrdiff_t>(i) + dlo;
    return first > 0 ? static_cast<size_t>(first) : 0;
  }
  size_t hi(size_t i) const {
    return std::min(m, static_cast<size_t>(static_cast<ptrdiff_t>(i) + dhi));
  }
  // Cells in the widest row.
  size_t width() const {
    return std::min(static_cast<size_t>(dhi - dlo) + 1, m + 1);
  }
  // Cells (i, j) with i, j >= 1 inside the band: the cells that run the
  // recurrence. n·m for the full band.
  uint64_t cells() const {
    uint64_t total = 0;
    for (size_t i = 1; i <= n; ++i) {
      total += hi(i) + 1 - std::max<size_t>(lo(i), 1);
    }
    return total;
  }
};

// Runs the DP over `band`. `diag_score(i, j)` scores aligning row item
// i-1 with column item j-1 (1 <= i <= n, 1 <= j <= m). `rows` is resized
// to the two rolling band rows (2·(width()+1) entries), `moves` to
// n·NwRowBytes(width() - 1) packed moves and `verdicts` to width() bytes;
// all three are scratch that may be reused across calls, and their
// previous contents never matter. Returns S(n, m) within the band.
template <typename Score, typename DiagScore>
Score NwFill(const NwBand& band, Score gap, const DiagScore& diag_score,
             std::vector<Score>* rows, std::vector<uint8_t>* moves,
             std::vector<uint8_t>* verdicts) {
  // Far enough below any real score that adding a few scores cannot
  // overflow, and never chosen over a real one.
  constexpr Score kOutside = std::numeric_limits<Score>::lowest() / 4;
  const size_t n = band.n;
  const size_t width = band.width();
  const size_t row_bytes = NwRowBytes(width - 1);
  rows->resize(2 * (width + 1));
  moves->resize(n * row_bytes);
  verdicts->resize(width);

  // Row r's entry k holds column lo(r) + k; the entry after its last
  // cell is the sentinel the next row's `up` reads past the band's top
  // edge.
  Score* prev = rows->data();
  Score* cur = prev + (width + 1);
  size_t prev_lo = 0;
  const size_t top = band.hi(0);
  prev[0] = Score{};
  for (size_t j = 1; j <= top; ++j) prev[j] = prev[j - 1] + gap;
  prev[top + 1] = kOutside;

  uint8_t* verdict = verdicts->data();
  for (size_t i = 1; i <= n; ++i) {
    const size_t lo = band.lo(i);
    const size_t w = band.hi(i) - lo + 1;
    // Column lo + k sits at prev[k + shift] in the previous row. lo
    // stays 0 while the band's left edge is clipped by column 0, and
    // then advances by one per row.
    const size_t shift = lo - prev_lo;
    // Column 0 has no diagonal or left source; lo > 0 implies shift == 1.
    const size_t first = lo == 0 ? 1 : 0;
    // Pass 1: diag vs up, independent across columns.
    for (size_t k = first; k < w; ++k) {
      const Score diag = prev[k + shift - 1] + diag_score(i, lo + k);
      const Score up = prev[k + shift] + gap;
      const bool take_up = up > diag;
      cur[k] = take_up ? up : diag;
      verdict[k] = take_up ? kNwUp : kNwDiag;
    }
    // Pass 2: the insertion chain, packing each finished move. The cell
    // left of a row that starts past column 0 is outside the band.
    uint8_t* out = moves->data() + (i - 1) * row_bytes;
    uint8_t byte = 0;
    Score run = kOutside;
    if (lo == 0) {
      cur[0] = prev[0] + gap;
      byte = kNwUp;  // column 0 comes from above
      run = cur[0];
    }
    for (size_t k = first; k < w; ++k) {
      const Score left = run + gap;
      Score best = cur[k];
      uint8_t move = verdict[k];
      if (left > best) {
        best = left;
        move = kNwLeft;
      }
      cur[k] = best;
      run = best;
      byte |= static_cast<uint8_t>(move << (2 * (k & 3)));
      if ((k & 3) == 3) {
        out[k >> 2] = byte;
        byte = 0;
      }
    }
    if (((w - 1) & 3) != 3) out[(w - 1) >> 2] = byte;
    cur[w] = kOutside;
    std::swap(prev, cur);
    prev_lo = lo;
  }
  return prev[band.m - prev_lo];
}

// The move NwFill stored for cell (i, j) of `band`; row 0 is all `left`.
inline uint8_t NwMoveAt(const std::vector<uint8_t>& moves,
                        const NwBand& band, size_t i, size_t j) {
  if (i == 0) return j == 0 ? kNwNone : kNwLeft;
  const size_t k = j - band.lo(i);
  const uint8_t byte =
      moves[(i - 1) * NwRowBytes(band.width() - 1) + (k >> 2)];
  return static_cast<uint8_t>((byte >> (2 * (k & 3))) & 3);
}

// Walks NwFill's optimal path back from (n, m) to (0, 0), calling
// step(move, i, j) for each cell it leaves; the calls run end to start.
template <typename Step>
void NwTraceback(const NwBand& band, const std::vector<uint8_t>& moves,
                 const Step& step) {
  size_t i = band.n;
  size_t j = band.m;
  while (i > 0 || j > 0) {
    const uint8_t move = NwMoveAt(moves, band, i, j);
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
