#include "msa/profile_msa.h"

#include <algorithm>

#include "msa/nw_kernel.h"

namespace infoshield {

uint32_t ProfileMsa::Column::CountOf(TokenId t) const {
  auto it = counts.find(t);
  return it == counts.end() ? 0 : it->second;
}

std::pair<TokenId, uint32_t> ProfileMsa::Column::Dominant() const {
  TokenId best_token = kInvalidToken;
  uint32_t best_count = 0;
  // determinism: argmax with a total tie-break (count desc, token asc),
  // so the winner is independent of iteration order.
  for (const auto& [token, count] : counts) {
    if (count > best_count ||
        (count == best_count && token < best_token)) {
      best_token = token;
      best_count = count;
    }
  }
  return {best_token, best_count};
}

uint32_t ProfileMsa::Column::Occupancy() const {
  uint32_t total = 0;
  // determinism: commutative integer sum; order cannot matter.
  for (const auto& [token, count] : counts) total += count;
  return total;
}

ProfileMsa::ProfileMsa(const std::vector<TokenId>& first,
                       const AlignmentScoring& scoring)
    : scoring_(scoring) {
  columns_.reserve(first.size());
  for (TokenId t : first) {
    Column col;
    col.counts.emplace(t, 1);
    columns_.push_back(std::move(col));
  }
  num_sequences_ = 1;
}

double ProfileMsa::ColumnScore(const Column& col, TokenId token) const {
  // Sum-of-pairs expectation against the sequences present in the
  // column; gaps in the column contribute the gap penalty.
  const uint32_t matches = col.CountOf(token);
  const uint32_t occupancy = col.Occupancy();
  const uint32_t mismatches = occupancy - matches;
  const uint32_t gaps = static_cast<uint32_t>(num_sequences_) - occupancy;
  const double total = static_cast<double>(num_sequences_);
  return (static_cast<double>(matches) * scoring_.match +
          static_cast<double>(mismatches) * scoring_.mismatch +
          static_cast<double>(gaps) * scoring_.gap) /
         total;
}

void ProfileMsa::AddSequence(const std::vector<TokenId>& seq) {
  const size_t n = columns_.size();
  const size_t m = seq.size();
  ++num_sequences_;
  if (m == 0) return;
  if (n == 0) {
    for (TokenId t : seq) {
      Column col;
      col.counts.emplace(t, 1);
      columns_.push_back(std::move(col));
    }
    return;
  }

  // NW over (profile columns) x (sequence positions) on the shared
  // kernel (msa/nw_kernel.h): two score rows and 2-bit moves over the
  // full band, since no certificate bounds its expected scores. Its
  // border is the cumulative sum of gaps, exact in double for integer
  // gaps.
  const internal::NwBand band = internal::NwBand::Full(n, m);
  std::vector<double> rows;
  std::vector<uint8_t> moves;
  std::vector<uint8_t> verdicts;
  internal::NwFill(
      band, static_cast<double>(scoring_.gap),
      [&](size_t i, size_t j) {
        return ColumnScore(columns_[i - 1], seq[j - 1]);
      },
      &rows, &moves, &verdicts);

  // Backtrace into per-column actions, then rebuild the profile.
  struct Action {
    uint8_t move;
    size_t col;  // profile column consumed (diag / up)
    size_t pos;  // sequence position consumed (diag / left)
  };
  std::vector<Action> actions;
  actions.reserve(n + m);
  internal::NwTraceback(band, moves, [&](uint8_t move, size_t i, size_t j) {
    actions.push_back({move, i - 1, j - 1});
  });
  std::reverse(actions.begin(), actions.end());

  std::vector<Column> next;
  next.reserve(n + m);
  for (const Action& a : actions) {
    switch (a.move) {
      case internal::kNwDiag: {
        Column col = std::move(columns_[a.col]);
        ++col.counts[seq[a.pos]];
        next.push_back(std::move(col));
        break;
      }
      case internal::kNwUp:
        // Sequence skips this column (gap for the new sequence).
        next.push_back(std::move(columns_[a.col]));
        break;
      default: {
        // New column occupied only by the new sequence.
        Column col;
        col.counts.emplace(seq[a.pos], 1);
        next.push_back(std::move(col));
        break;
      }
    }
  }
  columns_ = std::move(next);
}

std::vector<TokenId> ProfileMsa::ConsensusAtThreshold(size_t h) const {
  std::vector<TokenId> out;
  for (const Column& col : columns_) {
    auto [token, count] = col.Dominant();
    if (token != kInvalidToken && count > h) out.push_back(token);
  }
  return out;
}

}  // namespace infoshield
