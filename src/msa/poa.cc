#include "msa/poa.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <ranges>

#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infoshield {

namespace {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

// Slack of the first band AddSequence fills beyond the gaps every path
// needs (DESIGN.md §18). Graphs with nodes + |seq| <= kFirstSlack fit it
// whole.
constexpr size_t kFirstSlack = 128;

// Distance from x to the interval [lo, hi].
int64_t Dist(int64_t x, int64_t lo, int64_t hi) {
  return x < lo ? lo - x : (x > hi ? x - hi : 0);
}

enum Move : uint8_t { kDiag = 0, kSkipNode = 1, kInsertSeq = 2, kStart = 3 };

}  // namespace

PoaGraph::PoaGraph(const std::vector<TokenId>& first,
                   const AlignmentScoring& scoring)
    : scoring_(scoring) {
  if (!first.empty()) {
    uint32_t prev = kInvalidToken;
    for (TokenId t : first) {
      uint32_t id = NewNode(t);
      if (prev != kInvalidToken) AddEdge(prev, id);
      prev = id;
    }
  }
  num_sequences_ = 1;
  RecomputeTopoOrder();
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
}

uint32_t PoaGraph::NewNode(TokenId token) {
  nodes_.push_back(Node{token, 1, {}, {}});
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void PoaGraph::AddEdge(uint32_t from, uint32_t to) {
  CHECK_NE(from, to);
  auto& out = nodes_[from].out;
  if (std::find(out.begin(), out.end(), to) != out.end()) return;
  out.push_back(to);
  nodes_[to].in.push_back(from);
}

void PoaGraph::RecomputeTopoOrder() {
  const size_t n = nodes_.size();
  topo_order_.clear();
  topo_order_.reserve(n);
  topo_rank_.assign(n, 0);
  std::vector<uint32_t> indegree(n);
  // Min-id priority queue makes the order deterministic and keeps the
  // first sequence's spine in creation order.
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>> ready;
  for (uint32_t i = 0; i < n; ++i) {
    indegree[i] = static_cast<uint32_t>(nodes_[i].in.size());
    if (indegree[i] == 0) ready.push(i);
  }
  while (!ready.empty()) {
    uint32_t v = ready.top();
    ready.pop();
    topo_rank_[v] = static_cast<uint32_t>(topo_order_.size());
    topo_order_.push_back(v);
    for (uint32_t w : nodes_[v].out) {
      if (--indegree[w] == 0) ready.push(w);
    }
  }
  // Equality fails iff the graph has a cycle.
  CHECK_EQ(topo_order_.size(), n);
}

std::pair<size_t, size_t> PoaGraph::ComputePathBounds() {
  const size_t count = topo_order_.size();
  path_.resize(count + 1);  // row 0, the virtual start, is unused
  for (size_t r = 1; r <= count; ++r) {
    const Node& v = nodes_[topo_order_[r - 1]];
    PathBounds& b = path_[r];
    b.pre_min = v.in.empty() ? 1 : std::numeric_limits<uint32_t>::max();
    b.pre_max = 1;
    for (uint32_t p : v.in) {
      const PathBounds& q = path_[topo_rank_[p] + 1];
      b.pre_min = std::min(b.pre_min, q.pre_min + 1);
      b.pre_max = std::max(b.pre_max, q.pre_max + 1);
    }
  }
  size_t shortest = std::numeric_limits<size_t>::max();
  size_t longest = 0;
  for (size_t r = count; r >= 1; --r) {
    const Node& v = nodes_[topo_order_[r - 1]];
    PathBounds& b = path_[r];
    b.suf_min = v.out.empty() ? 0 : std::numeric_limits<uint32_t>::max();
    b.suf_max = 0;
    for (uint32_t w : v.out) {
      const PathBounds& q = path_[topo_rank_[w] + 1];
      b.suf_min = std::min(b.suf_min, q.suf_min + 1);
      b.suf_max = std::max(b.suf_max, q.suf_max + 1);
    }
    if (v.out.empty()) {
      shortest = std::min<size_t>(shortest, b.pre_min);
      longest = std::max<size_t>(longest, b.pre_max);
    }
  }
  return {shortest, longest};
}

uint64_t PoaGraph::LayOutRows(size_t m, bool full, size_t slack) {
  const size_t num_rows = topo_order_.size() + 1;
  const int64_t cols = static_cast<int64_t>(m);
  const int64_t limit = static_cast<int64_t>(slack);
  row_.resize(num_rows);
  row_[0] = RowBand{0, 0, m + 1};  // the virtual start stays whole
  size_t start = m + 1;
  uint64_t cells = 0;
  for (size_t r = 1; r < num_rows; ++r) {
    size_t lo = 0;
    size_t end = m + 1;
    if (!full) {
      // A path through (r, j) has at least need(j) gaps: j columns
      // against a prefix of [pre_min, pre_max] nodes, and m - j against
      // a suffix of [suf_min, suf_max]. need is convex, smallest at mid,
      // so the cells with need <= slack form one interval.
      const PathBounds& b = path_[r];
      const int64_t a1 = b.pre_min;
      const int64_t a2 = b.pre_max;
      const int64_t b1 = cols - b.suf_max;
      const int64_t b2 = cols - b.suf_min;
      auto need = [&](int64_t j) {
        return Dist(j, a1, a2) + Dist(j, b1, b2);
      };
      const int64_t mid = std::clamp<int64_t>(
          std::min(std::max(a1, b1), std::min(a2, b2)), 0, cols);
      if (need(mid) > limit) {
        end = 0;
      } else {
        // need falls up to mid and rises after it: binary-search both
        // edges of the interval.
        const auto left = std::views::iota(int64_t{0}, mid + 1);
        lo = static_cast<size_t>(
            std::ranges::partition_point(
                left, [&](int64_t j) { return need(j) > limit; }) -
            left.begin());
        const auto right = std::views::iota(mid, cols + 1);
        end = static_cast<size_t>(mid) +
              static_cast<size_t>(
                  std::ranges::partition_point(
                      right, [&](int64_t j) { return need(j) <= limit; }) -
                  right.begin());
      }
    }
    row_[r] = RowBand{start, lo, end};
    start += end - lo;
    if (end > lo) cells += end - std::max<size_t>(lo, 1);
  }
  score_.resize(start);
  return cells;
}

void PoaGraph::LoadPreds(size_t r) {
  const Node& v = nodes_[topo_order_[r - 1]];
  preds_.clear();
  if (v.in.empty()) {
    preds_.push_back(0);
    return;
  }
  for (uint32_t p : v.in) preds_.push_back(topo_rank_[p] + 1);
}

// analyzer: hot
void PoaGraph::FillRows(const std::vector<TokenId>& seq) {
  const size_t m = seq.size();
  const int match = scoring_.match;
  const int mismatch = scoring_.mismatch;
  const int gap = scoring_.gap;
  int* score = score_.data();
  // Virtual start row: only sequence insertions can precede the graph.
  score[0] = 0;
  for (size_t j = 1; j <= m; ++j) score[j] = score[j - 1] + gap;

  // Each cell takes the max over its candidates; the traceback re-derives
  // the tie order. Predecessor-major loops over each predecessor's
  // clamped column range need no per-cell band test.
  for (size_t r = 1; r < row_.size(); ++r) {
    const RowBand& row = row_[r];
    if (row.end <= row.lo) continue;
    int* cur = score + row.start;
    const size_t width = row.end - row.lo;
    std::fill(cur, cur + width, kNegInf);
    const TokenId token = nodes_[topo_order_[r - 1]].token;
    LoadPreds(r);
    for (uint32_t p : preds_) {
      const RowBand& from = row_[p];
      const int* prev = score + from.start;
      // Skip this node: (p, j) -> (r, j).
      size_t lo = std::max(row.lo, from.lo);
      size_t end = std::min(row.end, from.end);
      for (size_t j = lo; j < end; ++j) {
        cur[j - row.lo] = std::max(cur[j - row.lo], prev[j - from.lo] + gap);
      }
      // Diagonal: (p, j - 1) -> (r, j).
      lo = std::max({row.lo, from.lo + 1, size_t{1}});
      end = std::min(row.end, from.end + 1);
      for (size_t j = lo; j < end; ++j) {
        const int diag = prev[j - 1 - from.lo] +
                         (token == seq[j - 1] ? match : mismatch);
        cur[j - row.lo] = std::max(cur[j - row.lo], diag);
      }
    }
    // Sequence insertion: (r, j - 1) -> (r, j), inside the row's band.
    for (size_t k = 1; k < width; ++k) {
      cur[k] = std::max(cur[k], cur[k - 1] + gap);
    }
  }
}

int PoaGraph::ScoreAt(size_t r, size_t j) const {
  const RowBand& row = row_[r];
  return j >= row.lo && j < row.end ? score_[row.start + j - row.lo]
                                    : kNegInf;
}

// analyzer: hot
void PoaGraph::AddSequence(const std::vector<TokenId>& seq) {
  ++num_sequences_;
  if (seq.empty()) return;
  if (nodes_.empty()) {
    uint32_t prev = kInvalidToken;
    for (TokenId t : seq) {
      uint32_t id = NewNode(t);
      if (prev != kInvalidToken) AddEdge(prev, id);
      prev = id;
    }
    RecomputeTopoOrder();
    INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
    return;
  }

  // DP over rows = {virtual start} + nodes in topological order, columns =
  // sequence prefix length. Row r >= 1 corresponds to topo_order_[r - 1].
  // Only scores are stored, per row band: the traceback re-derives each
  // move from them with the same cell rule (DESIGN.md §18).
  const size_t num_rows = topo_order_.size() + 1;
  const size_t m = seq.size();
  const int match = scoring_.match;
  const int mismatch = scoring_.mismatch;
  const int gap = scoring_.gap;

  // Band doubling (DESIGN.md §18). Every path has at least
  // dist(m, [Lmin, Lmax]) gaps, Lmin / Lmax the node counts of the
  // shortest / longest source-to-sink paths; the band keeps the cells
  // whose paths may have at most `slack` more. A path through a cell
  // outside it has g >= slack + 1 gaps and at most (Lmax + m - g) / 2
  // diagonal columns, so it scores at most
  // maxd·(Lmax + m - g)/2 + gap·g. When the best sink beats that
  // strictly, every optimal path lies inside the band, and the tie-broken
  // traceback is the full table's. Otherwise the slack doubles. The
  // bound needs maxd >= 0 and 2·gap < maxd; past slack >= Lmax + m the
  // band is the whole table.
  const int64_t maxd = std::max(match, mismatch);
  const int64_t gap64 = gap;
  const bool certifiable =
      maxd >= 0 && 2 * gap64 < maxd && num_rows - 1 + m > kFirstSlack;
  size_t longest = 0;
  size_t slack = 0;
  if (certifiable) {
    const auto [shortest, most] = ComputePathBounds();
    longest = most;
    slack = static_cast<size_t>(Dist(static_cast<int64_t>(m),
                                     static_cast<int64_t>(shortest),
                                     static_cast<int64_t>(longest))) +
            kFirstSlack;
  }
  // Alignment must consume the whole sequence and end at a sink node (or
  // the virtual start, if the graph were empty — excluded above).
  size_t best_row = 0;
  for (;;) {
    const bool full = !certifiable || slack >= longest + m;
    dp_cells_ += LayOutRows(m, full, slack);
    FillRows(seq);
    best_row = 0;
    int best_score = ScoreAt(0, m);
    for (size_t r = 1; r < num_rows; ++r) {
      if (!nodes_[topo_order_[r - 1]].out.empty()) continue;
      if (ScoreAt(r, m) > best_score) {
        best_score = ScoreAt(r, m);
        best_row = r;
      }
    }
    if (full) break;
    const int64_t g = static_cast<int64_t>(slack) + 1;
    const int64_t span = static_cast<int64_t>(longest + m) - g;
    if (2 * int64_t{best_score} > maxd * span + 2 * gap64 * g) break;
    slack *= 2;
  }

  // The recurrence for cell (r, j), r >= 1, with preds_ loaded for r.
  // Tie order: per predecessor (in-edge order) skip, then diagonal, then
  // the sequence insertion; each replaces the best only if strictly
  // greater. The forward pass keeps only the score; the traceback runs
  // the same rule on the finished table to recover move and source row.
  struct Cell {
    int score;
    uint8_t move;
    uint32_t from;  // row the move comes from
  };
  auto best_cell = [&](size_t r, size_t j, TokenId token) {
    Cell best{kNegInf, kStart, 0};
    for (uint32_t p : preds_) {
      // Skip this node (graph gap).
      const int skip = ScoreAt(p, j) + gap;
      if (skip > best.score) best = Cell{skip, kSkipNode, p};
      if (j >= 1) {
        const int diag =
            ScoreAt(p, j - 1) + (token == seq[j - 1] ? match : mismatch);
        if (diag > best.score) best = Cell{diag, kDiag, p};
      }
    }
    if (j >= 1) {
      const int ins = ScoreAt(r, j - 1) + gap;
      if (ins > best.score) {
        best = Cell{ins, kInsertSeq, static_cast<uint32_t>(r)};
      }
    }
    return best;
  };

  // Backtrace into (move, row, column) steps, then replay forward.
  struct Step {
    uint8_t move;
    uint32_t row;  // row the move lands on
    size_t col;    // column the move lands on
  };
  std::vector<Step> steps;
  steps.reserve(num_rows + m);  // a step consumes a row or a column
  size_t r = best_row;
  size_t j = m;
  while (r != 0 || j != 0) {
    Cell step{0, kInsertSeq, 0};  // row 0: insertions only
    if (r != 0) {
      LoadPreds(r);
      step = best_cell(r, j, nodes_[topo_order_[r - 1]].token);
      // The re-derived best must be the stored score; otherwise the
      // table is corrupt.
      CHECK_EQ(step.score, ScoreAt(r, j));
    }
    steps.push_back(Step{step.move, static_cast<uint32_t>(r), j});
    switch (step.move) {
      case kDiag:
        r = step.from;
        --j;
        break;
      case kSkipNode:
        r = step.from;
        break;
      case kInsertSeq:
        --j;
        break;
      default:
        LOG(FATAL) << "unreachable";
    }
  }
  std::reverse(steps.begin(), steps.end());

  // Fuse: matched tokens reuse nodes; everything else becomes new nodes.
  uint32_t prev_node = kInvalidToken;
  size_t col = 0;
  for (const Step& step : steps) {
    switch (step.move) {
      case kDiag: {
        uint32_t node_id = topo_order_[step.row - 1];
        uint32_t path_node;
        if (nodes_[node_id].token == seq[col]) {
          ++nodes_[node_id].support;
          path_node = node_id;
        } else {
          path_node = NewNode(seq[col]);
        }
        if (prev_node != kInvalidToken) AddEdge(prev_node, path_node);
        prev_node = path_node;
        ++col;
        break;
      }
      case kInsertSeq: {
        uint32_t path_node = NewNode(seq[col]);
        if (prev_node != kInvalidToken) AddEdge(prev_node, path_node);
        prev_node = path_node;
        ++col;
        break;
      }
      case kSkipNode:
        break;
      default:
        LOG(FATAL) << "unreachable";
    }
  }
  CHECK_EQ(col, m);
  RecomputeTopoOrder();
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
}

std::vector<TokenId> PoaGraph::ConsensusAtThreshold(size_t h) const {
  std::vector<TokenId> out;
  for (uint32_t id : topo_order_) {
    if (nodes_[id].support > h) out.push_back(nodes_[id].token);
  }
  return out;
}

size_t PoaGraph::max_support() const {
  size_t best = 0;
  for (const Node& n : nodes_) best = std::max<size_t>(best, n.support);
  return best;
}

Status PoaGraph::ValidateInvariants() const {
  audit::Auditor a("PoaGraph");
  const size_t n = nodes_.size();

  // Topological bookkeeping: topo_order_ is a permutation of the node ids
  // and topo_rank_ is its exact inverse.
  a.Expect(topo_order_.size() == n,
           StrFormat("topo_order_ has %zu entries for %zu nodes",
                     topo_order_.size(), n));
  a.Expect(topo_rank_.size() == n,
           StrFormat("topo_rank_ has %zu entries for %zu nodes",
                     topo_rank_.size(), n));
  if (topo_order_.size() == n && topo_rank_.size() == n) {
    std::vector<char> seen(n, 0);
    for (size_t i = 0; i < n; ++i) {
      uint32_t id = topo_order_[i];
      if (!a.Expect(id < n, StrFormat("topo_order_[%zu]=%u out of range",
                                      i, id))) {
        continue;
      }
      a.Expect(!seen[id], StrFormat("node %u appears twice in topo_order_",
                                    id));
      seen[id] = 1;
      a.Expect(topo_rank_[id] == i,
               StrFormat("topo_rank_[%u]=%u but topo_order_[%zu]=%u", id,
                         topo_rank_[id], i, id));
    }
  }

  const bool ranks_usable = topo_rank_.size() == n;
  for (uint32_t u = 0; u < n; ++u) {
    const Node& node = nodes_[u];
    a.Expect(node.support >= 1 && node.support <= num_sequences_,
             StrFormat("node %u support %u outside [1, %zu]", u,
                       node.support, num_sequences_));
    std::vector<uint32_t> sorted_out = node.out;
    std::sort(sorted_out.begin(), sorted_out.end());
    a.Expect(std::adjacent_find(sorted_out.begin(), sorted_out.end()) ==
                 sorted_out.end(),
             StrFormat("node %u has duplicate out-edges", u));
    for (uint32_t v : node.out) {
      a.Expect(v != u, StrFormat("node %u has a self-edge", u));
      if (!a.Expect(v < n, StrFormat("edge %u->%u points past %zu nodes",
                                     u, v, n))) {
        continue;
      }
      // Every out-edge is mirrored by exactly one in-edge.
      const auto& in = nodes_[v].in;
      a.Expect(std::count(in.begin(), in.end(), u) == 1,
               StrFormat("edge %u->%u not mirrored once in nodes_[%u].in",
                         u, v, v));
      // A true topological order: edges only go up in rank. This is also
      // the acyclicity proof — any cycle would need a rank-decreasing
      // edge.
      if (ranks_usable && v < n) {
        a.Expect(topo_rank_[u] < topo_rank_[v],
                 StrFormat("edge %u->%u violates topo order (rank %u >= %u)",
                           u, v, topo_rank_[u], topo_rank_[v]));
      }
    }
    for (uint32_t p : node.in) {
      if (!a.Expect(p < n, StrFormat("in-edge %u->%u points past %zu nodes",
                                     p, u, n))) {
        continue;
      }
      const auto& out = nodes_[p].out;
      a.Expect(std::count(out.begin(), out.end(), u) == 1,
               StrFormat("in-edge %u->%u not mirrored once in nodes_[%u].out",
                         p, u, p));
    }
  }
  return a.Finish();
}

std::vector<uint32_t> PoaGraph::SupportByTopoOrder() const {
  std::vector<uint32_t> out;
  out.reserve(topo_order_.size());
  for (uint32_t id : topo_order_) out.push_back(nodes_[id].support);
  return out;
}

}  // namespace infoshield
