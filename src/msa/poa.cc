#include "msa/poa.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infoshield {

namespace {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

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
  // Only the score table is stored (4 B/cell): the traceback re-derives
  // each move from the scores with the same cell rule (DESIGN.md §18).
  const size_t num_rows = topo_order_.size() + 1;
  const size_t m = seq.size();
  const int match = scoring_.match;
  const int mismatch = scoring_.mismatch;
  const int gap = scoring_.gap;
  std::vector<int> score(num_rows * (m + 1));
  auto at = [m](size_t r, size_t j) { return r * (m + 1) + j; };

  // Virtual start row: only sequence insertions can precede the graph.
  score[at(0, 0)] = 0;
  for (size_t j = 1; j <= m; ++j) score[at(0, j)] = static_cast<int>(j) * gap;

  // Predecessor rows of row r >= 1 (the virtual start if the node is a
  // source); the scratch is hoisted out of the row loop and reused.
  std::vector<uint32_t> preds;
  auto load_preds = [&](size_t r) {
    const Node& v = nodes_[topo_order_[r - 1]];
    preds.clear();
    if (v.in.empty()) {
      preds.push_back(0);
      return;
    }
    preds.reserve(v.in.size());
    for (uint32_t p : v.in) preds.push_back(topo_rank_[p] + 1);
  };

  // The recurrence for cell (r, j), r >= 1, with `preds` loaded for r.
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
    for (uint32_t p : preds) {
      // Skip this node (graph gap).
      const int skip = score[at(p, j)] + gap;
      if (skip > best.score) best = Cell{skip, kSkipNode, p};
      if (j >= 1) {
        const int diag = score[at(p, j - 1)] +
                         (token == seq[j - 1] ? match : mismatch);
        if (diag > best.score) best = Cell{diag, kDiag, p};
      }
    }
    if (j >= 1) {
      const int ins = score[at(r, j - 1)] + gap;
      if (ins > best.score) {
        best = Cell{ins, kInsertSeq, static_cast<uint32_t>(r)};
      }
    }
    return best;
  };

  for (size_t r = 1; r < num_rows; ++r) {
    load_preds(r);
    const TokenId token = nodes_[topo_order_[r - 1]].token;
    for (size_t j = 0; j <= m; ++j) {
      score[at(r, j)] = best_cell(r, j, token).score;
    }
  }

  // Alignment must consume the whole sequence and end at a sink node (or
  // the virtual start, if the graph were empty — excluded above).
  size_t best_row = 0;
  int best_score = score[at(0, m)];
  for (size_t r = 1; r < num_rows; ++r) {
    if (!nodes_[topo_order_[r - 1]].out.empty()) continue;
    if (score[at(r, m)] > best_score) {
      best_score = score[at(r, m)];
      best_row = r;
    }
  }

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
      load_preds(r);
      step = best_cell(r, j, nodes_[topo_order_[r - 1]].token);
      // The re-derived best must be the stored score; otherwise the
      // table is corrupt.
      CHECK_EQ(step.score, score[at(r, j)]);
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
