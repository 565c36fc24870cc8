#include "oracle/reference_msa.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/logging.h"

namespace infoshield::oracle {

namespace {

enum NwMove : uint8_t {
  kFromDiag = 0,
  kFromUp = 1,
  kFromLeft = 2,
  kFromNone = 3
};

constexpr int kPoaNegInf = std::numeric_limits<int>::min() / 4;

enum PoaMove : uint8_t { kDiag = 0, kSkipNode = 1, kInsertSeq = 2, kStart = 3 };

}  // namespace

std::vector<TokenId> NearDuplicate(Rng& rng, const std::vector<TokenId>& base,
                                   size_t alphabet) {
  std::vector<TokenId> out;
  out.reserve(base.size() + base.size() / 8);
  for (TokenId t : base) {
    const double r = rng.NextDouble();
    if (r < 0.05) continue;
    if (r < 0.10) {
      out.push_back(static_cast<TokenId>(rng.NextIndex(alphabet)));
      continue;
    }
    if (r < 0.15) out.push_back(static_cast<TokenId>(rng.NextIndex(alphabet)));
    out.push_back(t);
  }
  return out;
}

Alignment ReferenceNeedlemanWunsch(const std::vector<TokenId>& a,
                                   const std::vector<TokenId>& b,
                                   const AlignmentScoring& scoring) {
  const size_t n = a.size();
  const size_t m = b.size();

  // Row-major (n+1) x (m+1) score and move tables.
  std::vector<int> score((n + 1) * (m + 1), 0);
  std::vector<uint8_t> move((n + 1) * (m + 1), kFromNone);
  auto at = [m](size_t i, size_t j) { return i * (m + 1) + j; };

  for (size_t i = 1; i <= n; ++i) {
    score[at(i, 0)] = static_cast<int>(i) * scoring.gap;
    move[at(i, 0)] = kFromUp;
  }
  for (size_t j = 1; j <= m; ++j) {
    score[at(0, j)] = static_cast<int>(j) * scoring.gap;
    move[at(0, j)] = kFromLeft;
  }

  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const int diag =
          score[at(i - 1, j - 1)] +
          (a[i - 1] == b[j - 1] ? scoring.match : scoring.mismatch);
      const int up = score[at(i - 1, j)] + scoring.gap;     // delete a[i-1]
      const int left = score[at(i, j - 1)] + scoring.gap;   // insert b[j-1]
      // Tie order: diagonal first (prefer aligning tokens), then delete,
      // then insert — fully deterministic.
      int best = diag;
      uint8_t mv = kFromDiag;
      if (up > best) {
        best = up;
        mv = kFromUp;
      }
      if (left > best) {
        best = left;
        mv = kFromLeft;
      }
      score[at(i, j)] = best;
      move[at(i, j)] = mv;
    }
  }

  Alignment out;
  out.ops.reserve(n + m);
  size_t i = n;
  size_t j = m;
  while (i > 0 || j > 0) {
    switch (move[at(i, j)]) {
      case kFromDiag: {
        AlignOp op;
        op.a_token = a[i - 1];
        op.b_token = b[j - 1];
        op.type = (a[i - 1] == b[j - 1]) ? AlignOpType::kMatch
                                         : AlignOpType::kSubstitute;
        out.ops.push_back(op);
        --i;
        --j;
        break;
      }
      case kFromUp: {
        AlignOp op;
        op.type = AlignOpType::kDelete;
        op.a_token = a[i - 1];
        out.ops.push_back(op);
        --i;
        break;
      }
      case kFromLeft: {
        AlignOp op;
        op.type = AlignOpType::kInsert;
        op.b_token = b[j - 1];
        out.ops.push_back(op);
        --j;
        break;
      }
      case kFromNone:
        LOG(FATAL) << "corrupt traceback at (" << i << "," << j << ")";
    }
  }
  std::reverse(out.ops.begin(), out.ops.end());
  return out;
}

ReferencePoaGraph::ReferencePoaGraph(const std::vector<TokenId>& first,
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
}

uint32_t ReferencePoaGraph::NewNode(TokenId token) {
  nodes_.push_back(Node{token, 1, {}, {}});
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void ReferencePoaGraph::AddEdge(uint32_t from, uint32_t to) {
  CHECK_NE(from, to);
  auto& out = nodes_[from].out;
  if (std::find(out.begin(), out.end(), to) != out.end()) return;
  out.push_back(to);
  nodes_[to].in.push_back(from);
}

void ReferencePoaGraph::RecomputeTopoOrder() {
  const size_t n = nodes_.size();
  topo_order_.clear();
  topo_order_.reserve(n);
  topo_rank_.assign(n, 0);
  std::vector<uint32_t> indegree(n);
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
  CHECK_EQ(topo_order_.size(), n);
}

void ReferencePoaGraph::AddSequence(const std::vector<TokenId>& seq) {
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
    return;
  }

  // DP over rows = {virtual start} + nodes in topological order, columns =
  // sequence prefix length. Row r >= 1 corresponds to topo_order_[r - 1].
  const size_t num_rows = topo_order_.size() + 1;
  const size_t m = seq.size();
  std::vector<int> score(num_rows * (m + 1), kPoaNegInf);
  std::vector<uint8_t> move(num_rows * (m + 1), kStart);
  std::vector<uint32_t> from_row(num_rows * (m + 1), 0);
  auto at = [m](size_t r, size_t j) { return r * (m + 1) + j; };

  // Virtual start row: only sequence insertions can precede the graph.
  score[at(0, 0)] = 0;
  for (size_t j = 1; j <= m; ++j) {
    score[at(0, j)] = static_cast<int>(j) * scoring_.gap;
    move[at(0, j)] = kInsertSeq;
    from_row[at(0, j)] = 0;
  }

  std::vector<uint32_t> preds;
  for (size_t r = 1; r < num_rows; ++r) {
    const Node& v = nodes_[topo_order_[r - 1]];
    preds.clear();
    if (v.in.empty()) {
      preds.push_back(0);
    } else {
      preds.reserve(v.in.size());
      for (uint32_t p : v.in) preds.push_back(topo_rank_[p] + 1);
    }
    for (size_t j = 0; j <= m; ++j) {
      int best = kPoaNegInf;
      uint8_t best_move = kStart;
      uint32_t best_from = 0;
      for (uint32_t p : preds) {
        // Skip this node (graph gap).
        int skip = score[at(p, j)] + scoring_.gap;
        if (skip > best) {
          best = skip;
          best_move = kSkipNode;
          best_from = p;
        }
        if (j >= 1) {
          int diag = score[at(p, j - 1)] +
                     (v.token == seq[j - 1] ? scoring_.match
                                            : scoring_.mismatch);
          if (diag > best) {
            best = diag;
            best_move = kDiag;
            best_from = p;
          }
        }
      }
      if (j >= 1) {
        int ins = score[at(r, j - 1)] + scoring_.gap;
        if (ins > best) {
          best = ins;
          best_move = kInsertSeq;
          best_from = static_cast<uint32_t>(r);
        }
      }
      score[at(r, j)] = best;
      move[at(r, j)] = best_move;
      from_row[at(r, j)] = best_from;
    }
  }

  // Alignment must consume the whole sequence and end at a sink node.
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
    uint32_t row;
    size_t col;
  };
  std::vector<Step> steps;
  steps.reserve(num_rows + m);
  size_t r = best_row;
  size_t j = m;
  while (r != 0 || j != 0) {
    uint8_t mv = move[at(r, j)];
    CHECK_NE(mv, kStart);
    steps.push_back(Step{mv, static_cast<uint32_t>(r), j});
    uint32_t pr = from_row[at(r, j)];
    switch (mv) {
      case kDiag:
        r = pr;
        --j;
        break;
      case kSkipNode:
        r = pr;
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
}

std::vector<TokenId> ReferencePoaGraph::ConsensusAtThreshold(size_t h) const {
  std::vector<TokenId> out;
  for (uint32_t id : topo_order_) {
    if (nodes_[id].support > h) out.push_back(nodes_[id].token);
  }
  return out;
}

std::vector<uint32_t> ReferencePoaGraph::SupportByTopoOrder() const {
  std::vector<uint32_t> out;
  out.reserve(topo_order_.size());
  for (uint32_t id : topo_order_) out.push_back(nodes_[id].support);
  return out;
}

}  // namespace infoshield::oracle
