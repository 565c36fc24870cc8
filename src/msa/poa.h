// Partial Order Alignment (POA) graph — Lee, Grasso & Sharlow (2002).
//
// A POA graph is a DAG whose nodes carry one token each; every aligned
// sequence is a path through the graph. Aligning a new sequence is a
// dynamic program over (graph node in topological order) x (sequence
// position); matched tokens fuse into existing nodes (raising their
// support count), everything else becomes fresh nodes, so the graph
// remains a lossless multiple sequence alignment. The DP stores only
// int scores, and only for a band of columns per node: the cells whose
// unavoidable gap count, from the node's shortest and longest paths to
// the source and to the sinks, stays within a slack G. G doubles until
// the best score strictly beats every path that leaves the band, so the
// graph equals the full-table DP's (DESIGN.md §18). Near-duplicates take
// ~4·nodes·(G+1) bytes with G ≈ ||seq| - path length| + 128, against
// 4·(nodes+1)·(|seq|+1) for the full table. The traceback re-derives
// each move from the scores.
//
// InfoShield-Fine uses the graph's per-node support counts to generate
// candidate consensus sequences: Sel(A, h) keeps the nodes visited by more
// than h sequences, in topological order (paper Eq. 6 / Algorithm 2).
//
// Acyclicity invariant: fusion only links nodes in increasing topological
// rank (a DP path follows existing edges), so added edges never create a
// cycle; this is CHECKed after every insertion in debug builds.

#ifndef INFOSHIELD_MSA_POA_H_
#define INFOSHIELD_MSA_POA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "msa/pairwise.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace infoshield {

class PoaGraph {
 public:
  // The graph must be seeded with a first sequence; an empty sequence is
  // allowed and yields an empty graph.
  explicit PoaGraph(const std::vector<TokenId>& first,
                    const AlignmentScoring& scoring = {});

  // Aligns `seq` against the current graph and fuses it in.
  void AddSequence(const std::vector<TokenId>& seq);

  // Tokens of all nodes with support > h, in topological order. h = 0
  // returns every node; h >= num_sequences() returns an empty sequence.
  std::vector<TokenId> ConsensusAtThreshold(size_t h) const;

  size_t num_sequences() const { return num_sequences_; }
  size_t node_count() const { return nodes_.size(); }

  // DP cells (node row, column >= 1) filled by every AddSequence so far,
  // rejected bands included: a deterministic work count.
  uint64_t dp_cells() const { return dp_cells_; }

  // Highest support value of any node (0 for an empty graph).
  size_t max_support() const;

  // Support of each node, indexed by topological order (for tests).
  std::vector<uint32_t> SupportByTopoOrder() const;

  // Deep invariant audit (util/audit.h): the graph is a DAG, the stored
  // topo_order_/topo_rank_ form a consistent topological order (every
  // edge goes from lower to higher rank), in/out edge lists mirror each
  // other exactly, and node supports lie in [1, num_sequences]. Returns
  // OK or an Internal status listing every violation.
  Status ValidateInvariants() const;

 private:
  friend class PoaGraphTestPeer;

  struct Node {
    TokenId token;
    uint32_t support;
    std::vector<uint32_t> out;  // edges to successor nodes
    std::vector<uint32_t> in;   // edges from predecessor nodes
  };

  // AddSequence's DP has rows = the virtual start (row 0), then the nodes
  // in topological order, and columns 0..|seq|.
  struct PathBounds {
    // Node counts of the shortest / longest path from a source to the
    // row's node (the node included) and from it to a sink (excluded).
    uint32_t pre_min;
    uint32_t pre_max;
    uint32_t suf_min;
    uint32_t suf_max;
  };
  // Row r's band: columns [lo, end) at score_[start + j - lo].
  struct RowBand {
    size_t start;
    size_t lo;
    size_t end;
  };

  uint32_t NewNode(TokenId token);
  void AddEdge(uint32_t from, uint32_t to);
  void RecomputeTopoOrder();
  // Fills path_ for the current graph and returns the node counts of the
  // shortest and longest source-to-sink paths.
  std::pair<size_t, size_t> ComputePathBounds();
  // Lays out row_ and sizes score_ for an m-column DP: every row whole
  // when `full`, else each node row's cells whose paths have at most
  // `slack` gaps. Returns the node-row cells with column >= 1.
  uint64_t LayOutRows(size_t m, bool full, size_t slack);
  // Loads row r's predecessor rows into preds_, in in-edge order (the
  // virtual start for a source).
  void LoadPreds(size_t r);
  // Fills score_ over row_ for `seq`.
  void FillRows(const std::vector<TokenId>& seq);
  // Score of cell (r, j); -inf outside row r's band.
  int ScoreAt(size_t r, size_t j) const;

  AlignmentScoring scoring_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> topo_order_;  // node ids, topologically sorted
  std::vector<uint32_t> topo_rank_;   // node id -> rank in topo_order_
  size_t num_sequences_ = 0;

  // AddSequence's DP scratch, reused across calls.
  std::vector<PathBounds> path_;
  std::vector<RowBand> row_;
  std::vector<int> score_;
  std::vector<uint32_t> preds_;
  uint64_t dp_cells_ = 0;
};

}  // namespace infoshield

#endif  // INFOSHIELD_MSA_POA_H_
