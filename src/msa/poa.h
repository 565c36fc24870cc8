// Partial Order Alignment (POA) graph — Lee, Grasso & Sharlow (2002).
//
// A POA graph is a DAG whose nodes carry one token each; every aligned
// sequence is a path through the graph. Aligning a new sequence is a
// dynamic program over (graph node in topological order) x (sequence
// position); matched tokens fuse into existing nodes (raising their
// support count), everything else becomes fresh nodes, so the graph
// remains a lossless multiple sequence alignment. The DP stores only its
// int score table, 4·(nodes+1)·(|seq|+1) bytes; the traceback re-derives
// each move from the scores (DESIGN.md §18).
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
#include <vector>

#include "msa/aligner.h"
#include "msa/pairwise.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace infoshield {

class PoaGraph : public MsaAligner {
 public:
  // The graph must be seeded with a first sequence; an empty sequence is
  // allowed and yields an empty graph.
  explicit PoaGraph(const std::vector<TokenId>& first,
                    const AlignmentScoring& scoring = {});

  // Aligns `seq` against the current graph and fuses it in.
  void AddSequence(const std::vector<TokenId>& seq) override;

  // Tokens of all nodes with support > h, in topological order. h = 0
  // returns every node; h >= num_sequences() returns an empty sequence.
  std::vector<TokenId> ConsensusAtThreshold(size_t h) const override;

  size_t num_sequences() const override { return num_sequences_; }
  size_t node_count() const { return nodes_.size(); }

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

  uint32_t NewNode(TokenId token);
  void AddEdge(uint32_t from, uint32_t to);
  void RecomputeTopoOrder();

  AlignmentScoring scoring_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> topo_order_;  // node ids, topologically sorted
  std::vector<uint32_t> topo_rank_;   // node id -> rank in topo_order_
  size_t num_sequences_ = 0;
};

}  // namespace infoshield

#endif  // INFOSHIELD_MSA_POA_H_
