// Test-only full-table alignment kernels: Needleman–Wunsch and the POA
// graph as they were before src/msa/ moved to bounded-memory DPs
// (DESIGN.md §18). Each keeps its whole (n+1)(m+1) score table, a move
// per cell and, for POA, the source row per cell, and walks those back.
// The production kernels keep two score rows and 2-bit moves (NW) or
// only a band of the score table (POA), and must reproduce these byte
// for byte: the same alignments and the same graphs. The unit tests and
// the pairwise and poa fuzzers link them as their oracle.

#ifndef INFOSHIELD_TESTS_ORACLE_REFERENCE_MSA_H_
#define INFOSHIELD_TESTS_ORACLE_REFERENCE_MSA_H_

#include <cstdint>
#include <vector>

#include "msa/pairwise.h"
#include "text/vocabulary.h"
#include "util/random.h"

namespace infoshield::oracle {

// The scorings the differential tests and the pairwise and poa fuzzers
// run: the default, two asymmetric ones, and tie-heavy {1, 0, -1}, under
// which a substitution ties with a pair of gaps so the tie order decides.
inline constexpr AlignmentScoring kDifferentialScorings[] = {
    {1, -1, -1}, {2, -1, -2}, {1, 0, -1}, {3, -2, -1}};

// A near-duplicate of `base` for the differential tests: each token is
// dropped (5%), substituted (5%), preceded by an inserted token (5%) or
// kept; new tokens are drawn from [0, alphabet).
std::vector<TokenId> NearDuplicate(Rng& rng, const std::vector<TokenId>& base,
                                   size_t alphabet);

// Global alignment of b against a over full (|a|+1)(|b|+1) int score
// and move tables, tie order diagonal > delete > insert. No
// identical-sequence fast path: every input runs the DP.
Alignment ReferenceNeedlemanWunsch(const std::vector<TokenId>& a,
                                   const std::vector<TokenId>& b,
                                   const AlignmentScoring& scoring = {});

// PoaGraph with the full score, move and source-row tables
// ((nodes+1)(m+1) cells at 9 bytes each).
class ReferencePoaGraph {
 public:
  explicit ReferencePoaGraph(const std::vector<TokenId>& first,
                             const AlignmentScoring& scoring = {});

  void AddSequence(const std::vector<TokenId>& seq);
  std::vector<TokenId> ConsensusAtThreshold(size_t h) const;
  size_t num_sequences() const { return num_sequences_; }
  size_t node_count() const { return nodes_.size(); }

  // Support of each node, indexed by topological order.
  std::vector<uint32_t> SupportByTopoOrder() const;

 private:
  struct Node {
    TokenId token;
    uint32_t support;
    std::vector<uint32_t> out;
    std::vector<uint32_t> in;
  };

  uint32_t NewNode(TokenId token);
  void AddEdge(uint32_t from, uint32_t to);
  void RecomputeTopoOrder();

  AlignmentScoring scoring_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> topo_order_;
  std::vector<uint32_t> topo_rank_;
  size_t num_sequences_ = 0;
};

}  // namespace infoshield::oracle

#endif  // INFOSHIELD_TESTS_ORACLE_REFERENCE_MSA_H_
