// Harness (d2): POA graph validity.
//
// Input: the sequences, then a scoring index (exhausted input selects
// the default scoring). The sequences are either short fuzzed ones or,
// in the near-duplicate mode, edited copies of a base of up to 600
// tokens, which reach AddSequence's band doubling and its fallback.
//
// Properties, after fusing each fuzzed sequence:
//  * PoaGraph::ValidateInvariants holds (DAG, consistent topological
//    order, mirrored edge lists, supports in [1, num_sequences]);
//  * Sel(A, h) is monotone: raising the support threshold never grows
//    the consensus, h = 0 selects every node, and h >= num_sequences
//    selects nothing;
//  * max_support never exceeds the number of fused sequences;
//  * the graph equals its full-table reference (tests/oracle/): the same
//    node count, supports and Sel(A, h) for every h.

#include <cstdint>
#include <vector>

#include "fuzz_util.h"
#include "msa/poa.h"
#include "near_duplicate.h"
#include "oracle/reference_msa.h"
#include "text/vocabulary.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"

namespace {

using infoshield::AlignmentScoring;
using infoshield::PoaGraph;
using infoshield::Status;
using infoshield::TokenId;

std::vector<std::vector<TokenId>> TakeSequences(
    infoshield::fuzz::FuzzInput& in) {
  // The count is 1 + the head word mod 8, i.e. 1 + TakeBounded(7); the
  // next bit picks the near-duplicate mode, so heads 0-7 decode as they
  // always have.
  const uint64_t head = in.TakeUint64();
  const size_t count = 1 + head % 8;
  std::vector<std::vector<TokenId>> seqs(count);
  if ((head / 8) % 2 == 1) {
    // A random base, then an edit script over it per further sequence
    // (fuzz/near_duplicate.h).
    infoshield::Rng rng(in.TakeUint64());
    seqs[0] = infoshield::fuzz::TakeNearDuplicateBase(in, rng);
    for (size_t i = 1; i < count; ++i) {
      seqs[i] = infoshield::fuzz::TakeEdited(in, rng, seqs[0]);
    }
    return seqs;
  }
  for (auto& seq : seqs) {
    const size_t len = in.TakeBounded(24);
    seq.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      seq.push_back(static_cast<TokenId>(in.TakeBounded(11)));
    }
  }
  return seqs;
}

void CheckConsensusMonotone(const PoaGraph& graph) {
  const size_t n = graph.num_sequences();
  size_t prev_size = graph.ConsensusAtThreshold(0).size();
  for (size_t h = 1; h <= n; ++h) {
    const size_t cur_size = graph.ConsensusAtThreshold(h).size();
    CHECK(cur_size <= prev_size)
        << "Sel(A, h) grew when h rose to " << h;
    prev_size = cur_size;
  }
  CHECK(graph.ConsensusAtThreshold(n).empty())
      << "threshold >= num_sequences must select nothing";
}

void CheckSameConsensus(
    const PoaGraph& graph,
    const infoshield::oracle::ReferencePoaGraph& reference) {
  CHECK(graph.num_sequences() == reference.num_sequences());
  for (size_t h = 0; h <= graph.num_sequences(); ++h) {
    CHECK(graph.ConsensusAtThreshold(h) ==
          reference.ConsensusAtThreshold(h))
        << "Sel(A, " << h << ") differs from the full-table reference";
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  infoshield::fuzz::FuzzInput in(data, size);
  const std::vector<std::vector<TokenId>> seqs = TakeSequences(in);
  const AlignmentScoring scoring =
      infoshield::oracle::kDifferentialScorings[in.TakeBounded(3)];

  PoaGraph graph(seqs[0], scoring);
  Status st = graph.ValidateInvariants();
  CHECK(st.ok()) << st.ToString();
  for (size_t i = 1; i < seqs.size(); ++i) {
    graph.AddSequence(seqs[i]);
    st = graph.ValidateInvariants();
    CHECK(st.ok()) << "after fusing sequence " << i << ": "
                   << st.ToString();
  }
  CHECK(graph.num_sequences() == seqs.size());
  CHECK(graph.max_support() <= graph.num_sequences());
  CHECK(graph.ConsensusAtThreshold(0).size() == graph.node_count())
      << "h = 0 must select every node";
  CheckConsensusMonotone(graph);

  infoshield::oracle::ReferencePoaGraph reference_graph(seqs[0], scoring);
  for (size_t i = 1; i < seqs.size(); ++i) {
    reference_graph.AddSequence(seqs[i]);
  }
  CHECK(graph.node_count() == reference_graph.node_count());
  CHECK(graph.SupportByTopoOrder() == reference_graph.SupportByTopoOrder());
  CheckSameConsensus(graph, reference_graph);
  return 0;
}
