// Harness (d1): pairwise alignment validity + document-encoding cost
// identity.
//
// Properties:
//  * NeedlemanWunsch never crashes and its alignment replays back to
//    both input sequences exactly (AlignmentIsConsistent);
//  * its ops equal the full-table reference DP's
//    (oracle::ReferenceNeedlemanWunsch, tests/oracle/) under every
//    scoring, including tie-heavy {1, 0, -1}, on short sequences and, in
//    the near-duplicate mode, on an edited copy of a base of up to 600
//    tokens, which reaches the band doubling and its fallback;
//  * alignment length obeys max(|a|,|b|) <= l̂ <= |a|+|b| and the op
//    counts are column-consistent;
//  * the workspace-reusing path is byte-identical to the allocating one,
//    including when the workspace is reused dirty across shapes;
//  * EncodeDocumentWithAlignment over a fuzzed slot mask passes
//    ValidateDocEncoding with the cost model attached — i.e. the edit
//    trace replays losslessly AND base_cost equals the Eq. 3 cost
//    recomputed from scratch;
//  * with default scoring, EncodeDocument (which re-aligns internally)
//    reproduces EncodeDocumentWithAlignment bit for bit;
//  * the claim scan's bag-of-words bound (ClaimCostLowerBound) never
//    exceeds EncodedDocCost(1, ·) of the alignment it lets the scan
//    skip, and the alignment matches no more tokens than the two
//    sequences share as multisets.

#include <cstdint>
#include <vector>

#include "core/fine_clustering.h"
#include "core/slot_analysis.h"
#include "core/template.h"
#include "fuzz_util.h"
#include "mdl/cost_model.h"
#include "msa/pairwise.h"
#include "near_duplicate.h"
#include "oracle/reference_msa.h"
#include "text/vocabulary.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"

namespace {

using infoshield::Alignment;
using infoshield::AlignmentIsConsistent;
using infoshield::AlignmentScoring;
using infoshield::AlignmentWorkspace;
using infoshield::BuildGapCostProfile;
using infoshield::ClaimCostLowerBound;
using infoshield::CostModel;
using infoshield::DocEncoding;
using infoshield::EncodeDocument;
using infoshield::EncodeDocumentWithAlignment;
using infoshield::NeedlemanWunsch;
using infoshield::Status;
using infoshield::SummaryForSlotMask;
using infoshield::Template;
using infoshield::TokenBag;
using infoshield::TokenId;
using infoshield::ValidateDocEncoding;

std::vector<TokenId> TakeTokens(infoshield::fuzz::FuzzInput& in,
                                size_t max_len) {
  const size_t len = in.TakeBounded(max_len);
  std::vector<TokenId> seq;
  seq.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // A small alphabet makes matches (and interesting alignments) common.
    seq.push_back(static_cast<TokenId>(in.TakeBounded(15)));
  }
  return seq;
}

bool SameOps(const Alignment& x, const Alignment& y) {
  return x.ops == y.ops;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  infoshield::fuzz::FuzzInput in(data, size);

  // The scoring index (0 is the default scoring) is the head word mod 4,
  // i.e. TakeBounded(3); the next bit picks the near-duplicate mode, so
  // heads 0-3 decode as they always have.
  const uint64_t head = in.TakeUint64();
  const size_t scoring_index = head % 4;
  const AlignmentScoring scoring =
      infoshield::oracle::kDifferentialScorings[scoring_index];

  std::vector<TokenId> a;
  std::vector<TokenId> b;
  if ((head / 4) % 2 == 1) {
    // b is an edit script over a random base a (fuzz/near_duplicate.h).
    infoshield::Rng rng(in.TakeUint64());
    a = infoshield::fuzz::TakeNearDuplicateBase(in, rng);
    b = infoshield::fuzz::TakeEdited(in, rng, a);
  } else {
    a = TakeTokens(in, 48);
    b = TakeTokens(in, 48);
  }

  const Alignment alignment = NeedlemanWunsch(a, b, scoring);
  CHECK(AlignmentIsConsistent(alignment, a, b))
      << "alignment does not replay to its inputs (|a|=" << a.size()
      << ", |b|=" << b.size() << ")";
  CHECK(SameOps(alignment,
                infoshield::oracle::ReferenceNeedlemanWunsch(a, b, scoring)))
      << "alignment differs from the full-table reference (scoring "
      << scoring_index << ")";

  const size_t longer = a.size() > b.size() ? a.size() : b.size();
  CHECK(alignment.length() >= longer);
  CHECK(alignment.length() <= a.size() + b.size());
  CHECK(alignment.matches() + alignment.unmatched() == alignment.length());
  CHECK(alignment.substitutions() + alignment.insertions() +
            alignment.deletions() ==
        alignment.unmatched());

  // Workspace reuse must not change the result — including a dirty
  // workspace carried over from a differently-shaped problem.
  AlignmentWorkspace workspace;
  const Alignment with_ws = NeedlemanWunsch(a, b, scoring, &workspace);
  CHECK(SameOps(with_ws, alignment)) << "workspace path diverged";
  const Alignment reversed = NeedlemanWunsch(b, a, scoring, &workspace);
  CHECK(AlignmentIsConsistent(reversed, b, a));
  const Alignment dirty_ws = NeedlemanWunsch(a, b, scoring, &workspace);
  CHECK(SameOps(dirty_ws, alignment)) << "dirty workspace changed result";

  // Encoding cost identity under a fuzzed slot mask.
  Template tmpl(a);
  for (size_t gap = 0; gap <= a.size(); ++gap) {
    if (in.TakeByte() & 1) tmpl.SetSlotAtGap(gap, true);
  }
  const double lg_vocab = 4.0 + static_cast<double>(in.TakeBounded(12));
  const CostModel cost_model(lg_vocab);

  const DocEncoding encoding =
      EncodeDocumentWithAlignment(tmpl, alignment, cost_model);
  Status encoding_status = ValidateDocEncoding(tmpl, b, encoding,
                                               &cost_model);
  CHECK(encoding_status.ok())
      << "Eq. 3 cost identity violated: " << encoding_status.ToString();

  // The claim scan's bound, with `a` as the seed and `b` as the probed
  // document.
  TokenBag bag;
  bag.Assign(a);
  const size_t overlap = bag.Overlap(b);
  CHECK(alignment.matches() <= overlap)
      << alignment.matches() << " matches but a multiset overlap of "
      << overlap;
  const double claim_cost = cost_model.EncodedDocCost(
      1, SummaryForSlotMask(BuildGapCostProfile(alignment), {}));
  CHECK(ClaimCostLowerBound(cost_model, a.size(), b.size(), overlap) <=
        claim_cost)
      << "scan bound exceeds the alignment's cost (|a|=" << a.size()
      << ", |b|=" << b.size() << ", overlap " << overlap << ")";

  if (scoring_index == 0) {
    // EncodeDocument re-runs NW internally with default scoring; the
    // two entry points must agree bit for bit.
    const DocEncoding direct = EncodeDocument(tmpl, b, cost_model);
    CHECK(direct.base_cost == encoding.base_cost)
        << "EncodeDocument disagrees with EncodeDocumentWithAlignment";
    CHECK(direct.summary.alignment_length ==
          encoding.summary.alignment_length);
    CHECK(direct.slot_words == encoding.slot_words);
  }
  return 0;
}
