#include "core/slot_analysis.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/audit.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infoshield {

const GapCostProfile::GapEdits* GapCostProfile::FindGap(size_t gap) const {
  auto it = std::lower_bound(
      edits.begin(), edits.end(), gap,
      [](const GapEdits& e, size_t g) { return e.gap < g; });
  if (it == edits.end() || it->gap != gap) return nullptr;
  return &*it;
}

GapCostProfile BuildGapCostProfile(const Alignment& alignment) {
  GapCostProfile profile;
  size_t x = 0;  // Algorithm 3's gap counter
  auto edits_at = [&profile](size_t gap) -> GapCostProfile::GapEdits& {
    // The walk visits gaps in non-decreasing order, so appending keeps
    // `edits` sorted.
    if (profile.edits.empty() || profile.edits.back().gap != gap) {
      GapCostProfile::GapEdits e;
      e.gap = gap;
      profile.edits.push_back(e);
    }
    return profile.edits.back();
  };
  for (const AlignOp& op : alignment.ops) {
    switch (op.type) {
      case AlignOpType::kMatch:
        ++profile.constant_columns;
        ++x;
        break;
      case AlignOpType::kDelete:
        ++profile.constant_columns;
        ++profile.deletions;
        ++x;
        break;
      case AlignOpType::kInsert:
        ++edits_at(x).insertions;
        break;
      case AlignOpType::kSubstitute:
        ++edits_at(x).substitutions;
        break;
    }
  }
  return profile;
}

EncodingSummary SummaryForSlotMask(const GapCostProfile& profile,
                                   const std::vector<size_t>& slot_gaps) {
  EncodingSummary s;
  s.alignment_length = profile.constant_columns;
  s.unmatched = profile.deletions;
  s.slot_word_counts.assign(slot_gaps.size(), 0);
  // Merge the two ascending sequences: edits inside a slotted gap turn
  // into slot words (substitutions additionally leave a residual
  // deletion column); edits elsewhere stay unmatched alignment columns.
  size_t si = 0;
  for (const GapCostProfile::GapEdits& e : profile.edits) {
    while (si < slot_gaps.size() && slot_gaps[si] < e.gap) ++si;
    if (si < slot_gaps.size() && slot_gaps[si] == e.gap) {
      s.slot_word_counts[si] = e.insertions + e.substitutions;
      s.alignment_length += e.substitutions;
      s.unmatched += e.substitutions;
    } else {
      const size_t words = e.insertions + e.substitutions;
      s.alignment_length += words;
      s.unmatched += words;
      s.inserted_or_substituted += words;
    }
  }
  return s;
}

const char* SlotContentKindToString(SlotContentKind kind) {
  switch (kind) {
    case SlotContentKind::kEmpty:
      return "empty";
    case SlotContentKind::kPhone:
      return "phone";
    case SlotContentKind::kPrice:
      return "price";
    case SlotContentKind::kTime:
      return "time";
    case SlotContentKind::kUrl:
      return "url";
    case SlotContentKind::kNumeric:
      return "numeric";
    case SlotContentKind::kName:
      return "name";
    case SlotContentKind::kFreeText:
      return "free-text";
  }
  return "unknown";
}

namespace {

// Example fills kept per slot profile.
constexpr size_t kMaxSlotExamples = 5;

bool IsDigitRun(const std::string& w, size_t min_len) {
  if (w.size() < min_len) return false;
  for (char c : w) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

// A token is "numeric" when digits dominate it; a word with a short
// numeric suffix (e.g. a counter or year glued to a word) is not.
bool IsNumericToken(const std::string& w) {
  if (w.empty()) return false;
  size_t digits = 0;
  for (char c : w) {
    if (c >= '0' && c <= '9') ++digits;
  }
  return digits * 2 >= w.size();
}

// Strips a trailing digit run ("appointment5" -> "appointment") so
// keyword matching sees the stem.
std::string StripTrailingDigits(const std::string& w) {
  size_t end = w.size();
  while (end > 0 && w[end - 1] >= '0' && w[end - 1] <= '9') --end;
  return w.substr(0, end);
}

bool IsTimeWord(const std::string& raw) {
  const std::string w = StripTrailingDigits(raw);
  static const char* kTimeWords[] = {
      "am",    "pm",      "hour",  "hours",   "day",    "days",  "daily",
      "open",  "until",   "late",  "night",   "week",   "weekend",
      "weekends", "weekdays", "morning", "evening", "noon", "midnight",
      "anytime", "appointment", "schedule", "today", "tonight", "now",
  };
  for (const char* t : kTimeWords) {
    if (w == t) return true;
  }
  // "9am", "10pm", "24hr" style (digit prefix + unit suffix).
  if (w.size() >= 3 && w[0] >= '0' && w[0] <= '9') {
    std::string tail2 = w.substr(w.size() - 2);
    if (tail2 == "am" || tail2 == "pm" || tail2 == "hr") return true;
  }
  return false;
}

bool IsPriceWord(const std::string& raw) {
  const std::string w = StripTrailingDigits(raw);
  static const char* kPriceWords[] = {
      "dollar", "dollars", "price",   "rate",  "special", "discount",
      "deal",   "offer",   "session", "per",   "half",    "full",
      "$",      "usd",     "cost",    "fee",
  };
  for (const char* t : kPriceWords) {
    if (w == t) return true;
  }
  // Bare small numbers (30..300 style) read as prices in ad context.
  if (IsDigitRun(raw, 2) && raw.size() <= 3) return true;
  return false;
}

bool IsUrlWord(const std::string& w) {
  return StartsWith(w, "http") || EndsWith(w, ".com") ||
         EndsWith(w, ".net") || w.find("://") != std::string::npos ||
         w.find(".com") != std::string::npos;
}

}  // namespace

namespace internal {

SlotContentKind ClassifyFills(const std::vector<std::string>& fills) {
  if (fills.empty()) return SlotContentKind::kEmpty;
  size_t phone_hits = 0;
  size_t price_hits = 0;
  size_t time_hits = 0;
  size_t url_hits = 0;
  size_t numeric_hits = 0;
  size_t single_word = 0;
  size_t total_words = 0;
  std::unordered_set<std::string> distinct;

  for (const std::string& fill : fills) {
    distinct.insert(fill);
    std::vector<std::string> words = SplitWhitespace(fill);
    total_words += words.size();
    if (words.size() == 1) ++single_word;
    bool any_phone = false;
    bool any_price = false;
    bool any_time = false;
    bool any_url = false;
    bool any_numeric = false;
    for (const std::string& w : words) {
      if (IsDigitRun(w, 7)) any_phone = true;
      if (IsUrlWord(w)) any_url = true;
      if (IsTimeWord(w)) any_time = true;
      if (IsPriceWord(w)) any_price = true;
      if (IsNumericToken(w)) any_numeric = true;
    }
    if (any_phone) ++phone_hits;
    if (any_url) ++url_hits;
    if (any_time) ++time_hits;
    if (any_price) ++price_hits;
    if (any_numeric) ++numeric_hits;
  }

  const double n = static_cast<double>(fills.size());
  auto majority = [n](size_t hits) { return hits / n >= 0.5; };
  // Phone and URL are the most specific signals; time beats price when
  // both fire ("until 9pm" contains a number but is schedule content).
  if (majority(phone_hits)) return SlotContentKind::kPhone;
  if (majority(url_hits)) return SlotContentKind::kUrl;
  if (majority(time_hits)) return SlotContentKind::kTime;
  if (majority(price_hits)) return SlotContentKind::kPrice;
  if (majority(numeric_hits)) return SlotContentKind::kNumeric;
  // Names: single short tokens with high variety.
  if (single_word == fills.size() &&
      distinct.size() * 2 >= fills.size()) {
    return SlotContentKind::kName;
  }
  return SlotContentKind::kFreeText;
}

}  // namespace internal

std::vector<SlotProfile> AnalyzeSlots(const TemplateCluster& cluster,
                                      const Corpus& corpus) {
  const std::vector<size_t> gaps = cluster.tmpl.SlotGaps();
  std::vector<SlotProfile> profiles(gaps.size());
  const Vocabulary& vocab = corpus.vocab();

  for (size_t s = 0; s < gaps.size(); ++s) {
    SlotProfile& profile = profiles[s];
    profile.gap = gaps[s];

    std::vector<std::string> fills;  // non-empty fills
    size_t empty = 0;
    size_t total_words = 0;
    for (const DocEncoding& enc : cluster.encodings) {
      if (s >= enc.slot_words.size() || enc.slot_words[s].empty()) {
        ++empty;
        continue;
      }
      std::string fill;
      for (size_t w = 0; w < enc.slot_words[s].size(); ++w) {
        if (w > 0) fill.push_back(' ');
        fill += vocab.Word(enc.slot_words[s][w]);
      }
      total_words += enc.slot_words[s].size();
      fills.push_back(std::move(fill));
    }

    const size_t members = cluster.encodings.size();
    profile.empty_fraction =
        members == 0 ? 0.0
                     : static_cast<double>(empty) /
                           static_cast<double>(members);
    std::unordered_set<std::string> distinct(fills.begin(), fills.end());
    profile.distinct_fraction =
        fills.empty() ? 0.0
                      : static_cast<double>(distinct.size()) /
                            static_cast<double>(fills.size());
    profile.mean_words =
        fills.empty() ? 0.0
                      : static_cast<double>(total_words) /
                            static_cast<double>(fills.size());
    profile.kind = internal::ClassifyFills(fills);

    // determinism: unordered gather, sorted before use on the next line.
    std::vector<std::string> examples(distinct.begin(), distinct.end());
    std::sort(examples.begin(), examples.end());
    if (examples.size() > kMaxSlotExamples) {
      examples.resize(kMaxSlotExamples);
    }
    profile.examples = std::move(examples);
  }
  INFOSHIELD_AUDIT_INVARIANTS(ValidateSlotProfiles(profiles, cluster.tmpl));
  return profiles;
}

Status ValidateSlotProfiles(const std::vector<SlotProfile>& profiles,
                            const Template& tmpl) {
  INFOSHIELD_RETURN_IF_ERROR(tmpl.ValidateInvariants());
  audit::Auditor a("SlotProfiles");
  const std::vector<size_t> gaps = tmpl.SlotGaps();
  a.Expect(profiles.size() == gaps.size(),
           StrFormat("%zu profiles for %zu enabled slots", profiles.size(),
                     gaps.size()));
  for (size_t s = 0; s < profiles.size(); ++s) {
    const SlotProfile& p = profiles[s];
    if (s < gaps.size()) {
      a.Expect(p.gap == gaps[s],
               StrFormat("profile #%zu covers gap %zu, expected %zu", s,
                         p.gap, gaps[s]));
    }
    a.Expect(p.empty_fraction >= 0.0 && p.empty_fraction <= 1.0,
             StrFormat("profile #%zu empty_fraction outside [0, 1]", s));
    a.Expect(p.distinct_fraction >= 0.0 && p.distinct_fraction <= 1.0,
             StrFormat("profile #%zu distinct_fraction outside [0, 1]", s));
    a.Expect(std::isfinite(p.mean_words) && p.mean_words >= 0.0,
             StrFormat("profile #%zu mean_words negative or non-finite", s));
    if (p.kind == SlotContentKind::kEmpty) {
      a.Expect(p.examples.empty() && p.mean_words == 0.0,
               StrFormat("profile #%zu classified empty but carries fills",
                         s));
    }
  }
  return a.Finish();
}

std::string RenderSlotProfiles(const std::vector<SlotProfile>& profiles) {
  std::string out;
  for (const SlotProfile& p : profiles) {
    out += StrFormat(
        "  slot@%-3zu kind=%-9s empty=%.0f%% distinct=%.0f%% "
        "mean_words=%.1f  e.g. ",
        p.gap, SlotContentKindToString(p.kind), 100.0 * p.empty_fraction,
        100.0 * p.distinct_fraction, p.mean_words);
    for (size_t i = 0; i < p.examples.size(); ++i) {
      if (i > 0) out += " | ";
      out += "\"" + p.examples[i] + "\"";
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace infoshield
