#include "datagen/neardup_gen.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "datagen/wordlists.h"
#include "util/logging.h"
#include "util/random.h"

namespace infoshield {

namespace {

struct PendingDoc {
  std::string text;
  int64_t family;
};

void Append(std::string& s, const std::string& w) {
  if (!s.empty()) s.push_back(' ');
  s += w;
}

// Free-text pool: the union of the ad-domain vocabularies, extended to
// options.vocab_size distinct words via PoolWord.
const std::vector<std::string>& BasePool() {
  static const auto& kPool = *new std::vector<std::string>([] {
    std::vector<std::string> all;
    for (const auto* pool :
         {&AdIntroWords(), &AdServiceWords(), &AdTimeWords(),
          &AdPriceWords(), &AdContactWords(), &CityNames()}) {
      all.insert(all.end(), pool->begin(), pool->end());
    }
    return all;
  }());
  return kPool;
}

std::string DrawWord(size_t vocab_size, Rng& rng) {
  const auto& pool = BasePool();
  return PoolWord(pool, rng.NextIndex(std::max(vocab_size, pool.size())));
}

}  // namespace

double SubstitutionProbForJaccard(double target_jaccard, size_t shingle_k) {
  CHECK(target_jaccard > 0.0 && target_jaccard <= 1.0)
      << "target_jaccard must be in (0, 1], got " << target_jaccard;
  CHECK_GE(shingle_k, 1u);
  // s = shared-shingle survival probability (1-p)^(2k); J = s / (2-s).
  const double s = 2.0 * target_jaccard / (1.0 + target_jaccard);
  return 1.0 - std::pow(s, 1.0 / (2.0 * static_cast<double>(shingle_k)));
}

NearDupCorpus GenerateNearDupFamilies(const NearDupGenOptions& options,
                                      uint64_t seed) {
  const NearDupGenOptions& o = options;
  CHECK_GE(o.template_tokens, 1u);
  CHECK_LE(o.family_size_min, o.family_size_max);
  CHECK_LE(o.noise_tokens_min, o.noise_tokens_max);
  const double sub_prob =
      SubstitutionProbForJaccard(o.target_jaccard, o.shingle_k);

  Rng rng(seed);
  std::vector<PendingDoc> docs;

  {
    Rng family_rng = rng.Fork(1);
    for (size_t f = 0; f < o.num_families; ++f) {
      std::vector<std::string> base;
      base.reserve(o.template_tokens);
      for (size_t t = 0; t < o.template_tokens; ++t) {
        base.push_back(DrawWord(o.vocab_size, family_rng));
      }
      const size_t size = static_cast<size_t>(
          family_rng.NextInt(static_cast<int64_t>(o.family_size_min),
                             static_cast<int64_t>(o.family_size_max)));
      for (size_t m = 0; m < size; ++m) {
        std::string text;
        for (const std::string& word : base) {
          if (family_rng.NextBernoulli(sub_prob)) {
            Append(text, DrawWord(o.vocab_size, family_rng));
          } else {
            Append(text, word);
          }
        }
        docs.push_back(PendingDoc{std::move(text), static_cast<int64_t>(f)});
      }
    }
  }

  {
    Rng noise_rng = rng.Fork(2);
    for (size_t i = 0; i < o.num_noise; ++i) {
      const size_t len = static_cast<size_t>(
          noise_rng.NextInt(static_cast<int64_t>(o.noise_tokens_min),
                            static_cast<int64_t>(o.noise_tokens_max)));
      std::string text;
      for (size_t t = 0; t < len; ++t) {
        Append(text, DrawWord(o.vocab_size, noise_rng));
      }
      docs.push_back(PendingDoc{std::move(text), -1});
    }
  }

  rng.Shuffle(docs);

  NearDupCorpus out;
  out.family.reserve(docs.size());
  std::vector<std::string> texts;
  texts.reserve(docs.size());
  for (PendingDoc& doc : docs) {
    texts.push_back(std::move(doc.text));
    out.family.push_back(doc.family);
  }
  // Batch interning: tokenization parallelizes inside AddBatch while the
  // resulting corpus stays byte-identical to serial Adds.
  out.corpus.AddBatch(std::move(texts), /*num_threads=*/0);
  CHECK_EQ(out.corpus.size(), out.family.size());
  return out;
}

}  // namespace infoshield
