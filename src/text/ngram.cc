#include "text/ngram.h"

#include <algorithm>

namespace infoshield {

PhraseHash HashNgram(const TokenId* tokens, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL ^ (0x100000001b3ULL * n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t t = tokens[i];
    for (int b = 0; b < 4; ++b) {
      h ^= (t >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::vector<NgramSpan> ExtractNgrams(const Document& doc, size_t max_n) {
  std::vector<NgramSpan> out;
  const size_t len = doc.tokens.size();
  if (len == 0 || max_n == 0) return out;
  out.reserve(len * max_n);
  for (size_t begin = 0; begin < len; ++begin) {
    const size_t limit = std::min(max_n, len - begin);
    for (size_t n = 1; n <= limit; ++n) {
      out.push_back(NgramSpan{HashNgram(doc.tokens.data() + begin, n),
                              static_cast<uint32_t>(begin),
                              static_cast<uint32_t>(n)});
    }
  }
  return out;
}

void AppendNgramHashes(const Document& doc, size_t min_n, size_t max_n,
                       std::vector<PhraseHash>* out) {
  const size_t len = doc.tokens.size();
  min_n = std::max<size_t>(min_n, 1);
  for (size_t begin = 0; begin < len; ++begin) {
    const size_t limit = std::min(max_n, len - begin);
    for (size_t n = min_n; n <= limit; ++n) {
      out->push_back(HashNgram(doc.tokens.data() + begin, n));
    }
  }
}

}  // namespace infoshield
