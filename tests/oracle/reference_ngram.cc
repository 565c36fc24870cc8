#include "oracle/reference_ngram.h"

#include <algorithm>

namespace infoshield::oracle {

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

}  // namespace infoshield::oracle
