// Token interning: bidirectional mapping between token strings and dense
// 32-bit ids. Document token sequences are stored as id vectors so that
// alignment and cost computation operate on integers.

#ifndef INFOSHIELD_TEXT_VOCABULARY_H_
#define INFOSHIELD_TEXT_VOCABULARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace infoshield {

using TokenId = uint32_t;

inline constexpr TokenId kInvalidToken = 0xFFFFFFFFu;

class Vocabulary {
 public:
  Vocabulary() = default;

  // Returns the id for `token`, interning it if new. Ids are dense and
  // assigned in first-Intern order. Only a new word allocates.
  TokenId Intern(std::string_view token);

  // Returns the id for `token`, or kInvalidToken if not present.
  TokenId Find(std::string_view token) const;

  // Pre-condition: id < size(). Checked.
  const std::string& Word(TokenId id) const;

  size_t size() const { return words_.size(); }
  bool empty() const { return words_.empty(); }

  // lg V used throughout the MDL cost model; V clamped to >= 2 so the
  // per-word cost is never zero on degenerate corpora.
  double BitsPerWord() const;

 private:
  // Hashes std::string keys and std::string_view probes alike, so a
  // lookup by view builds no string.
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> words_;
  std::unordered_map<std::string, TokenId, ViewHash, std::equal_to<>> index_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_TEXT_VOCABULARY_H_
