#include "text/vocabulary.h"

#include <cmath>

#include "util/logging.h"

namespace infoshield {

TokenId Vocabulary::Intern(std::string_view token) {
  auto it = index_.find(token);
  if (it != index_.end()) return it->second;
  TokenId id = static_cast<TokenId>(words_.size());
  words_.emplace_back(token);
  index_.emplace(words_.back(), id);
  return id;
}

TokenId Vocabulary::Find(std::string_view token) const {
  auto it = index_.find(token);
  return it == index_.end() ? kInvalidToken : it->second;
}

const std::string& Vocabulary::Word(TokenId id) const {
  CHECK_LT(id, words_.size());
  return words_[id];
}

double Vocabulary::BitsPerWord() const {
  size_t v = words_.size() < 2 ? 2 : words_.size();
  return std::log2(static_cast<double>(v));
}

}  // namespace infoshield
