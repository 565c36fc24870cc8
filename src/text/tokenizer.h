// Language-independent tokenizer.
//
// InfoShield is language-agnostic (paper §V-F, Advantage 1): no stop-word
// lists, no stemming, no language-specific rules. The tokenizer is
// therefore one fixed rule, with nothing to configure: it (a) lowercases
// ASCII letters, (b) keeps ASCII digits as token characters (prices and
// phone numbers matter for HT ads), (c) treats runs of ASCII punctuation
// and whitespace as separators, and (d) passes multi-byte UTF-8 sequences
// through intact so that Spanish/Italian accents and Japanese text
// survive as token characters. URLs ("http..."-prefixed runs) are kept as
// single tokens because they are strong near-duplicate evidence in spam
// campaigns.

#ifndef INFOSHIELD_TEXT_TOKENIZER_H_
#define INFOSHIELD_TEXT_TOKENIZER_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace infoshield {

// Length (2..4) of the well-formed UTF-8 multi-byte sequence starting at
// text[pos], or 0 when text[pos] does not start one (ASCII byte, stray
// continuation byte, truncated sequence, overlong encoding, surrogate
// code point U+D800..U+DFFF, or a code point above U+10FFFF — RFC 3629).
// Tokenizer needs no such test: it copies every byte >= 0x80 into the
// token unchanged, so well-formed sequences stay whole and a malformed
// byte never swallows the ASCII after it.
size_t ValidUtf8SequenceLength(std::string_view text, size_t pos);

// True iff `text` is entirely well-formed UTF-8 (ASCII plus sequences
// accepted by ValidUtf8SequenceLength).
bool IsValidUtf8(std::string_view text);

class Tokenizer {
 public:
  Tokenizer();

  // Splits UTF-8 text into tokens.
  std::vector<std::string> Tokenize(std::string_view text) const;

  // As Tokenize, without a heap string per token: writes the token
  // bytes into `*scratch`, which callers reuse across texts, and views
  // of them into `*tokens` (cleared first). The views stay valid until
  // `*scratch` is next written.
  void TokenizeViews(std::string_view text, std::string* scratch,
                     std::vector<std::string_view>* tokens) const;

 private:
  // Per input byte: whether it ends a token, belongs to one, or belongs
  // to one only inside a URL (tokenizer.cc), and the byte it becomes.
  std::array<uint8_t, 256> byte_class_{};
  std::array<char, 256> fold_{};
};

}  // namespace infoshield

#endif  // INFOSHIELD_TEXT_TOKENIZER_H_
