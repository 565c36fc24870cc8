#include "text/tokenizer.h"

namespace infoshield {

namespace {

inline bool IsAsciiAlpha(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

inline bool IsAsciiDigit(unsigned char c) { return c >= '0' && c <= '9'; }

inline bool IsAsciiSpace(unsigned char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

// Tokenizer::byte_class_ values.
constexpr uint8_t kSeparator = 0;  // ends the token
constexpr uint8_t kTokenByte = 1;  // part of the token
constexpr uint8_t kUrlByte = 2;    // part of the token inside a URL only

}  // namespace

size_t ValidUtf8SequenceLength(std::string_view text, size_t pos) {
  if (pos >= text.size()) return 0;
  const unsigned char lead = static_cast<unsigned char>(text[pos]);
  size_t len;
  // Second-byte range per lead (RFC 3629 table): the default 0x80..0xBF
  // tightens for the leads that would otherwise admit overlong forms
  // (E0, F0), surrogates (ED), or code points above U+10FFFF (F4).
  unsigned char lo = 0x80, hi = 0xBF;
  if ((lead & 0xE0) == 0xC0) {
    if (lead < 0xC2) return 0;  // C0/C1: overlong 2-byte forms
    len = 2;
  } else if ((lead & 0xF0) == 0xE0) {
    len = 3;
    if (lead == 0xE0) lo = 0xA0;        // overlong 3-byte forms
    else if (lead == 0xED) hi = 0x9F;   // UTF-16 surrogates
  } else if ((lead & 0xF8) == 0xF0) {
    if (lead > 0xF4) return 0;  // F5..F7: above U+10FFFF
    len = 4;
    if (lead == 0xF0) lo = 0x90;        // overlong 4-byte forms
    else if (lead == 0xF4) hi = 0x8F;   // above U+10FFFF
  } else {
    return 0;  // ASCII or a stray continuation byte
  }
  if (pos + len > text.size()) return 0;
  const unsigned char second = static_cast<unsigned char>(text[pos + 1]);
  if (second < lo || second > hi) return 0;
  for (size_t k = 2; k < len; ++k) {
    const unsigned char cont = static_cast<unsigned char>(text[pos + k]);
    if ((cont & 0xC0) != 0x80) return 0;
  }
  return len;
}

bool IsValidUtf8(std::string_view text) {
  size_t i = 0;
  while (i < text.size()) {
    if (static_cast<unsigned char>(text[i]) < 0x80) {
      ++i;
      continue;
    }
    const size_t len = ValidUtf8SequenceLength(text, i);
    if (len == 0) return false;
    i += len;
  }
  return true;
}

Tokenizer::Tokenizer() {
  for (int b = 0; b < 256; ++b) {
    const unsigned char c = static_cast<unsigned char>(b);
    uint8_t cls = kSeparator;
    if (c >= 0x80) {
      // UTF-8 lead and continuation bytes are token content, copied as
      // they come: a well-formed sequence stays whole, and a malformed
      // byte is one byte of token that cannot swallow the ASCII after it.
      cls = kTokenByte;
    } else if (IsAsciiAlpha(c) || IsAsciiDigit(c)) {
      cls = kTokenByte;
    } else if (!IsAsciiSpace(c)) {
      // ASCII punctuation and control bytes.
      cls = kUrlByte;
    }
    byte_class_[b] = cls;
    fold_[b] = static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::string scratch;
  std::vector<std::string_view> views;
  TokenizeViews(text, &scratch, &views);
  return std::vector<std::string>(views.begin(), views.end());
}

void Tokenizer::TokenizeViews(std::string_view text, std::string* scratch,
                              std::vector<std::string_view>* tokens) const {
  tokens->clear();
  // A token byte comes from exactly one input byte, so the token bytes
  // fit in text.size() and scratch never reallocates under the views.
  if (scratch->size() < text.size()) scratch->resize(text.size());
  char* const out = scratch->data();
  const size_t n = text.size();
  auto cls = [&](size_t i) {
    return byte_class_[static_cast<unsigned char>(text[i])];
  };
  size_t i = 0;
  size_t o = 0;
  while (true) {
    // A token starts at a token byte; punctuation only continues a URL.
    while (i < n && cls(i) != kTokenByte) ++i;
    if (i == n) break;
    const size_t start = o;
    bool in_url = false;
    while (true) {
      for (; i < n; ++i) {
        const uint8_t c = cls(i);
        if (c != kTokenByte && !(in_url && c == kUrlByte)) break;
        out[o++] = fold_[static_cast<unsigned char>(text[i])];
      }
      // The run stopped at a separator, or at punctuation. Punctuation
      // joins the token when the token so far is exactly "http" or
      // "https" and "://" follows: a URL, whose punctuation is
      // near-duplicate evidence in spam campaigns.
      if (in_url || i == n || cls(i) != kUrlByte) break;
      const std::string_view so_far(out + start, o - start);
      if ((so_far != "http" && so_far != "https") ||
          text.substr(i, 3) != "://") {
        break;
      }
      in_url = true;
    }
    tokens->emplace_back(out + start, o - start);
  }
}

}  // namespace infoshield
