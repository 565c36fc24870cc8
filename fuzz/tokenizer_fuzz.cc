// Harness (a): tokenizer UTF-8 robustness.
//
// Properties, for every option combination and arbitrary byte input:
//  * Tokenize never crashes (ASan/UBSan enforce memory safety);
//  * no emitted token is empty;
//  * no token contains a separator the options asked to split on;
//  * if the input was well-formed UTF-8, every token is well-formed
//    UTF-8 (malformed input may degrade bytes, valid input must not);
//  * fixed point: joining the tokens with single spaces and re-tokenizing
//    reproduces the token list exactly — tokenization is idempotent;
//  * differential: the tokens equal those of oracle::ReferenceTokenize,
//    the per-character reference tokenizer, under the same options.

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz_util.h"
#include "oracle/reference_text.h"
#include "text/tokenizer.h"
#include "util/logging.h"

using infoshield::IsValidUtf8;
using infoshield::Tokenizer;
using infoshield::TokenizerOptions;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  infoshield::fuzz::FuzzInput in(data, size);
  const uint8_t opt_bits = in.TakeByte();
  TokenizerOptions options;
  options.lowercase = (opt_bits & 1) != 0;
  options.strip_punctuation = (opt_bits & 2) != 0;
  options.keep_digits = (opt_bits & 4) != 0;
  const Tokenizer tokenizer(options);

  const std::string text = in.TakeRest();
  const std::vector<std::string> tokens = tokenizer.Tokenize(text);
  CHECK(tokens == infoshield::oracle::ReferenceTokenize(text, options))
      << "tokens differ from the reference tokenizer's";

  const bool input_valid_utf8 = IsValidUtf8(text);
  std::string joined;
  for (const std::string& token : tokens) {
    CHECK(!token.empty()) << "tokenizer emitted an empty token";
    for (char c : token) {
      const unsigned char b = static_cast<unsigned char>(c);
      CHECK(b >= 0x80 || (c != ' ' && c != '\t' && c != '\n' && c != '\r' &&
                          c != '\f' && c != '\v'))
          << "token contains ASCII whitespace";
    }
    if (input_valid_utf8) {
      CHECK(IsValidUtf8(token))
          << "valid UTF-8 input produced an invalid UTF-8 token";
    }
    if (!joined.empty()) joined.push_back(' ');
    joined += token;
  }

  const std::vector<std::string> again = tokenizer.Tokenize(joined);
  CHECK(again == tokens)
      << "tokenization is not a fixed point: " << tokens.size()
      << " tokens re-tokenized into " << again.size();
  return 0;
}
