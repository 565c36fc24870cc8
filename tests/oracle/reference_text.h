// Test-only references for corpus ingest (DESIGN.md §19): the
// per-character tokenizer, the istream record assembler, and a loader
// built from them that appends one document at a time. Production's
// byte-run tokenizer, buffered record scanner and chunked
// LoadCorpusFromCsv / Corpus::AddBatch are checked against these.

#ifndef INFOSHIELD_TESTS_ORACLE_REFERENCE_TEXT_H_
#define INFOSHIELD_TESTS_ORACLE_REFERENCE_TEXT_H_

#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "text/corpus.h"
#include "text/tokenizer.h"
#include "util/status.h"

namespace infoshield::oracle {

// Tokenizer::Tokenize one character at a time: each byte is appended to
// the current token or ends it, a well-formed UTF-8 sequence is copied
// whole, and after every letter the token so far is compared with
// "http" and "https" and, on a match, "://" is looked for next.
std::vector<std::string> ReferenceTokenize(std::string_view text,
                                           const TokenizerOptions& options);

// Reads one logical CSV record from `in` into `*record` with getline,
// continuing across physical lines while quote parity says a quoted
// field is open (so embedded newlines survive; the CRLF/LF record
// terminator is not part of the record). Returns true when a record was
// read, false at a clean end of input, and InvalidArgument when the
// input ends inside an open quoted field.
[[nodiscard]] Result<bool> ReferenceReadCsvRecord(std::istream& in,
                                                  std::string* record);

// LoadCorpusFromCsv as one sequential loop: skip a leading UTF-8
// byte-order mark, read records with ReferenceReadCsvRecord, parse each
// with ParseCsvLine, and append each row's text as Corpus::Add would,
// tokenized by ReferenceTokenize and interned in order. Same statuses,
// same messages.
[[nodiscard]] Result<Corpus> ReferenceLoadCorpus(
    const std::string& path, const std::string& text_column, char sep = ',');

}  // namespace infoshield::oracle

#endif  // INFOSHIELD_TESTS_ORACLE_REFERENCE_TEXT_H_
