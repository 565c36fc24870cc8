#include "oracle/reference_text.h"

#include <fstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace infoshield::oracle {

namespace {

bool IsAsciiAlpha(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool IsAsciiDigit(unsigned char c) { return c >= '0' && c <= '9'; }

bool IsAsciiSpace(unsigned char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

// Appends `text` to `corpus` as one document: its ReferenceTokenize
// tokens interned in order.
void AppendDocument(const std::string& text, Corpus* corpus) {
  std::vector<TokenId> ids;
  for (const std::string& token : ReferenceTokenize(text)) {
    ids.push_back(corpus->mutable_vocab().Intern(token));
  }
  corpus->AddTokens(std::move(ids), text);
}

}  // namespace

std::vector<std::string> ReferenceTokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  size_t i = 0;
  bool in_url = false;

  auto flush = [&]() {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
    in_url = false;
  };

  while (i < text.size()) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x80) {
      // Copy a well-formed UTF-8 sequence whole; a malformed byte
      // degrades to a single-byte copy.
      size_t len = ValidUtf8SequenceLength(text, i);
      if (len == 0) len = 1;
      current.append(text.substr(i, len));
      i += len;
      continue;
    }
    if (IsAsciiSpace(c)) {
      flush();
      ++i;
      continue;
    }
    if (IsAsciiAlpha(c)) {
      char out = static_cast<char>(c);
      if (c >= 'A' && c <= 'Z') out = static_cast<char>(c - 'A' + 'a');
      current.push_back(out);
      if (!in_url && (current == "http" || current == "https")) {
        if (text.substr(i + 1, 3) == "://") in_url = true;
      }
      ++i;
      continue;
    }
    if (IsAsciiDigit(c)) {
      current.push_back(static_cast<char>(c));
      ++i;
      continue;
    }
    // ASCII punctuation and control bytes.
    if (in_url) {
      current.push_back(static_cast<char>(c));
    } else {
      flush();
    }
    ++i;
  }
  flush();
  return tokens;
}

Result<bool> ReferenceReadCsvRecord(std::istream& in, std::string* record) {
  record->clear();
  std::string line;
  bool any = false;
  bool in_quotes = false;
  while (std::getline(in, line)) {
    any = true;
    // Quote parity decides whether the newline getline consumed was a
    // record terminator or content of a quoted field; escaped "" pairs
    // toggle twice, so parity is unaffected by them.
    for (char c : line) {
      if (c == '"') in_quotes = !in_quotes;
    }
    if (in_quotes) {
      record->append(line);
      record->push_back('\n');
      continue;
    }
    // CRLF input: getline stripped the '\n'; the '\r' it left behind
    // belongs to the terminator, not the record.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    record->append(line);
    return true;
  }
  if (in_quotes) {
    return Status::InvalidArgument("CSV: input ended inside a quoted field");
  }
  return any;
}

Result<Corpus> ReferenceLoadCorpus(const std::string& path,
                                   const std::string& text_column,
                                   char sep) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  char bom[3] = {};
  in.read(bom, 3);
  if (in.gcount() != 3 || std::string_view(bom, 3) != "\xEF\xBB\xBF") {
    in.clear();
    in.seekg(0);
  }

  std::vector<std::string> header;
  bool have_header = false;
  std::vector<std::vector<std::string>> rows;
  std::string record;
  size_t record_number = 0;
  while (true) {
    Result<bool> more = ReferenceReadCsvRecord(in, &record);
    if (!more.ok()) {
      return Status::InvalidArgument(more.status().message() + " in " +
                                     path);
    }
    if (!*more) break;
    ++record_number;
    if (record.empty()) continue;
    Result<std::vector<std::string>> fields = ParseCsvLine(record, sep);
    if (!fields.ok()) {
      return Status::InvalidArgument(
          fields.status().message() +
          StrFormat(" (record %zu of %s)", record_number, path.c_str()));
    }
    if (!have_header) {
      header = std::move(*fields);
      have_header = true;
    } else {
      rows.push_back(std::move(*fields));
    }
  }
  if (!have_header) return Status::IoError("empty CSV file: " + path);
  size_t col = 0;
  while (col < header.size() && header[col] != text_column) ++col;
  if (col == header.size()) {
    return Status::InvalidArgument("no column named '" + text_column +
                                   "' in " + path);
  }
  Corpus corpus;
  for (const std::vector<std::string>& row : rows) {
    AppendDocument(col < row.size() ? row[col] : std::string(), &corpus);
  }
  return corpus;
}

}  // namespace infoshield::oracle
