#include "io/csv.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace infoshield {

Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              char sep) {
  // RFC-4180 fields, each copied a run at a time: an unquoted field is
  // the run up to the separator, and a quoted one the runs between its
  // quotes, with "" standing for one quote. A quote opens a field only
  // at its start, and only the separator or the end of the record may
  // follow a closing quote.
  std::vector<std::string> fields;
  const size_t n = line.size();
  size_t i = 0;  // start of the current field
  while (true) {
    if (i < n && line[i] == '"') {
      std::string field;
      ++i;
      while (true) {
        const size_t quote = line.find('"', i);
        if (quote == std::string_view::npos) {
          return Status::InvalidArgument("CSV: unterminated quoted field");
        }
        field.append(line.substr(i, quote - i));
        i = quote + 1;
        if (i < n && line[i] == '"') {
          field.push_back('"');
          ++i;
        } else {
          break;
        }
      }
      fields.push_back(std::move(field));
      if (i == n) break;
      if (line[i] != sep) {
        return Status::InvalidArgument(
            StrFormat("CSV: unexpected character after closing quote at "
                      "byte %zu",
                      i));
      }
      ++i;
      continue;
    }
    size_t end = i;
    while (end < n && line[end] != sep && line[end] != '"') ++end;
    if (end < n && line[end] == '"') {
      return Status::InvalidArgument(StrFormat(
          "CSV: quote inside unquoted field at byte %zu", end));
    }
    fields.emplace_back(line.substr(i, end - i));
    if (end == n) break;
    i = end + 1;
  }
  return fields;
}

std::string EscapeCsvField(std::string_view field, char sep) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string FormatCsvLine(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += EscapeCsvField(fields[i], sep);
  }
  return out;
}

Status ScanCsvRecords(std::string_view data,
                      std::vector<std::string_view>* records) {
  records->clear();
  constexpr std::string_view kByteOrderMark = "\xEF\xBB\xBF";
  if (data.starts_with(kByteOrderMark)) {
    data.remove_prefix(kByteOrderMark.size());
  }
  const char* const base = data.data();
  const size_t n = data.size();
  size_t pos = 0;
  while (pos < n) {
    const size_t start = pos;
    bool in_quotes = false;
    size_t line_start = pos;
    size_t line_end = pos;
    while (true) {
      line_start = pos;
      const void* newline = std::memchr(base + pos, '\n', n - pos);
      line_end = newline != nullptr
                     ? static_cast<size_t>(
                           static_cast<const char*>(newline) - base)
                     : n;
      // Quote parity decides whether this newline ends the record or is
      // content of a quoted field; an escaped "" pair toggles twice.
      for (const char* q = base + pos;
           (q = static_cast<const char*>(
                std::memchr(q, '"', static_cast<size_t>(
                                        base + line_end - q)))) != nullptr;
           ++q) {
        in_quotes = !in_quotes;
      }
      if (!in_quotes) break;
      if (line_end == n) {
        return Status::InvalidArgument(
            "CSV: input ended inside a quoted field");
      }
      pos = line_end + 1;
    }
    // CRLF input: the '\r' before the terminating '\n' belongs to the
    // terminator. An earlier line's '\r' was inside quotes, so it stays.
    size_t end = line_end;
    if (end > line_start && base[end - 1] == '\r') --end;
    records->emplace_back(base + start, end - start);
    pos = line_end + 1;
  }
  return Status::Ok();
}

int CsvTable::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

// The whole file in one buffer: one read of the size the file reports,
// then whatever follows it, since a pipe reports no size and a /proc
// file reports 0.
Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::string bytes;
  const std::streamoff size = in.seekg(0, std::ios::end).tellg();
  in.clear();
  in.seekg(0);
  if (size > 0) {
    bytes.resize(static_cast<size_t>(size));
    in.read(bytes.data(), size);
    bytes.resize(static_cast<size_t>(in.gcount()));
  }
  std::ostringstream rest;
  rest << in.rdbuf();
  bytes += rest.view();
  if (in.bad()) return Status::IoError("cannot read " + path);
  return bytes;
}

Status RecordError(const Status& error, size_t record_number,
                   const std::string& path) {
  return Status::InvalidArgument(
      error.message() +
      StrFormat(" (record %zu of %s)", record_number, path.c_str()));
}

}  // namespace

Result<CsvTable> ReadCsvFile(const std::string& path, char sep) {
  Result<std::string> data = ReadFileBytes(path);
  if (!data.ok()) return data.status();
  std::vector<std::string_view> records;
  const Status scanned = ScanCsvRecords(*data, &records);

  CsvTable table;
  bool first = true;
  for (size_t r = 0; r < records.size(); ++r) {
    if (records[r].empty()) continue;
    Result<std::vector<std::string>> fields = ParseCsvLine(records[r], sep);
    if (!fields.ok()) return RecordError(fields.status(), r + 1, path);
    if (first) {
      table.header = std::move(*fields);
      first = false;
    } else {
      table.rows.push_back(std::move(*fields));
    }
  }
  // The complete records come before the unterminated one.
  if (!scanned.ok()) {
    return Status::InvalidArgument(scanned.message() + " in " + path);
  }
  if (first) return Status::IoError("empty CSV file: " + path);
  return table;
}

Status WriteCsvFile(const std::string& path, const CsvTable& table,
                    char sep) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << FormatCsvLine(table.header, sep) << "\n";
  for (const auto& row : table.rows) {
    out << FormatCsvLine(row, sep) << "\n";
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<Corpus> LoadCorpusFromCsv(const std::string& path,
                                 const std::string& text_column, char sep,
                                 size_t num_threads) {
  Result<std::string> data = ReadFileBytes(path);
  if (!data.ok()) return data.status();
  std::vector<std::string_view> records;
  const Status scanned = ScanCsvRecords(*data, &records);

  size_t header = 0;
  while (header < records.size() && records[header].empty()) ++header;
  size_t col = SIZE_MAX;
  if (header < records.size()) {
    Result<std::vector<std::string>> names =
        ParseCsvLine(records[header], sep);
    if (!names.ok()) return RecordError(names.status(), header + 1, path);
    const auto it = std::find(names->begin(), names->end(), text_column);
    if (it != names->end()) col = static_cast<size_t>(it - names->begin());
  }

  // The rows in byte-balanced chunks: each worker parses its own chunk's
  // records, keeps their text fields in order, and stops at its first
  // malformed record; the earliest chunk's error is the file's first.
  const size_t first_row = std::min(header + 1, records.size());
  const std::vector<size_t> bounds = ThreadPool::BalancedChunks(
      num_threads, records.size() - first_row, Corpus::kMinChunkBytes,
      [&](size_t i) { return records[first_row + i].size(); });
  const size_t chunks = bounds.empty() ? 0 : bounds.size() - 1;
  std::vector<std::vector<std::string>> chunk_texts(chunks);
  std::vector<Status> chunk_errors(chunks);
  ThreadPool::ParallelFor(num_threads, chunks, [&](size_t c) {
    for (size_t r = first_row + bounds[c]; r < first_row + bounds[c + 1];
         ++r) {
      if (records[r].empty()) continue;
      Result<std::vector<std::string>> fields = ParseCsvLine(records[r], sep);
      if (!fields.ok()) {
        chunk_errors[c] = RecordError(fields.status(), r + 1, path);
        return;
      }
      chunk_texts[c].push_back(
          col < fields->size() ? std::move((*fields)[col]) : std::string());
    }
  });
  for (const Status& error : chunk_errors) {
    if (!error.ok()) return error;
  }
  if (!scanned.ok()) {
    return Status::InvalidArgument(scanned.message() + " in " + path);
  }
  if (header == records.size()) {
    return Status::IoError("empty CSV file: " + path);
  }
  if (col == SIZE_MAX) {
    return Status::InvalidArgument("no column named '" + text_column +
                                   "' in " + path);
  }

  std::vector<std::string> texts;
  size_t rows = 0;
  for (const std::vector<std::string>& chunk : chunk_texts) {
    rows += chunk.size();
  }
  texts.reserve(rows);
  for (std::vector<std::string>& chunk : chunk_texts) {
    for (std::string& text : chunk) texts.push_back(std::move(text));
  }
  Corpus corpus;
  corpus.AddBatch(std::move(texts), num_threads);
  return corpus;
}

}  // namespace infoshield
