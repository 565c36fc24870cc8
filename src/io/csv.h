// RFC-4180-style CSV reading/writing and corpus loading, so users can run
// InfoShield on their own ad/tweet dumps.

#ifndef INFOSHIELD_IO_CSV_H_
#define INFOSHIELD_IO_CSV_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "text/corpus.h"
#include "util/status.h"

namespace infoshield {

// Parses one CSV record (no trailing newline) honoring double-quote
// escaping ("" inside a quoted field is a literal quote). Strict
// RFC-4180: a quote opens a field only at the field's start, a closed
// quoted field must be followed by the separator or the end of the
// record, and a bare quote inside an unquoted field is an error.
// Returns InvalidArgument (with the offending byte offset) instead of
// guessing on malformed input.
[[nodiscard]] Result<std::vector<std::string>> ParseCsvLine(std::string_view line,
                                              char sep = ',');

// Quotes a field if it contains the separator, a quote, or a newline.
std::string EscapeCsvField(std::string_view field, char sep = ',');

// Joins fields into one CSV record (no trailing newline).
std::string FormatCsvLine(const std::vector<std::string>& fields,
                          char sep = ',');

// Splits the bytes of a CSV file into its records, in one pass, as
// views into `data` (which must outlive them). Quote parity decides
// which newlines end records, so a quoted field keeps its embedded
// newlines; a record's terminating "\n" or "\r\n" is not part of it,
// and a '\r' anywhere else is. One leading UTF-8 byte-order mark
// (EF BB BF, as spreadsheets write) is skipped. Empty records are kept,
// so (*records)[i] is record number i + 1. Returns InvalidArgument when
// the input ends inside a quoted field; *records then holds the
// complete records before it.
[[nodiscard]] Status ScanCsvRecords(std::string_view data,
                                    std::vector<std::string_view>* records);

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  // Column index by header name, or -1.
  int ColumnIndex(std::string_view name) const;
};

// Reads a whole CSV file; the first non-empty record is the header.
// Quoted fields may contain embedded newlines (records are split by
// ScanCsvRecords). Malformed quoting fails with the record number.
[[nodiscard]] Result<CsvTable> ReadCsvFile(const std::string& path, char sep = ',');

[[nodiscard]] Status WriteCsvFile(const std::string& path, const CsvTable& table,
                    char sep = ',');

// Loads a corpus from a CSV file: each row's `text_column` becomes a
// document (empty for a row too short to have it). Fails if the column
// is missing, and on the first malformed record in file order, naming
// it. `num_threads` workers (0 = hardware concurrency) parse chunks of
// records and tokenize through Corpus::AddBatch; the corpus is the same
// at any count.
[[nodiscard]] Result<Corpus> LoadCorpusFromCsv(const std::string& path,
                                               const std::string& text_column,
                                               char sep = ',',
                                               size_t num_threads = 0);

}  // namespace infoshield

#endif  // INFOSHIELD_IO_CSV_H_
