// Harness (b): CSV parse -> write -> parse round trip.
//
// Three modes, selected by the first byte:
//  0: parse arbitrary bytes as one record; on success the fields must
//     survive FormatCsvLine -> ParseCsvLine byte-for-byte;
//  1: build arbitrary fields (NUL-separated fuzz bytes, so fields can
//     contain quotes, separators, newlines, CR), format, re-parse, and
//     require exact equality — the writer must quote everything the
//     reader needs;
//  2: split arbitrary bytes into records with ScanCsvRecords and with
//     the istream reference reader (oracle::ReferenceReadCsvRecord),
//     fed the same bytes after the one leading byte-order mark the
//     scanner skips: the records must be equal, and so must the error
//     when the input ends inside a quoted field; each record whose
//     parse succeeds must round-trip — covers embedded newlines, CRLF
//     terminators, and trailing-newline cases.

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz_util.h"
#include "io/csv.h"
#include "oracle/reference_text.h"
#include "util/logging.h"
#include "util/status.h"

namespace {

using infoshield::FormatCsvLine;
using infoshield::ParseCsvLine;
using infoshield::Result;
using infoshield::ScanCsvRecords;
using infoshield::Status;
using infoshield::StatusCode;
using infoshield::oracle::ReferenceReadCsvRecord;

char PickSeparator(uint8_t b) {
  switch (b % 3) {
    case 0: return ',';
    case 1: return ';';
    default: return '\t';
  }
}

void RoundTripFields(const std::vector<std::string>& fields, char sep) {
  const std::string line = FormatCsvLine(fields, sep);
  Result<std::vector<std::string>> reparsed = ParseCsvLine(line, sep);
  CHECK(reparsed.ok()) << "formatted CSV failed to parse: "
                       << reparsed.status().ToString();
  CHECK(*reparsed == fields) << "CSV round trip changed " << fields.size()
                             << " fields";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  infoshield::fuzz::FuzzInput in(data, size);
  const uint8_t mode = in.TakeByte();
  const char sep = PickSeparator(in.TakeByte());

  switch (mode % 3) {
    case 0: {
      const std::string line = in.TakeRest();
      Result<std::vector<std::string>> fields = ParseCsvLine(line, sep);
      if (!fields.ok()) {
        CHECK(fields.status().code() == StatusCode::kInvalidArgument)
            << "unexpected parse error code: "
            << fields.status().ToString();
        break;
      }
      RoundTripFields(*fields, sep);
      break;
    }
    case 1: {
      std::vector<std::string> fields(1);
      const std::string raw = in.TakeRest();
      for (char c : raw) {
        if (c == '\0') {
          fields.emplace_back();
        } else {
          fields.back().push_back(c);
        }
      }
      RoundTripFields(fields, sep);
      break;
    }
    default: {
      const std::string bytes = in.TakeRest();
      std::vector<std::string_view> records;
      const Status scanned = ScanCsvRecords(bytes, &records);
      std::string_view body = bytes;
      if (body.starts_with("\xEF\xBB\xBF")) body.remove_prefix(3);
      std::istringstream stream{std::string(body)};
      std::string record;
      size_t r = 0;
      while (true) {
        Result<bool> more = ReferenceReadCsvRecord(stream, &record);
        if (!more.ok()) {
          CHECK(more.status().code() == StatusCode::kInvalidArgument)
              << "unexpected record error code: "
              << more.status().ToString();
          CHECK(scanned == more.status())
              << "scanner reported " << scanned.ToString()
              << ", reference " << more.status().ToString();
          break;
        }
        if (!*more) {
          CHECK(scanned.ok()) << "scanner reported " << scanned.ToString()
                              << " on input the reference read whole";
          break;
        }
        CHECK(r < records.size() && records[r] == record)
            << "record " << r + 1 << " differs from the reference's";
        ++r;
        Result<std::vector<std::string>> fields = ParseCsvLine(record, sep);
        if (fields.ok()) RoundTripFields(*fields, sep);
      }
      CHECK(r == records.size()) << "scanner found " << records.size()
                                 << " records, reference " << r;
      break;
    }
  }
  return 0;
}
