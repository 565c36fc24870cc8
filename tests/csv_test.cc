#include "io/csv.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/infoshield.h"
#include "oracle/reference_text.h"

namespace infoshield {
namespace {

// Unwraps a parse expected to succeed.
std::vector<std::string> MustParse(std::string_view line, char sep = ',') {
  Result<std::vector<std::string>> r = ParseCsvLine(line, sep);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.ok() ? *r : std::vector<std::string>{};
}

TEST(ParseCsvLineTest, Simple) {
  EXPECT_EQ(MustParse("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvLineTest, QuotedFieldWithComma) {
  EXPECT_EQ(MustParse("a,\"b,c\",d"),
            (std::vector<std::string>{"a", "b,c", "d"}));
}

TEST(ParseCsvLineTest, EscapedQuote) {
  EXPECT_EQ(MustParse("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(ParseCsvLineTest, EmptyFields) {
  EXPECT_EQ(MustParse(",,"), (std::vector<std::string>{"", "", ""}));
}

TEST(ParseCsvLineTest, QuotedFieldWithEmbeddedNewline) {
  EXPECT_EQ(MustParse("\"two\nlines\",x"),
            (std::vector<std::string>{"two\nlines", "x"}));
}

TEST(ParseCsvLineTest, TrailingTextAfterClosingQuoteFails) {
  // The old parser silently produced {"ab"} here.
  Result<std::vector<std::string>> r = ParseCsvLine("\"a\"b");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseCsvLineTest, QuoteInsideUnquotedFieldFails) {
  // The old parser treated the quote as a literal only because the
  // field had already started — RFC 4180 requires such a field to be
  // quoted.
  Result<std::vector<std::string>> r = ParseCsvLine("a\"b,c");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseCsvLineTest, UnterminatedQuoteFails) {
  Result<std::vector<std::string>> r = ParseCsvLine("\"never closed");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseCsvLineTest, ClosingQuoteThenSeparatorIsFine) {
  EXPECT_EQ(MustParse("\"a\",b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(MustParse("x,\"a\""), (std::vector<std::string>{"x", "a"}));
}

TEST(EscapeCsvFieldTest, QuotesWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("with \"q\""), "\"with \"\"q\"\"\"");
  EXPECT_EQ(EscapeCsvField("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvRoundTripTest, FormatThenParse) {
  std::vector<std::string> fields = {"a", "b,c", "d\"e", "f\ng", ""};
  EXPECT_EQ(MustParse(FormatCsvLine(fields)), fields);
}

// Steps through ScanCsvRecords' records one at a time, the way
// oracle::ReferenceReadCsvRecord returns them: true per record, false
// at the end, and the scan's error once the complete records are used
// up. Holds views into `data`.
class ScannedRecords {
 public:
  explicit ScannedRecords(std::string_view data)
      : status_(ScanCsvRecords(data, &records_)) {}

  Result<bool> Next(std::string* record) {
    if (next_ < records_.size()) {
      record->assign(records_[next_++]);
      return true;
    }
    if (!status_.ok()) return status_;
    return false;
  }

 private:
  std::vector<std::string_view> records_;
  Status status_;
  size_t next_ = 0;
};

Result<bool> ReadCsvRecord(ScannedRecords& in, std::string* record) {
  return in.Next(record);
}

TEST(ReadCsvRecordTest, ContinuesAcrossPhysicalLinesInQuotes) {
  ScannedRecords in("1,\"two\nlines\",x\n2,plain,y\n");
  std::string record;
  Result<bool> more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(record, "1,\"two\nlines\",x");
  more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(record, "2,plain,y");
  more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(ReadCsvRecordTest, StripsCrlfTerminatorButKeepsQuotedCr) {
  ScannedRecords in("a,b\r\n\"c\r\nd\",e\r\n");
  std::string record;
  Result<bool> more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(record, "a,b");
  more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  // Inside quotes the CRLF is field content (RFC 4180), so the \r stays.
  EXPECT_EQ(record, "\"c\r\nd\",e");
}

TEST(ReadCsvRecordTest, LastRecordWithoutTrailingNewline) {
  ScannedRecords in("a,b\nc,d");
  std::string record;
  Result<bool> more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(record, "a,b");
  more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(record, "c,d");
  more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(ReadCsvRecordTest, EmptyFieldsSurviveCrlfTermination) {
  ScannedRecords in("a,,\r\n,,b\r\n");
  std::string record;
  Result<bool> more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(MustParse(record), (std::vector<std::string>{"a", "", ""}));
  more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(MustParse(record), (std::vector<std::string>{"", "", "b"}));
}

TEST(ReadCsvRecordTest, BareCarriageReturnStaysInUnquotedField) {
  // A lone \r not followed by \n is field content, not a terminator.
  ScannedRecords in("a\rb,c\n");
  std::string record;
  Result<bool> more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(MustParse(record), (std::vector<std::string>{"a\rb", "c"}));
}

TEST(ReadCsvRecordTest, UnterminatedQuoteAtEofFails) {
  ScannedRecords in("1,\"never closed\n2,x\n");
  std::string record;
  Result<bool> more = ReadCsvRecord(in, &record);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kInvalidArgument);
}

class CsvFileTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs the tests of this fixture as parallel
  // processes, which must not write or remove each other's file.
  void SetUp() override {
    path_ = testing::TempDir() + "/infoshield_csv_test_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CsvFileTest, WriteAndReadBack) {
  CsvTable table;
  table.header = {"id", "text"};
  table.rows = {{"1", "hello world"}, {"2", "with, comma"}};
  ASSERT_TRUE(WriteCsvFile(path_, table).ok());

  Result<CsvTable> read = ReadCsvFile(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->header, table.header);
  EXPECT_EQ(read->rows, table.rows);
}

TEST_F(CsvFileTest, ColumnIndex) {
  CsvTable table;
  table.header = {"id", "text", "label"};
  EXPECT_EQ(table.ColumnIndex("text"), 1);
  EXPECT_EQ(table.ColumnIndex("missing"), -1);
}

TEST_F(CsvFileTest, MissingFileFails) {
  Result<CsvTable> r = ReadCsvFile("/nonexistent/nope.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(CsvFileTest, EmbeddedNewlineInQuotedField) {
  std::ofstream out(path_);
  out << "id,text\n1,\"two\nlines\"\n";
  out.close();
  Result<CsvTable> r = ReadCsvFile(path_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1], "two\nlines");
}

TEST_F(CsvFileTest, WriteReadRoundTripWithNewlinesQuotesAndCrlf) {
  CsvTable table;
  table.header = {"id", "text"};
  table.rows = {{"1", "two\nlines"},
                {"2", "say \"hi\""},
                {"3", "crlf\r\ninside"},
                {"4", "plain"}};
  ASSERT_TRUE(WriteCsvFile(path_, table).ok());
  Result<CsvTable> read = ReadCsvFile(path_);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read->header, table.header);
  EXPECT_EQ(read->rows, table.rows);
}

TEST_F(CsvFileTest, MalformedQuotingFailsWithRecordNumber) {
  std::ofstream out(path_);
  out << "id,text\n1,ok\n2,\"bad\"trailing\n";
  out.close();
  Result<CsvTable> r = ReadCsvFile(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("record 3"), std::string::npos)
      << r.status().message();
}

TEST_F(CsvFileTest, LoadCorpusWithEmbeddedNewlineField) {
  std::ofstream out(path_);
  out << "id,text\n1,\"great soap\nfor you\"\n2,another ad\n";
  out.close();
  Result<Corpus> corpus = LoadCorpusFromCsv(path_, "text");
  ASSERT_TRUE(corpus.ok()) << corpus.status().message();
  ASSERT_EQ(corpus->size(), 2u);
  EXPECT_EQ(corpus->TokenText(0), "great soap for you");
}

TEST_F(CsvFileTest, CrlfLineEndings) {
  std::ofstream out(path_, std::ios::binary);
  out << "id,text\r\n1,hello\r\n2,world\r\n";
  out.close();
  Result<CsvTable> r = ReadCsvFile(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[1][1], "world");
}

TEST_F(CsvFileTest, MissingTrailingNewlineStillReadsLastRow) {
  std::ofstream out(path_, std::ios::binary);
  out << "id,text\n1,first\n2,last row";  // no final terminator
  out.close();
  Result<CsvTable> r = ReadCsvFile(path_);
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[1][1], "last row");
}

TEST_F(CsvFileTest, AllEmptyFieldsRoundTrip) {
  CsvTable table;
  table.header = {"a", "b", "c"};
  table.rows = {{"", "", ""}, {"x", "", ""}, {"", "", "y"}};
  ASSERT_TRUE(WriteCsvFile(path_, table).ok());
  Result<CsvTable> read = ReadCsvFile(path_);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read->rows, table.rows);
}

TEST_F(CsvFileTest, LoadCorpusFromCsv) {
  std::ofstream out(path_);
  out << "id,text\n1,This is a Great Soap\n2,Another Ad Here\n";
  out.close();
  Result<Corpus> corpus = LoadCorpusFromCsv(path_, "text");
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->size(), 2u);
  EXPECT_EQ(corpus->TokenText(0), "this is a great soap");
}

TEST_F(CsvFileTest, LoadCorpusMissingColumnFails) {
  std::ofstream out(path_);
  out << "id,text\n1,x\n";
  out.close();
  Result<Corpus> corpus = LoadCorpusFromCsv(path_, "body");
  EXPECT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kInvalidArgument);
}

// Fuzz-style property: parsing arbitrary strings never crashes — it
// either rejects the input with InvalidArgument or succeeds, and every
// successful parse round-trips (format(parse(x)) parses back to the
// same fields). Formatted output of arbitrary fields always parses.
class CsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzTest, ParseIsTotalAndRoundTripStable) {
  uint64_t state = GetParam() * 0x9e3779b97f4a7c15ULL + 7;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const char kAlphabet[] = "ab,\"\n\r x";
  for (int trial = 0; trial < 100; ++trial) {
    std::string line;
    const size_t len = next() % 40;
    for (size_t i = 0; i < len; ++i) {
      line.push_back(kAlphabet[next() % (sizeof(kAlphabet) - 1)]);
    }
    Result<std::vector<std::string>> fields = ParseCsvLine(line);
    if (!fields.ok()) {
      EXPECT_EQ(fields.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    EXPECT_GE(fields->size(), 1u);
    // Once parsed, formatting and re-parsing is the identity.
    std::string formatted = FormatCsvLine(*fields);
    Result<std::vector<std::string>> reparsed = ParseCsvLine(formatted);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
    EXPECT_EQ(*reparsed, *fields);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST_F(CsvFileTest, PipelineRunsOnCsvLoadedCorpus) {
  // End-to-end: CSV in, templates out (the CLI's code path).
  std::ofstream out(path_);
  out << "id,text\n";
  for (int i = 0; i < 4; ++i) {
    out << i << ",grand opening best massage in town call today " << i
        << "\n";
  }
  for (int i = 0; i < 30; ++i) {
    out << 100 + i << ",unique" << i * 3 << " unique" << i * 3 + 1
        << " unique" << i * 3 + 2 << "\n";
  }
  out.close();
  Result<Corpus> corpus = LoadCorpusFromCsv(path_, "text");
  ASSERT_TRUE(corpus.ok());
  InfoShield shield;
  InfoShieldResult r = shield.Run(*corpus);
  ASSERT_EQ(r.templates.size(), 1u);
  EXPECT_EQ(r.templates[0].members.size(), 4u);
}

TEST_F(CsvFileTest, Utf8BomBeforeHeaderIsIgnored) {
  // Spreadsheet "CSV UTF-8" exports start with EF BB BF; it is not part
  // of the first column's name. A BOM anywhere else is content.
  std::ofstream out(path_, std::ios::binary);
  out << "\xEF\xBB\xBFtext,label\nhello world,1\n\xEF\xBB\xBFsecond,2\n";
  out.close();
  Result<CsvTable> table = ReadCsvFile(path_);
  ASSERT_TRUE(table.ok()) << table.status().message();
  EXPECT_EQ(table->header, (std::vector<std::string>{"text", "label"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][0], "\xEF\xBB\xBFsecond");
  Result<Corpus> corpus = LoadCorpusFromCsv(path_, "text");
  ASSERT_TRUE(corpus.ok()) << corpus.status().message();
  ASSERT_EQ(corpus->size(), 2u);
  EXPECT_EQ(corpus->TokenText(0), "hello world");
}

// A CSV file several times larger than 8 chunks' worth of bytes, so the
// loader splits it into chunks at 2+ threads. Each record is one of:
// id,text,label with text quoted with an embedded newline, a CRLF
// terminator, upper case, UTF-8, a URL or an escaped quote; a blank
// line; a blank CRLF line; or a short row with no text column. From
// 90% on, records bring words never seen before, so some words first
// occur in the last chunk.
std::string LoaderTestCsv() {
  uint64_t state = 0x2545F4914F6CDD1DULL;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::vector<std::string> extras = {
      "Grand OPENING", "café münchen 東京", "visit http://x.example/a?b=c",
      "see https://t.co/AbC123", "call 555-1234", "price: $30!"};
  std::string csv = "id,text,label\n";
  const size_t target = 9 * Corpus::kMinChunkBytes;
  for (size_t r = 0; csv.size() < target; ++r) {
    std::string text;
    for (int k = 0; k < 12; ++k) {
      text += "w" + std::to_string(next() % 3000) + " ";
    }
    text += extras[next() % extras.size()];
    if (csv.size() > target / 10 * 9) text += " late" + std::to_string(r);
    const std::string id = std::to_string(r);
    switch (next() % 8) {
      case 0:
        csv += id + ",\"" + text + "\nsecond line\",a\n";
        break;
      case 1:
        csv += id + "," + text + ",b\r\n";
        break;
      case 2:
        csv += id + ",\"say \"\"" + text + "\"\"\",c\n";
        break;
      case 3:
        csv += "\n";
        break;
      case 4:
        csv += "\r\n";
        break;
      case 5:
        csv += id + "\n";
        break;
      default:
        csv += id + "," + text + ",d\n";
        break;
    }
  }
  return csv;
}

void ExpectSameCorpus(const Corpus& expected, const Corpus& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_EQ(actual.vocab().size(), expected.vocab().size());
  for (TokenId w = 0; w < expected.vocab().size(); ++w) {
    ASSERT_EQ(actual.vocab().Word(w), expected.vocab().Word(w))
        << "word " << w;
  }
  for (DocId d = 0; d < expected.size(); ++d) {
    ASSERT_EQ(actual.doc(d).id, d);
    ASSERT_EQ(actual.doc(d).raw, expected.doc(d).raw) << "doc " << d;
    ASSERT_EQ(actual.doc(d).tokens, expected.doc(d).tokens) << "doc " << d;
  }
}

TEST_F(CsvFileTest, LoadCorpusMatchesReferenceAtEveryThreadCount) {
  const std::string csv = LoaderTestCsv();
  ASSERT_GT(csv.size(), 8 * Corpus::kMinChunkBytes);
  std::ofstream out(path_, std::ios::binary);
  out << csv;
  out.close();
  Result<Corpus> expected = oracle::ReferenceLoadCorpus(path_, "text");
  ASSERT_TRUE(expected.ok()) << expected.status().message();
  ASSERT_GT(expected->size(), 10000u);
  for (size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    Result<Corpus> loaded = LoadCorpusFromCsv(path_, "text", ',', threads);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    ExpectSameCorpus(*expected, *loaded);
  }
}

TEST_F(CsvFileTest, FirstMalformedRecordIsReportedAtEveryThreadCount) {
  // Two malformed records far apart, so they fall in different chunks,
  // and an unterminated quote at the end: the earlier record is named,
  // as the sequential reference names it.
  std::string csv = LoaderTestCsv();
  const size_t early = csv.find('\n', csv.size() / 3) + 1;
  csv.insert(early, "bad,\"early\"x,a\n");
  const size_t late = csv.find('\n', csv.size() / 10 * 9) + 1;
  csv.insert(late, "bad,la\"te,a\n");
  csv += "0,\"never closed\n";
  std::ofstream out(path_, std::ios::binary);
  out << csv;
  out.close();
  Result<Corpus> expected = oracle::ReferenceLoadCorpus(path_, "text");
  ASSERT_FALSE(expected.ok());
  EXPECT_NE(expected.status().message().find("after closing quote"),
            std::string::npos)
      << expected.status().message();
  for (size_t threads : {1, 2, 4, 8}) {
    Result<Corpus> loaded = LoadCorpusFromCsv(path_, "text", ',', threads);
    ASSERT_FALSE(loaded.ok()) << threads << " threads";
    EXPECT_EQ(loaded.status(), expected.status()) << threads << " threads";
  }
}

TEST_F(CsvFileTest, LoadErrorsMatchReference) {
  // Every way a load can fail, with the sequential reference's status:
  // no records, a malformed header or row, input ending inside quotes
  // (also after a file whose column is missing), a missing column.
  // ReadCsvFile reports the same reading errors.
  const std::vector<std::string> files = {
      "",
      "\n\r\n\n",
      "id,text\n1,ok\n2,\"never closed\n",
      "id,\"te\"xt\n1,a\n",
      "\n\nid,text\n1,\"bad\"x\n",
      "id,body\n1,x\n",
      "id,body\n1,\"never closed\n",
  };
  for (const std::string& file : files) {
    SCOPED_TRACE(testing::Message() << "file '" << file << "'");
    std::ofstream out(path_, std::ios::binary);
    out << file;
    out.close();
    Result<Corpus> expected = oracle::ReferenceLoadCorpus(path_, "text");
    ASSERT_FALSE(expected.ok());
    for (size_t threads : {1, 4}) {
      Result<Corpus> loaded = LoadCorpusFromCsv(path_, "text", ',', threads);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status(), expected.status()) << threads << " threads";
    }
    Result<CsvTable> table = ReadCsvFile(path_);
    if (expected.status().message().find("no column") == std::string::npos) {
      ASSERT_FALSE(table.ok());
      EXPECT_EQ(table.status(), expected.status());
    }
  }
}

TEST_F(CsvFileTest, TsvSeparator) {
  std::ofstream out(path_);
  out << "id\ttext\n1\thello there\n";
  out.close();
  Result<Corpus> corpus = LoadCorpusFromCsv(path_, "text", '\t');
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->TokenText(0), "hello there");
}

}  // namespace
}  // namespace infoshield
