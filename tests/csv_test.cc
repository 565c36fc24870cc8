#include "io/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include <gtest/gtest.h>

#include "core/infoshield.h"

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

TEST(ReadCsvRecordTest, ContinuesAcrossPhysicalLinesInQuotes) {
  std::istringstream in("1,\"two\nlines\",x\n2,plain,y\n");
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
  std::istringstream in("a,b\r\n\"c\r\nd\",e\r\n");
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
  std::istringstream in("a,b\nc,d");
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
  std::istringstream in("a,,\r\n,,b\r\n");
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
  std::istringstream in("a\rb,c\n");
  std::string record;
  Result<bool> more = ReadCsvRecord(in, &record);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(MustParse(record), (std::vector<std::string>{"a\rb", "c"}));
}

TEST(ReadCsvRecordTest, UnterminatedQuoteAtEofFails) {
  std::istringstream in("1,\"never closed\n2,x\n");
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
