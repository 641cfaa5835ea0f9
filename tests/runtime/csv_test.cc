#include "runtime/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "testing/helpers.h"

namespace cepr {
namespace {

using testing::StockSchema;
using testing::Tick;

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TestTempPath("csv");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CsvTest, EventsRoundTrip) {
  std::vector<Event> events;
  events.push_back(Tick(1000, 42.5, 7, "IBM"));
  Event tagged = Tick(2000, 10.0, 8, "MSFT");
  tagged.set_type_tag("Buy");
  events.push_back(tagged);

  ASSERT_TRUE(WriteEventsCsv(path_, events).ok());
  auto readback = ReadEventsCsv(path_, StockSchema());
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  ASSERT_EQ(readback->size(), 2u);
  EXPECT_EQ((*readback)[0].timestamp(), 1000);
  EXPECT_EQ((*readback)[0].value(0), Value::String("IBM"));
  EXPECT_EQ((*readback)[0].value(1), Value::Float(42.5));
  EXPECT_EQ((*readback)[0].value(2), Value::Int(7));
  EXPECT_EQ((*readback)[1].type_tag(), "Buy");
}

TEST_F(CsvTest, QuotedCellsRoundTrip) {
  std::vector<Event> events;
  events.push_back(Tick(0, 1.0, 1, "has,comma"));
  events.push_back(Tick(1, 2.0, 2, "has\"quote"));
  ASSERT_TRUE(WriteEventsCsv(path_, events).ok());
  auto readback = ReadEventsCsv(path_, StockSchema());
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  EXPECT_EQ((*readback)[0].value(0), Value::String("has,comma"));
  EXPECT_EQ((*readback)[1].value(0), Value::String("has\"quote"));
}

TEST_F(CsvTest, EmbeddedNewlineRoundTrip) {
  // The writer quotes cells containing '\n'; the reader must continue the
  // record across physical lines instead of failing on the fragment.
  std::vector<Event> events;
  events.push_back(Tick(0, 1.0, 1, "line one\nline two"));
  events.push_back(Tick(1, 2.0, 2, "a\nb\nc"));
  events.push_back(Tick(2, 3.0, 3, "mix,\"of\nall\" three"));
  ASSERT_TRUE(WriteEventsCsv(path_, events).ok());
  auto readback = ReadEventsCsv(path_, StockSchema());
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  ASSERT_EQ(readback->size(), 3u);
  EXPECT_EQ((*readback)[0].value(0), Value::String("line one\nline two"));
  EXPECT_EQ((*readback)[1].value(0), Value::String("a\nb\nc"));
  EXPECT_EQ((*readback)[2].value(0), Value::String("mix,\"of\nall\" three"));
  EXPECT_EQ((*readback)[2].timestamp(), 2);
}

TEST_F(CsvTest, MultiLineRecordErrorsReportFirstLine) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";
  out << "5,,\"two\nlines\",notanumber,3\n";
  out.close();
  auto readback = ReadEventsCsv(path_, StockSchema());
  ASSERT_FALSE(readback.ok());
  EXPECT_NE(readback.status().message().find("line 2"), std::string::npos)
      << readback.status().message();
}

TEST_F(CsvTest, UnterminatedQuoteRejected) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";
  out << "5,,\"never closed,1.0,3\n";
  out.close();
  auto readback = ReadEventsCsv(path_, StockSchema());
  ASSERT_FALSE(readback.ok());
  EXPECT_NE(readback.status().message().find("unterminated"), std::string::npos)
      << readback.status().message();
}

TEST_F(CsvTest, IntOverflowRejected) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";
  out << "5,,IBM,1.0,99999999999999999999999\n";  // > INT64_MAX
  out.close();
  auto readback = ReadEventsCsv(path_, StockSchema());
  ASSERT_FALSE(readback.ok());
  EXPECT_EQ(readback.status().code(), StatusCode::kIoError);
  EXPECT_NE(readback.status().message().find("out of range"), std::string::npos)
      << readback.status().message();
}

TEST_F(CsvTest, FloatOverflowRejected) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";
  out << "5,,IBM,1e999,3\n";  // > DBL_MAX
  out.close();
  auto readback = ReadEventsCsv(path_, StockSchema());
  ASSERT_FALSE(readback.ok());
  EXPECT_NE(readback.status().message().find("out of range"), std::string::npos)
      << readback.status().message();
}

TEST_F(CsvTest, TimestampOverflowRejected) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";
  out << "99999999999999999999999,,IBM,1.0,3\n";
  out.close();
  auto readback = ReadEventsCsv(path_, StockSchema());
  ASSERT_FALSE(readback.ok());
  EXPECT_NE(readback.status().message().find("timestamp out of range"),
            std::string::npos)
      << readback.status().message();
}

TEST_F(CsvTest, EmptyNumericCellBecomesNull) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";
  out << "5,,IBM,,3\n";
  out.close();
  auto readback = ReadEventsCsv(path_, StockSchema());
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  EXPECT_TRUE((*readback)[0].value(1).is_null());
  EXPECT_EQ((*readback)[0].value(2), Value::Int(3));
}

TEST_F(CsvTest, BadCellsReportLineNumbers) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";
  out << "5,,IBM,notanumber,3\n";
  out.close();
  auto readback = ReadEventsCsv(path_, StockSchema());
  ASSERT_FALSE(readback.ok());
  EXPECT_NE(readback.status().message().find("line 2"), std::string::npos);
}

TEST_F(CsvTest, ArityMismatchRejected) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";
  out << "5,,IBM,1.0\n";
  out.close();
  EXPECT_FALSE(ReadEventsCsv(path_, StockSchema()).ok());
}

TEST_F(CsvTest, MissingHeaderRejected) {
  std::ofstream out(path_);
  out << "5,,IBM,1.0,3\n";
  out.close();
  EXPECT_FALSE(ReadEventsCsv(path_, StockSchema()).ok());
}

TEST_F(CsvTest, MissingFileReported) {
  EXPECT_EQ(ReadEventsCsv("/nonexistent/nope.csv", StockSchema()).status().code(),
            StatusCode::kIoError);
}

TEST_F(CsvTest, SkipAndCountSkipsBadRecordsWithLineAttribution) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";   // line 1
  out << "1000,,IBM,10.5,3\n";              // line 2: good
  out << "2000,,IBM,extra,cell,oops,7\n";   // line 3: cell-count mismatch
  out << "3000,,IBM,notafloat,4\n";         // line 4: bad FLOAT cell
  out << "4000,,MSFT,20.0,5\n";             // line 5: good
  out.close();

  CsvReadOptions options;
  options.fault_policy = FaultPolicy::kSkipAndCount;
  CsvReadStats stats;
  auto readback = ReadEventsCsv(path_, StockSchema(), options, &stats);
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  ASSERT_EQ(readback->size(), 2u);
  EXPECT_EQ((*readback)[0].timestamp(), 1000);
  EXPECT_EQ((*readback)[1].timestamp(), 4000);
  EXPECT_EQ(stats.records_read, 2u);
  EXPECT_EQ(stats.records_skipped, 2u);
  ASSERT_EQ(stats.skipped.size(), 2u);
  EXPECT_EQ(stats.skipped[0].line, 3);
  EXPECT_EQ(stats.skipped[1].line, 4);
  EXPECT_FALSE(stats.skipped[0].error.empty());

  // The same file under the default policy still fails fast, at line 3.
  auto strict = ReadEventsCsv(path_, StockSchema());
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("line 3"), std::string::npos);
}

TEST_F(CsvTest, SkipAndCountKeepsStructuralErrorsFatal) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";
  out << "1000,,IBM,10.5,3\n";
  out << "2000,,\"never closed,1.0,2\n";  // unterminated quote at EOF
  out.close();
  CsvReadOptions options;
  options.fault_policy = FaultPolicy::kSkipAndCount;
  EXPECT_FALSE(ReadEventsCsv(path_, StockSchema(), options, nullptr).ok())
      << "a broken framing cannot be skipped past";
}

TEST_F(CsvTest, InjectedBadRecordsSkipDeterministically) {
  std::ofstream out(path_);
  out << "ts,type,symbol,price,volume\n";
  for (int i = 0; i < 10; ++i) {  // data lines 2..11
    out << i * 1000 << ",,IBM,1.0,1\n";
  }
  out.close();

  FaultInjector injector(77);
  injector.ArmKeys(fault_points::kCsvBadRecord, {3, 7});
  CsvReadOptions options;
  options.fault_policy = FaultPolicy::kSkipAndCount;
  options.fault_injector = &injector;

  for (int round = 0; round < 2; ++round) {  // identical on replay
    CsvReadStats stats;
    auto readback = ReadEventsCsv(path_, StockSchema(), options, &stats);
    ASSERT_TRUE(readback.ok()) << readback.status().ToString();
    EXPECT_EQ(readback->size(), 8u);
    EXPECT_EQ(stats.records_skipped, 2u);
    ASSERT_EQ(stats.skipped.size(), 2u);
    EXPECT_EQ(stats.skipped[0].line, 3);
    EXPECT_EQ(stats.skipped[1].line, 7);
  }

  // Under kFailFast the first injected record aborts the read.
  options.fault_policy = FaultPolicy::kFailFast;
  auto strict = ReadEventsCsv(path_, StockSchema(), options, nullptr);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("injected"), std::string::npos);
}

TEST_F(CsvTest, ResultSinkWritesRows) {
  CsvResultSink sink(path_, {"price", "depth"});
  ASSERT_TRUE(sink.status().ok());
  RankedResult r;
  r.window_id = 3;
  r.rank = 1;
  r.provisional = true;
  r.match.id = 9;
  r.match.first_ts = 100;
  r.match.last_ts = 200;
  r.match.score = 2.5;
  r.match.row = {Value::Float(42.0), Value::Int(7)};
  sink.OnResult(r);

  // Flush by destroying... CsvResultSink flushes via ofstream dtor; copy
  // semantics: read after scope.
  {
    CsvResultSink scoped(path_, {"price", "depth"});
    scoped.OnResult(r);
  }
  std::ifstream in(path_);
  std::string header;
  std::string line;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(header, "window,rank,provisional,score,first_ts,last_ts,price,depth");
  EXPECT_EQ(line, "3,1,1,2.5,100,200,42.0,7");
}

}  // namespace
}  // namespace cepr
