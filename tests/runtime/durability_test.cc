// Durability-layer unit suite: Finish()/Flush() idempotence on both
// engines (a crashed caller may retry either), snapshot round-trip
// basics, and the torn-file fuzz — seeded truncations and bit flips of
// snapshot and WAL files must surface as clean kCorrupt / version
// diagnostics naming the file (and offset where known), never as a
// crash, a hang, or a sanitizer trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/random.h"
#include "runtime/engine.h"
#include "runtime/serde.h"
#include "runtime/wal.h"
#include "testing/helpers.h"
#include "workload/stock.h"

namespace cepr {
namespace {

constexpr char kStockQuery[] =
    "SELECT a.symbol, a.price, MIN(b.price), c.price "
    "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
    "PARTITION BY symbol "
    "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
    "  AND c.price > a.price "
    "WITHIN 100 MILLISECONDS "
    "RANK BY (a.price - MIN(b.price)) / a.price DESC "
    "LIMIT 10 EMIT ON WINDOW CLOSE";

struct StockStream {
  SchemaPtr schema;
  std::vector<Event> events;
};

StockStream InOrderStock(size_t n) {
  StockOptions options;
  options.num_symbols = 6;
  options.v_probability = 0.03;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  return {gen.schema(), gen.Take(n)};
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileOrDie(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// --- Finish / Flush idempotence -------------------------------------------

TEST(IdempotenceTest, SerialDoubleFinishEmitsNothingNew) {
  const StockStream stream = InOrderStock(3000);
  Engine engine;
  ASSERT_TRUE(engine.RegisterSchema(stream.schema).ok());
  CollectSink sink;
  ASSERT_TRUE(
      engine.RegisterQuery("q", kStockQuery, QueryOptions{}, &sink).ok());
  for (const Event& e : stream.events) ASSERT_TRUE(engine.Push(Event(e)).ok());
  engine.Finish();
  const size_t after_first = sink.results().size();
  EXPECT_GT(after_first, 0u) << "workload produced no results; weak test";
  engine.Finish();
  EXPECT_EQ(sink.results().size(), after_first);
  // Flush after Finish is a legal no-op: buffers are drained, windows shut.
  EXPECT_TRUE(engine.Flush().ok());
  engine.Finish();
  EXPECT_EQ(sink.results().size(), after_first);
}

TEST(IdempotenceTest, ShardedDoubleFinishEmitsNothingNew) {
  const StockStream stream = InOrderStock(3000);
  EngineOptions options;
  options.num_shards = 2;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterSchema(stream.schema).ok());
  CollectSink sink;
  ASSERT_TRUE(
      engine.RegisterQuery("q", kStockQuery, QueryOptions{}, &sink).ok());
  for (const Event& e : stream.events) ASSERT_TRUE(engine.Push(Event(e)).ok());
  engine.Finish();
  const size_t after_first = sink.results().size();
  EXPECT_GT(after_first, 0u) << "workload produced no results; weak test";
  engine.Finish();
  engine.Finish();
  EXPECT_EQ(sink.results().size(), after_first);
  // The sharded engine is terminal after Finish: a flush is refused, not
  // silently half-applied.
  EXPECT_EQ(engine.Flush().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sink.results().size(), after_first);
}

TEST(IdempotenceTest, DoubleFlushMidStreamEqualsSingleFlush) {
  // Under bounded disorder a mid-stream Flush force-releases resident
  // events (observable); a second immediate Flush must release nothing.
  const StockStream stream = InOrderStock(4000);
  const auto run = [&](int flushes) {
    EngineOptions options;
    options.max_lateness_micros = 20000;
    Engine engine(options);
    EXPECT_TRUE(engine.RegisterSchema(stream.schema).ok());
    CollectSink sink;
    EXPECT_TRUE(
        engine.RegisterQuery("q", kStockQuery, QueryOptions{}, &sink).ok());
    for (size_t i = 0; i < stream.events.size(); ++i) {
      EXPECT_TRUE(engine.Push(Event(stream.events[i])).ok());
      if (i == 2000) {
        for (int f = 0; f < flushes; ++f) EXPECT_TRUE(engine.Flush().ok());
      }
    }
    engine.Finish();
    return sink.results();
  };
  const auto once = run(1);
  const auto thrice = run(3);
  ASSERT_EQ(once.size(), thrice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].window_id, thrice[i].window_id) << "@" << i;
    EXPECT_EQ(once[i].rank, thrice[i].rank) << "@" << i;
    EXPECT_EQ(once[i].match.score, thrice[i].match.score) << "@" << i;
    EXPECT_EQ(once[i].match.row, thrice[i].match.row) << "@" << i;
  }
}

TEST(IdempotenceTest, ShardedDoubleFlushMidStreamEqualsSingleFlush) {
  const StockStream stream = InOrderStock(4000);
  const auto run = [&](int flushes) {
    EngineOptions options;
    options.num_shards = 2;
    options.max_lateness_micros = 20000;
    Engine engine(options);
    EXPECT_TRUE(engine.RegisterSchema(stream.schema).ok());
    CollectSink sink;
    EXPECT_TRUE(
        engine.RegisterQuery("q", kStockQuery, QueryOptions{}, &sink).ok());
    for (size_t i = 0; i < stream.events.size(); ++i) {
      EXPECT_TRUE(engine.Push(Event(stream.events[i])).ok());
      if (i == 2000) {
        for (int f = 0; f < flushes; ++f) EXPECT_TRUE(engine.Flush().ok());
      }
    }
    engine.Finish();
    return sink.results();
  };
  const auto once = run(1);
  const auto thrice = run(3);
  ASSERT_EQ(once.size(), thrice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].window_id, thrice[i].window_id) << "@" << i;
    EXPECT_EQ(once[i].rank, thrice[i].rank) << "@" << i;
    EXPECT_EQ(once[i].match.score, thrice[i].match.score) << "@" << i;
    EXPECT_EQ(once[i].match.row, thrice[i].match.row) << "@" << i;
  }
}

// --- Snapshot round-trip basics -------------------------------------------

TEST(SnapshotTest, EmptyEngineRoundTripsOptionsAndSchemas) {
  const StockStream stream = InOrderStock(10);
  const std::string snap = testing::TestTempPath("ckpt");
  {
    EngineOptions options;
    options.max_lateness_micros = 12345;
    options.late_policy = LatePolicy::kClamp;
    Engine writer(options);
    ASSERT_TRUE(writer.RegisterSchema(stream.schema).ok());
    ASSERT_TRUE(writer.Checkpoint(snap).ok());
    EXPECT_EQ(writer.durability().checkpoints_written, 1u);
    EXPECT_GT(writer.durability().checkpoint_bytes, 0u);
  }
  Engine engine;
  ASSERT_TRUE(engine.Restore(snap, "", nullptr).ok());
  EXPECT_EQ(engine.options().max_lateness_micros, 12345);
  EXPECT_EQ(engine.options().late_policy, LatePolicy::kClamp);
  EXPECT_TRUE(engine.GetSchema("Stock").ok());
  // The restored engine is live: events flow as if never interrupted. Note
  // the rebind — schema identity is per-engine, so a recovering process
  // builds events against the engine's own schema handle.
  const Event& e = stream.events[0];
  ASSERT_TRUE(engine
                  .Push(Event(engine.GetSchema("Stock").value(), e.timestamp(),
                              e.values()))
                  .ok());
  engine.Finish();
}

TEST(SnapshotTest, CheckpointIsAtomicAgainstOverwrite) {
  // Checkpointing over an existing snapshot goes through temp + rename, so
  // a second checkpoint replaces the first in one step and the file is
  // always a complete, valid image.
  const StockStream stream = InOrderStock(2000);
  const std::string snap = testing::TestTempPath("ckpt");
  Engine engine;
  ASSERT_TRUE(engine.RegisterSchema(stream.schema).ok());
  CollectSink sink;
  ASSERT_TRUE(
      engine.RegisterQuery("q", kStockQuery, QueryOptions{}, &sink).ok());
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(engine.Push(Event(stream.events[i])).ok());
  }
  ASSERT_TRUE(engine.Checkpoint(snap).ok());
  const std::string first = ReadFileOrDie(snap);
  for (size_t i = 1000; i < 2000; ++i) {
    ASSERT_TRUE(engine.Push(Event(stream.events[i])).ok());
  }
  ASSERT_TRUE(engine.Checkpoint(snap).ok());
  const std::string second = ReadFileOrDie(snap);
  EXPECT_NE(first, second);
  EXPECT_EQ(engine.durability().checkpoints_written, 2u);
  // No temp residue after a successful publish.
  std::ifstream tmp(snap + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  engine.Finish();
}

TEST(SnapshotTest, PreviousFormatVersionIsRejected) {
  // A snapshot of the previous layout is refused at the header, before any
  // body byte is decoded: upgrading means starting from a fresh WAL and
  // snapshot.
  const StockStream stream = InOrderStock(10);
  const std::string snap = testing::TestTempPath("ckpt");
  {
    Engine writer;
    ASSERT_TRUE(writer.RegisterSchema(stream.schema).ok());
    ASSERT_TRUE(writer.Checkpoint(snap).ok());
  }
  std::string bytes = ReadFileOrDie(snap);
  // The header's u32 little-endian version follows the 8-byte magic.
  bytes.replace(sizeof(ckpt::kMagic), 4, std::string("\x03\x00\x00\x00", 4));
  WriteFileOrDie(snap, bytes);
  Engine engine;
  const Status s = engine.Restore(snap, "", nullptr);
  EXPECT_EQ(s.code(), StatusCode::kCorrupt) << s.ToString();
  EXPECT_NE(s.message().find("unsupported format version 3"),
            std::string::npos)
      << s.ToString();
  std::remove(snap.c_str());
}

TEST(SnapshotTest, OldLayoutDeployRecordFailsReplayCleanly) {
  // WAL records carry no format version. A deploy record in the previous
  // option-block layout (four trailing matcher flags) must fail replay as a
  // clean kCorrupt naming the record, never register a query from misread
  // options.
  const StockStream stream = InOrderStock(10);
  const std::string snap = testing::TestTempPath("ckpt");
  const std::string wal = testing::TestTempPath("wal");
  std::remove(wal.c_str());
  {
    Engine writer;
    ASSERT_TRUE(writer.RegisterSchema(stream.schema).ok());
    ASSERT_TRUE(writer.OpenWal(wal).ok());
    ASSERT_TRUE(writer.Checkpoint(snap).ok());
  }
  {
    BinWriter blob;
    blob.Str(kStockQuery);
    SaveQueryOptions(&blob, QueryOptions{});
    for (int i = 0; i < 4; ++i) blob.Bool(true);
    WalWriter journal;
    ASSERT_TRUE(journal.Open(wal).ok());
    ASSERT_TRUE(journal.AppendDeploy("q", blob.buffer()).ok());
    ASSERT_TRUE(journal.Sync().ok());
  }
  Engine engine;
  const Status s = engine.Restore(snap, wal, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kCorrupt) << s.ToString();
  EXPECT_NE(s.message().find("record 0"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("'q'"), std::string::npos) << s.ToString();
  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

// --- Cross-version snapshot fixture ----------------------------------------
//
// tests/data/snapshot_v4/{inline,shards2} hold a format-4 snapshot and its
// journal, written by an earlier build (write_fixture.cc there), with that
// build's counter readings in counters.txt: "cut" lines after restoring the
// snapshot alone, "replayed" lines after restoring snapshot + journal and
// finishing. Restoring them here proves no counter moved in the encoding.

using CounterMap = std::map<std::string, uint64_t>;

template <typename Stats>
void AddCounters(const std::string& prefix, const Stats& stats,
                 CounterMap* out) {
  for (const auto& f : Stats::Fields()) {
    (*out)[prefix + f.name] = stats.*f.value;
  }
}

CounterMap ReadCounters(const Engine& engine) {
  const MetricsSnapshot snap = engine.Snapshot();
  CounterMap c = {{"engine.events_ingested", snap.events_ingested},
                  {"engine.events_quarantined", snap.events_quarantined},
                  {"engine.queries_deduped", snap.sharing.queries_deduped}};
  AddCounters("durability.", snap.durability, &c);
  AddCounters("reorder.", snap.reorder, &c);
  EXPECT_EQ(snap.queries.size(), 1u);
  if (!snap.queries.empty()) {
    AddCounters("matcher.", snap.queries[0].metrics.matcher, &c);
  }
  for (size_t i = 0; i < snap.shards.size(); ++i) {
    AddCounters("shard" + std::to_string(i) + ".", snap.shards[i], &c);
  }
  if (!snap.shards.empty()) AddCounters("merge.", snap.merge, &c);
  return c;
}

// Every recorded counter must read back equal; `complete` also requires the
// recording to cover every counter the engine reports.
void ExpectCounters(const CounterMap& want, const CounterMap& got,
                    bool complete, const std::string& where) {
  for (const auto& [key, value] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      ADD_FAILURE() << where << ": no counter " << key;
      continue;
    }
    EXPECT_EQ(it->second, value) << where << ": " << key;
  }
  if (complete) {
    for (const auto& [key, value] : got) {
      EXPECT_EQ(want.count(key), 1u) << where << ": unrecorded " << key;
    }
  }
}

TEST(SnapshotTest, RestoresParentWrittenV4Fixture) {
  for (const auto& [variant, shards] :
       {std::pair<std::string, size_t>{"inline", 0}, {"shards2", 2}}) {
    SCOPED_TRACE(variant);
    const std::string dir = std::string(CEPR_TEST_DATA_DIR) + "/snapshot_v4/" +
                            variant + "/";
    std::map<std::string, CounterMap> recorded;
    std::ifstream in(dir + "counters.txt");
    ASSERT_TRUE(in.good()) << dir;
    std::string section, key;
    uint64_t value = 0;
    while (in >> section >> key >> value) recorded[section][key] = value;
    ASSERT_EQ(recorded.size(), 2u);

    EngineOptions options;
    options.num_shards = shards;
    CollectSink sink;
    const SinkResolver resolve = [&](const std::string&) { return &sink; };
    {
      Engine engine(options);
      ASSERT_TRUE(engine.Restore(dir + "snapshot.bin", "", resolve).ok());
      ExpectCounters(recorded["cut"], ReadCounters(engine), true, "cut");
    }
    // Restore reopens the journal for appending: work on a copy.
    const std::string wal = testing::TestTempPath(variant + ".wal");
    WriteFileOrDie(wal, ReadFileOrDie(dir + "journal.wal"));
    {
      Engine engine(options);
      ASSERT_TRUE(engine.Restore(dir + "snapshot.bin", wal, resolve).ok());
      engine.Finish();
      ExpectCounters(recorded["replayed"], ReadCounters(engine), false,
                     "replayed");
    }
    std::remove(wal.c_str());
  }
}

// --- Chunked WAL open scan -------------------------------------------------

TEST(WalScanTest, MultiMegabyteWalTruncatesTornTailIdenticallyToReadAll) {
  // Regression for the open-time scan: it used to slurp the whole journal
  // into one string; it now streams fixed-size chunks. The observable
  // contract must be unchanged however large the file is and wherever the
  // torn tail lands relative to chunk boundaries (256KiB): Open truncates
  // to exactly the valid prefix WalReader::ReadAll sees, counts the same
  // records, and appending resumes cleanly.
  const std::string path = testing::TestTempPath("wal");
  std::remove(path.c_str());

  // ~2000 records of ~2KB each => ~4MB, many scan chunks. Payload sizes are
  // deliberately not divisors of the chunk size, so frames straddle chunk
  // boundaries at varying offsets.
  const size_t kRecords = 2000;
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    for (size_t i = 0; i < kRecords; ++i) {
      Event e(SchemaPtr{}, static_cast<Timestamp>(i * 1000),
              {Value::Int(static_cast<int64_t>(i)),
               Value::String(std::string(1700 + i % 613, 'x'))});
      ASSERT_TRUE(writer.AppendEvent("S", e).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  const std::string intact = ReadFileOrDie(path);
  ASSERT_GT(intact.size(), 3u << 20) << "file too small to exercise chunking";

  // Torn tails at positions chosen to straddle scan-chunk boundaries:
  // just under / at / just over 1 and 2 chunks, plus a mid-file cut and a
  // cut inside the final frame.
  const size_t chunk = 256u << 10;
  const std::vector<size_t> cuts = {
      chunk - 3,     chunk,         chunk + 5,      2 * chunk - 1,
      2 * chunk + 9, intact.size() / 2, intact.size() - 7};
  for (const size_t cut : cuts) {
    SCOPED_TRACE("torn at " + std::to_string(cut));
    WriteFileOrDie(path, intact.substr(0, cut));

    // Reference: the reader's valid-prefix verdict on the torn file.
    std::vector<WalRecord> read_back;
    uint64_t dropped = 0;
    ASSERT_TRUE(WalReader::ReadAll(path, &read_back, &dropped).ok());

    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    EXPECT_EQ(writer.records(), read_back.size());

    // Open physically truncated the torn bytes away.
    const std::string after_open = ReadFileOrDie(path);
    EXPECT_EQ(after_open.size(), cut - dropped);
    EXPECT_EQ(after_open, intact.substr(0, after_open.size()));

    // Appending resumes after the last valid record.
    Event extra(SchemaPtr{}, 1, {Value::Int(-1), Value::String("tail")});
    ASSERT_TRUE(writer.AppendEvent("S", extra).ok());
    writer.Close();
    std::vector<WalRecord> final_records;
    ASSERT_TRUE(WalReader::ReadAll(path, &final_records, nullptr).ok());
    ASSERT_EQ(final_records.size(), read_back.size() + 1);
    EXPECT_EQ(final_records.back().event.values().back().AsString(), "tail");
  }
  std::remove(path.c_str());
}

// --- Torn-file fuzz --------------------------------------------------------

class TornFileFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const StockStream stream = InOrderStock(2000);
    schema_ = stream.schema;
    snap_path_ = testing::TestTempPath("ckpt");
    wal_path_ = testing::TestTempPath("wal");
    std::remove(wal_path_.c_str());
    Engine engine;
    ASSERT_TRUE(engine.RegisterSchema(stream.schema).ok());
    CollectSink sink;
    ASSERT_TRUE(
        engine.RegisterQuery("q", kStockQuery, QueryOptions{}, &sink).ok());
    ASSERT_TRUE(engine.OpenWal(wal_path_).ok());
    for (size_t i = 0; i < 1200; ++i) {
      ASSERT_TRUE(engine.Push(Event(stream.events[i])).ok());
    }
    ASSERT_TRUE(engine.Checkpoint(snap_path_).ok());
    for (size_t i = 1200; i < 2000; ++i) {
      ASSERT_TRUE(engine.Push(Event(stream.events[i])).ok());
    }
    ASSERT_TRUE(engine.SyncWal().ok());
    snap_bytes_ = new std::string(ReadFileOrDie(snap_path_));
    wal_bytes_ = new std::string(ReadFileOrDie(wal_path_));
    ASSERT_GT(snap_bytes_->size(), 64u);
    ASSERT_GT(wal_bytes_->size(), 64u);
  }

  static void TearDownTestSuite() {
    delete snap_bytes_;
    delete wal_bytes_;
    snap_bytes_ = nullptr;
    wal_bytes_ = nullptr;
  }

  // A restore attempt against (possibly corrupted) files: must return a
  // status, never crash or hang. Returns it for the caller's assertions.
  static Status TryRestore(const std::string& snap, const std::string& wal) {
    Engine engine;
    CollectSink sink;
    return engine.Restore(snap, wal,
                          [&](const std::string&) -> Sink* { return &sink; });
  }

  static SchemaPtr schema_;
  static std::string snap_path_;
  static std::string wal_path_;
  static std::string* snap_bytes_;
  static std::string* wal_bytes_;
};

SchemaPtr TornFileFuzzTest::schema_;
std::string TornFileFuzzTest::snap_path_;
std::string TornFileFuzzTest::wal_path_;
std::string* TornFileFuzzTest::snap_bytes_ = nullptr;
std::string* TornFileFuzzTest::wal_bytes_ = nullptr;

TEST_F(TornFileFuzzTest, IntactFilesRestoreCleanly) {
  const Status s = TryRestore(snap_path_, wal_path_);
  ASSERT_TRUE(s.ok()) << s.ToString();
}

TEST_F(TornFileFuzzTest, TruncatedSnapshotsFailCleanly) {
  const std::string mutant = testing::TestTempPath("ckpt");
  Random rng(0xF112E);
  std::vector<size_t> cuts = {0, 1, 7, 8, 12, 13, 20, 21,
                              snap_bytes_->size() - 1};
  for (int i = 0; i < 24; ++i) {
    cuts.push_back(static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(snap_bytes_->size()))));
  }
  for (const size_t cut : cuts) {
    SCOPED_TRACE("truncate at " + std::to_string(cut));
    WriteFileOrDie(mutant, snap_bytes_->substr(0, cut));
    const Status s = TryRestore(mutant, wal_path_);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorrupt) << s.ToString();
    EXPECT_NE(s.ToString().find(mutant), std::string::npos) << s.ToString();
  }
}

TEST_F(TornFileFuzzTest, BitFlippedSnapshotsFailCleanly) {
  const std::string mutant = testing::TestTempPath("ckpt");
  Random rng(0xF11B);
  // Every header byte plus a seeded sample of the body.
  std::vector<size_t> offsets;
  for (size_t i = 0; i < 21; ++i) offsets.push_back(i);
  for (int i = 0; i < 32; ++i) {
    offsets.push_back(static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(snap_bytes_->size()))));
  }
  for (const size_t offset : offsets) {
    SCOPED_TRACE("flip byte " + std::to_string(offset));
    std::string bytes = *snap_bytes_;
    bytes[offset] = static_cast<char>(
        bytes[offset] ^ static_cast<char>(1u << rng.Uniform(8)));
    WriteFileOrDie(mutant, bytes);
    const Status s = TryRestore(mutant, wal_path_);
    ASSERT_FALSE(s.ok());
    // A flip lands as body corruption (CRC) or a header-field mismatch
    // (magic, version, length, CRC field). All are diagnosable errors
    // naming the file.
    EXPECT_TRUE(s.code() == StatusCode::kCorrupt ||
                s.code() == StatusCode::kInvalidArgument)
        << s.ToString();
    EXPECT_NE(s.ToString().find(mutant), std::string::npos) << s.ToString();
  }
}

TEST_F(TornFileFuzzTest, CorruptedWalNeverCrashes) {
  // WAL damage is survivable by design (torn tails are truncated at open),
  // but damage before the snapshot's cut must be reported as corruption,
  // and nothing may crash, hang, or trip a sanitizer.
  const std::string mutant = testing::TestTempPath("wal");
  Random wal_rng(0xA17);
  for (int i = 0; i < 24; ++i) {
    std::string bytes = *wal_bytes_;
    const bool truncate = (i % 2) == 0;
    if (truncate) {
      const size_t cut = static_cast<size_t>(
          wal_rng.Uniform(static_cast<uint64_t>(bytes.size())));
      SCOPED_TRACE("wal truncate at " + std::to_string(cut));
      bytes.resize(cut);
      WriteFileOrDie(mutant, bytes);
      const Status s = TryRestore(snap_path_, mutant);
      // Either the tail past the cut was lost (ok, shorter replay) or the
      // journal no longer reaches the snapshot's cut (corrupt).
      EXPECT_TRUE(s.ok() || s.code() == StatusCode::kCorrupt) << s.ToString();
    } else {
      const size_t offset = static_cast<size_t>(
          wal_rng.Uniform(static_cast<uint64_t>(bytes.size())));
      SCOPED_TRACE("wal flip at " + std::to_string(offset));
      bytes[offset] = static_cast<char>(
          bytes[offset] ^ static_cast<char>(1u << wal_rng.Uniform(8)));
      WriteFileOrDie(mutant, bytes);
      const Status s = TryRestore(snap_path_, mutant);
      EXPECT_TRUE(s.ok() || s.code() == StatusCode::kCorrupt) << s.ToString();
    }
  }
}

TEST_F(TornFileFuzzTest, WalTruncatedBelowCutNamesTheJournal) {
  // Deterministic case of the corruption path: journal cut off before the
  // snapshot's record count.
  const std::string mutant = testing::TestTempPath("wal");
  WriteFileOrDie(mutant, wal_bytes_->substr(0, 32));
  const Status s = TryRestore(snap_path_, mutant);
  ASSERT_EQ(s.code(), StatusCode::kCorrupt) << s.ToString();
  EXPECT_NE(s.ToString().find(mutant), std::string::npos) << s.ToString();
}

}  // namespace
}  // namespace cepr
