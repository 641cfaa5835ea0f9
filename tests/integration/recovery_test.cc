// Crash-injection recovery suite for the durability layer: a process that
// checkpoints periodically and journals arrivals to a WAL, then dies at an
// arbitrary point — mid-stream, mid-WAL-append (torn tail), mid-checkpoint
// (partial temp file), even mid-recovery — must, after Restore(), produce
// ranked output bit-identical to an uninterrupted run. The guarantee under
// test: prefix delivered at the last published snapshot + everything the
// recovered engine emits == the uninterrupted run, result for result
// (scores, ranks, tie-order, windows, rows), on the serial engine and on
// the sharded engine at every shard count, with and without bounded
// disorder and an injected eval-fault schedule.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "runtime/engine.h"
#include "testing/helpers.h"
#include "workload/forkheavy.h"
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

// 20 ms of tolerated disorder over a 1 ms event interval.
constexpr Timestamp kLateness = 20000;

struct StockStream {
  SchemaPtr schema;
  std::vector<Event> events;
  std::string query = kStockQuery;
};

StockStream InOrderStock(size_t n = 6000) {
  StockOptions options;
  options.num_symbols = 6;
  options.v_probability = 0.03;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  return {gen.schema(), gen.Take(n)};
}

// Dag-eligible fork-heavy stream: checkpoints taken mid-window capture live
// DAG groups in the matcher and pending lazy sets in the ranker, so
// recovery exercises the v2 snapshot sections end to end.
StockStream DagStream(size_t n = 4000) {
  ForkHeavyOptions options;
  options.num_streams = 2;
  options.anchor_probability = 0.15;
  options.base.interval_micros = 1000;
  ForkHeavyGenerator gen(options);
  return {gen.schema(), gen.Take(n),
          "SELECT a.price, SUM(b.price), COUNT(b) "
          "FROM ForkTick MATCH PATTERN SEQ(a, b+) "
          "USING SKIP_TILL_ANY_MATCH "
          "PARTITION BY sym "
          "WHERE a.anchor = 1 AND b[i].anchor = 0 "
          "WITHIN 12 MILLISECONDS "
          "RANK BY SUM(b.price) DESC "
          "LIMIT 5 EMIT ON WINDOW CLOSE"};
}

// Schema identity is per-engine: a restored engine holds its own
// deserialized Schema object, so a recovering process rebinds events to
// the engine's handle (GetSchema) — exactly what a real ingest path does.
Event Rebind(Engine* engine, const Event& e) {
  Event out(engine->GetSchema(e.schema()->name()).value(), e.timestamp(),
            e.values());
  out.set_type_tag(e.type_tag());
  return out;
}

// Shuffles within consecutive event-time blocks of span <= bound, so every
// displacement stays within the reorder buffer's lateness bound.
std::vector<Event> BlockShuffle(const std::vector<Event>& events,
                                Timestamp bound, uint64_t seed) {
  std::vector<Event> out;
  out.reserve(events.size());
  for (const Event& e : events) out.push_back(Event(e));
  Random rng(seed);
  for (size_t lo = 0; lo < out.size();) {
    size_t hi = lo;
    while (hi + 1 < out.size() &&
           out[hi + 1].timestamp() - out[lo].timestamp() <= bound) {
      ++hi;
    }
    for (size_t i = hi; i > lo; --i) {
      const size_t j = lo + rng.Uniform(static_cast<uint64_t>(i - lo + 1));
      std::swap(out[i], out[j]);
    }
    lo = hi + 1;
  }
  return out;
}

// Engine factory: shards == 0 selects the inline backend.
std::unique_ptr<Engine> MakeEngine(size_t shards, Timestamp lateness,
                                   const FaultInjector* injector) {
  EngineOptions options;
  options.num_shards = shards;
  options.max_lateness_micros = lateness;
  if (injector != nullptr) {
    options.fault_injector = injector;
    options.fault_policy = FaultPolicy::kSkipAndCount;
  }
  return std::make_unique<Engine>(options);
}

std::vector<RankedResult> RunReference(size_t shards, const StockStream& stream,
                                       const std::vector<Event>& arrivals,
                                       Timestamp lateness,
                                       const FaultInjector* injector) {
  auto engine = MakeEngine(shards, lateness, injector);
  EXPECT_TRUE(engine->RegisterSchema(stream.schema).ok());
  CollectSink sink;
  QueryOptions options;
  options.ranker = RankerPolicy::kPruned;
  EXPECT_TRUE(engine->RegisterQuery("q", stream.query, options, &sink).ok());
  for (const Event& e : arrivals) {
    const Status s = engine->Push(Event(e));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  engine->Finish();
  return sink.results();
}

struct CrashPlan {
  size_t kill_at = 0;      // arrival index where the process dies
  size_t ckpt_every = 0;   // checkpoint cadence in arrivals (0 = initial only)
  Timestamp lateness = 0;  // reorder bound for both runs
  // Restore-time crash: arm restore.partial_replay for the first recovery
  // attempt, expect it to fail, then retry from a second pristine engine.
  bool crash_during_recovery = false;
};

// Runs the doomed process (checkpoint + WAL, killed per plan / injection),
// then a recovering process, and asserts prefix-at-cut + recovered output
// is bit-identical to the uninterrupted reference.
void RunCrashRecovery(size_t shards, const StockStream& stream,
                      const std::vector<Event>& arrivals, const CrashPlan& plan,
                      FaultInjector* injector, const std::string& label) {
  SCOPED_TRACE(label);
  const std::vector<RankedResult> reference = RunReference(
      shards, stream, arrivals, plan.lateness, injector);
  ASSERT_FALSE(reference.empty()) << "workload produced no results; weak test";

  const std::string snap = testing::TestTempPath(label + ".ckpt");
  const std::string wal = testing::TestTempPath(label + ".wal");
  std::remove(snap.c_str());
  std::remove((snap + ".tmp").c_str());
  std::remove(wal.c_str());

  // --- Phase 1: the doomed process. ---------------------------------------
  std::vector<RankedResult> prefix;  // delivered at the last published snapshot
  size_t crashed_at = plan.kill_at;
  uint64_t wal_records_at_crash = 0;
  {
    auto engine = MakeEngine(shards, plan.lateness, injector);
    ASSERT_TRUE(engine->RegisterSchema(stream.schema).ok());
    CollectSink sink;
    QueryOptions options;
    options.ranker = RankerPolicy::kPruned;
    ASSERT_TRUE(engine->RegisterQuery("q", stream.query, options, &sink).ok());
    ASSERT_TRUE(engine->OpenWal(wal).ok());

    size_t results_at_cut = 0;
    const auto take_checkpoint = [&]() {
      const Status s = engine->Checkpoint(snap);
      if (s.ok()) {
        results_at_cut = sink.results().size();
      } else {
        // Only the injected mid-write kill may fail a checkpoint here; the
        // previously published snapshot (and its cut) must stand.
        EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
      }
    };
    take_checkpoint();  // empty-state snapshot: recovery always has a base

    for (size_t i = 0; i < plan.kill_at; ++i) {
      const Status s = engine->Push(Event(arrivals[i]));
      if (!s.ok()) {
        // The WAL append died mid-frame (torn tail): the journal ends in a
        // partial record and this arrival was never applied — the process
        // dies here.
        ASSERT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
        crashed_at = i;
        break;
      }
      if (plan.ckpt_every != 0 && (i + 1) % plan.ckpt_every == 0) {
        take_checkpoint();
      }
    }
    wal_records_at_crash = engine->durability().wal_records_appended;
    prefix.assign(sink.results().begin(),
                  sink.results().begin() +
                      static_cast<ptrdiff_t>(results_at_cut));
    // Process dies: no Finish(), no Flush() — the engine (and all its
    // in-memory run state) is simply destroyed. Only snap + wal survive.
  }
  // The crash already happened; the injected durability faults must not
  // re-fire against the recovered process.
  injector->Disarm(fault_points::kWalTornTail);
  injector->Disarm(fault_points::kCkptKillMidWrite);
  injector->Disarm(fault_points::kFsyncParentDir);

  // --- Phase 2: the recovering process. -----------------------------------
  CollectSink recovered_sink;
  const SinkResolver resolver = [&](const std::string& name) -> Sink* {
    EXPECT_EQ(name, "q");
    return &recovered_sink;
  };

  if (plan.crash_during_recovery) {
    // First recovery attempt dies mid-replay; a second pristine engine must
    // then recover from the very same untouched snapshot + journal.
    injector->ArmKeys(fault_points::kRestorePartialReplay, {3});
    auto doomed_recovery = MakeEngine(shards, plan.lateness, injector);
    const Status s = doomed_recovery->Restore(snap, wal, resolver);
    ASSERT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
    injector->Disarm(fault_points::kRestorePartialReplay);
    recovered_sink.Clear();
  }

  auto engine = MakeEngine(shards, plan.lateness, injector);
  const Status restored = engine->Restore(snap, wal, resolver);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_LE(engine->durability().recovery_events_replayed,
            wal_records_at_crash);
  for (size_t i = crashed_at; i < arrivals.size(); ++i) {
    const Status s = engine->Push(Rebind(engine.get(), arrivals[i]));
    ASSERT_TRUE(s.ok()) << s.ToString() << " @" << i;
  }
  engine->Finish();

  // --- The invariant: prefix at cut + recovered == uninterrupted run. -----
  std::vector<RankedResult> combined = prefix;
  combined.insert(combined.end(), recovered_sink.results().begin(),
                  recovered_sink.results().end());
  ASSERT_EQ(reference.size(), combined.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].window_id, combined[i].window_id) << "@" << i;
    EXPECT_EQ(reference[i].rank, combined[i].rank) << "@" << i;
    EXPECT_EQ(reference[i].provisional, combined[i].provisional) << "@" << i;
    EXPECT_EQ(reference[i].match.first_ts, combined[i].match.first_ts)
        << "@" << i;
    EXPECT_EQ(reference[i].match.last_ts, combined[i].match.last_ts)
        << "@" << i;
    EXPECT_EQ(reference[i].match.last_sequence, combined[i].match.last_sequence)
        << "@" << i;
    // Bit-identical, not approximately equal: recovery re-derives scores
    // from restored state, and any drift is a serialization bug.
    EXPECT_EQ(reference[i].match.score, combined[i].match.score) << "@" << i;
    EXPECT_EQ(reference[i].match.row, combined[i].match.row) << "@" << i;
  }
  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

// Shard-count parameter: 0 = serial engine, otherwise sharded.
class RecoveryTest : public ::testing::TestWithParam<size_t> {
 protected:
  std::string Label(const std::string& name) const {
    return "recovery_" + name + "_s" + std::to_string(GetParam());
  }
};

TEST_P(RecoveryTest, KillAtEveryPhaseOfTheStream) {
  const StockStream stream = InOrderStock();
  // Early (one checkpoint behind), middle, and just before the end.
  for (const size_t kill_at : {1500u, 3700u, 5990u}) {
    FaultInjector injector(7);
    CrashPlan plan;
    plan.kill_at = kill_at;
    plan.ckpt_every = 1000;
    RunCrashRecovery(GetParam(), stream, stream.events, plan,
                     &injector,
                     Label("kill" + std::to_string(kill_at)));
  }
}

TEST_P(RecoveryTest, KillBeforeFirstEvent) {
  const StockStream stream = InOrderStock(3000);
  FaultInjector injector(7);
  CrashPlan plan;
  plan.kill_at = 0;  // dies right after the empty-state checkpoint
  plan.ckpt_every = 1000;
  RunCrashRecovery(GetParam(), stream, stream.events, plan, &injector,
                   Label("kill0"));
}

TEST_P(RecoveryTest, NoPeriodicCheckpointsFullWalReplay) {
  const StockStream stream = InOrderStock(3000);
  FaultInjector injector(7);
  CrashPlan plan;
  plan.kill_at = 2400;
  plan.ckpt_every = 0;  // only the empty-state snapshot: replay all arrivals
  RunCrashRecovery(GetParam(), stream, stream.events, plan, &injector,
                   Label("fullreplay"));
}

TEST_P(RecoveryTest, TornWalTail) {
  const StockStream stream = InOrderStock();
  FaultInjector injector(7);
  // The process dies mid-append of record 2718: a partial frame trails the
  // journal and that arrival was never applied.
  injector.ArmKeys(fault_points::kWalTornTail, {2718});
  CrashPlan plan;
  plan.kill_at = stream.events.size();  // would run to completion otherwise
  plan.ckpt_every = 1000;
  RunCrashRecovery(GetParam(), stream, stream.events, plan, &injector,
                   Label("torn"));
}

TEST_P(RecoveryTest, CheckpointKilledMidWrite) {
  const StockStream stream = InOrderStock();
  FaultInjector injector(7);
  // Checkpoint attempts 2 and 3 (events 2000, 3000) die mid-temp-write:
  // the published snapshot stays at attempt 1 (event 1000), so recovery
  // replays 2500 journal records.
  injector.ArmKeys(fault_points::kCkptKillMidWrite, {2, 3});
  CrashPlan plan;
  plan.kill_at = 3500;
  plan.ckpt_every = 1000;
  RunCrashRecovery(GetParam(), stream, stream.events, plan, &injector,
                   Label("ckptkill"));
}

TEST_P(RecoveryTest, CheckpointKilledInPublishWindow) {
  const StockStream stream = InOrderStock();
  FaultInjector injector(7);
  // Checkpoint attempts 2 and 3 (events 2000, 3000) die in the publish
  // window: the temp image is complete and fsynced, but the rename (and
  // the parent-directory fsync that would make the new filename durable)
  // never lands. A real crash there leaves "previous snapshot still
  // current" as the durable state — the bug this fault point guards was a
  // rename with NO directory fsync at all, where a well-timed power cut
  // could lose the snapshot filename even after Checkpoint() returned OK.
  injector.ArmKeys(fault_points::kFsyncParentDir, {2, 3});
  CrashPlan plan;
  plan.kill_at = 3500;
  plan.ckpt_every = 1000;
  RunCrashRecovery(GetParam(), stream, stream.events, plan, &injector,
                   Label("publishkill"));
}

TEST_P(RecoveryTest, CrashDuringRecoveryThenRetry) {
  const StockStream stream = InOrderStock(4000);
  FaultInjector injector(7);
  CrashPlan plan;
  plan.kill_at = 2600;
  plan.ckpt_every = 1000;
  plan.crash_during_recovery = true;
  RunCrashRecovery(GetParam(), stream, stream.events, plan, &injector,
                   Label("recoverycrash"));
}

TEST_P(RecoveryTest, BoundedDisorder) {
  const StockStream stream = InOrderStock();
  const std::vector<Event> arrivals =
      BlockShuffle(stream.events, kLateness, 0xD15);
  FaultInjector injector(7);
  CrashPlan plan;
  plan.kill_at = 3000;  // mid-block: the reorder buffer is non-empty at the cut
  plan.ckpt_every = 1000;
  plan.lateness = kLateness;
  RunCrashRecovery(GetParam(), stream, arrivals, plan, &injector,
                   Label("disorder"));
}

TEST_P(RecoveryTest, DisorderPlusEvalFaultSchedule) {
  const StockStream stream = InOrderStock();
  const std::vector<Event> arrivals =
      BlockShuffle(stream.events, kLateness, 0xD16);
  FaultInjector injector(11);
  // Deterministic poisoned-predicate schedule keyed by stream sequence:
  // identical for the reference, the doomed run, and the replay.
  injector.ArmRate(fault_points::kEvalPoison, 0.002);
  CrashPlan plan;
  plan.kill_at = 3100;
  plan.ckpt_every = 1000;
  plan.lateness = kLateness;
  RunCrashRecovery(GetParam(), stream, arrivals, plan, &injector,
                   Label("faultsched"));
}

TEST_P(RecoveryTest, DagModeCheckpointMidWindow) {
  // Shared-match-DAG recovery: the 12-event windows and the 700-event
  // checkpoint cadence are coprime, so snapshots land mid-window with live
  // DAG groups (matcher) and pending lazy sets (ranker) — the v2 sections.
  const StockStream stream = DagStream();
  for (const size_t kill_at : {900u, 2300u, 3990u}) {
    FaultInjector injector(7);
    CrashPlan plan;
    plan.kill_at = kill_at;
    plan.ckpt_every = 700;
    RunCrashRecovery(GetParam(), stream, stream.events, plan,
                     &injector,
                     Label("dagkill" + std::to_string(kill_at)));
  }
}

TEST_P(RecoveryTest, DagModeDisorderAndEvalFaults) {
  const StockStream stream = DagStream();
  constexpr Timestamp kDagLateness = 5000;  // 5 ms over a 12 ms window
  const std::vector<Event> arrivals =
      BlockShuffle(stream.events, kDagLateness, 0xDA6);
  FaultInjector injector(11);
  injector.ArmRate(fault_points::kEvalPoison, 0.002);
  CrashPlan plan;
  plan.kill_at = 2500;
  plan.ckpt_every = 700;
  plan.lateness = kDagLateness;
  RunCrashRecovery(GetParam(), stream, arrivals, plan, &injector,
                   Label("dagdisorder"));
}

TEST_P(RecoveryTest, TornTailUnderDisorder) {
  const StockStream stream = InOrderStock();
  const std::vector<Event> arrivals =
      BlockShuffle(stream.events, kLateness, 0xD17);
  FaultInjector injector(7);
  injector.ArmKeys(fault_points::kWalTornTail, {3333});
  CrashPlan plan;
  plan.kill_at = arrivals.size();
  plan.ckpt_every = 1000;
  plan.lateness = kLateness;
  RunCrashRecovery(GetParam(), stream, arrivals, plan, &injector,
                   Label("torndisorder"));
}

INSTANTIATE_TEST_SUITE_P(Engines, RecoveryTest,
                         ::testing::Values(0, 1, 2, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 0
                                      ? std::string("serial")
                                      : "sharded" + std::to_string(info.param);
                         });

// --- Restore misuse / validation -----------------------------------------

TEST(RecoveryValidationTest, RestoreRequiresPristineEngine) {
  const StockStream stream = InOrderStock(10);
  const std::string snap = testing::TestTempPath("ckpt");
  {
    Engine writer;
    ASSERT_TRUE(writer.RegisterSchema(stream.schema).ok());
    ASSERT_TRUE(writer.Checkpoint(snap).ok());
  }
  Engine dirty;
  ASSERT_TRUE(dirty.RegisterSchema(stream.schema).ok());
  const Status s = dirty.Restore(snap, "", nullptr);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(RecoveryValidationTest, EngineKindMismatchIsRejected) {
  // Both directions: an inline snapshot into a sharded engine and a sharded
  // snapshot into an inline one. The error names both shard counts.
  const StockStream stream = InOrderStock(10);
  const std::string snap = testing::TestTempPath("ckpt");
  for (const auto& [written, reading] :
       {std::pair<size_t, size_t>{0, 2}, std::pair<size_t, size_t>{2, 0}}) {
    {
      EngineOptions options;
      options.num_shards = written;
      Engine writer(options);
      ASSERT_TRUE(writer.RegisterSchema(stream.schema).ok());
      ASSERT_TRUE(writer.Checkpoint(snap).ok());
      writer.Finish();
    }
    EngineOptions options;
    options.num_shards = reading;
    Engine reader(options);
    const Status s = reader.Restore(snap, "", nullptr);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find("written with " + std::to_string(written) +
                               " shards"),
              std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find("this engine has " + std::to_string(reading)),
              std::string::npos)
        << s.ToString();
    reader.Finish();
  }
}

TEST(RecoveryValidationTest, ShardCountMismatchIsRejected) {
  const StockStream stream = InOrderStock(10);
  const std::string snap = testing::TestTempPath("ckpt");
  {
    EngineOptions options;
    options.num_shards = 2;
    Engine writer(options);
    ASSERT_TRUE(writer.RegisterSchema(stream.schema).ok());
    ASSERT_TRUE(writer.Checkpoint(snap).ok());
    writer.Finish();
  }
  EngineOptions options;
  options.num_shards = 4;
  Engine reader(options);
  const Status s = reader.Restore(snap, "", nullptr);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("shards"), std::string::npos) << s.ToString();
  reader.Finish();
}

TEST(RecoveryValidationTest, MissingSnapshotIsNotFound) {
  Engine engine;
  const Status s = engine.Restore(
      testing::TestTempPath("missing.ckpt"), "", nullptr);
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
}

TEST(RecoveryValidationTest, NullResolverDropsResultsButRecoversState) {
  // Restoring without sinks is legal (a metrics-only or drain use case):
  // state is rebuilt, results go nowhere.
  const StockStream stream = InOrderStock(2000);
  const std::string snap = testing::TestTempPath("ckpt");
  const std::string wal = testing::TestTempPath("wal");
  std::remove(wal.c_str());
  {
    Engine writer;
    ASSERT_TRUE(writer.RegisterSchema(stream.schema).ok());
    CollectSink sink;
    ASSERT_TRUE(
        writer.RegisterQuery("q", kStockQuery, QueryOptions{}, &sink).ok());
    ASSERT_TRUE(writer.OpenWal(wal).ok());
    for (size_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(writer.Push(Event(stream.events[i])).ok());
    }
    ASSERT_TRUE(writer.Checkpoint(snap).ok());
  }
  Engine engine;
  ASSERT_TRUE(engine.Restore(snap, wal, nullptr).ok());
  EXPECT_EQ(engine.events_ingested(), 1000u);
  for (size_t i = 1000; i < stream.events.size(); ++i) {
    ASSERT_TRUE(engine.Push(Rebind(&engine, stream.events[i])).ok());
  }
  engine.Finish();
}

}  // namespace
}  // namespace cepr
