// CeprServer integration suite. The invariants under test:
//
//  * a query deployed over TCP produces ranked output BIT-identical to an
//    in-process engine run (scores compared as exact doubles, ranks, window
//    ids, tie order, rows) — on the serial and the sharded engine;
//  * kill the server mid-stream (no final checkpoint), restart it on the
//    same snapshot + WAL directory, and the recovered subscriber's output
//    continues bit-identically — with checkpoints cut by the background
//    timer at nondeterministic points, the accounting (kSubscribe's `prior`
//    + buffered replay tail + live results) must cover the reference run
//    exactly, wherever the last cut landed;
//  * protocol robustness: torn frames, garbage bytes and malformed bodies
//    produce clean error replies or session closes — never a crash, and a
//    poisoned session never takes the server down.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/client.h"
#include "net/server.h"
#include "net/session.h"
#include "runtime/engine.h"
#include "runtime/serde.h"
#include "testing/helpers.h"
#include "workload/stock.h"

namespace cepr {
namespace net {
namespace {

constexpr char kStockDdl[] =
    "CREATE STREAM Stock (symbol STRING, price FLOAT RANGE [1, 1000], "
    "volume INT RANGE [1, 10000])";

constexpr char kStockQuery[] =
    "SELECT a.symbol, a.price, MIN(b.price), c.price "
    "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
    "PARTITION BY symbol "
    "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
    "  AND c.price > a.price "
    "WITHIN 100 MILLISECONDS "
    "RANK BY (a.price - MIN(b.price)) / a.price DESC "
    "LIMIT 10 EMIT ON WINDOW CLOSE";

std::vector<Event> StockEvents(size_t n) {
  StockOptions options;
  options.num_symbols = 6;
  options.v_probability = 0.03;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  return gen.Take(n);
}

/// Schema-less copy for the wire: the server re-binds the schema from the
/// session's stream binding (same convention as WAL event records).
Event WireEvent(const Event& e) {
  Event out(SchemaPtr{}, e.timestamp(), e.values());
  out.set_type_tag(e.type_tag());
  return out;
}

/// Uninterrupted in-process run: the bit-identity reference.
std::vector<RankedResult> RunReference(const std::vector<Event>& events) {
  Engine engine;
  EXPECT_TRUE(engine.ExecuteDdl(kStockDdl).ok());
  const SchemaPtr schema = engine.GetSchema("Stock").value();
  CollectSink sink;
  QueryOptions options;
  options.ranker = RankerPolicy::kPruned;
  EXPECT_TRUE(engine.RegisterQuery("q", kStockQuery, options, &sink).ok());
  for (const Event& e : events) {
    Event bound(schema, e.timestamp(), e.values());
    bound.set_type_tag(e.type_tag());
    EXPECT_TRUE(engine.Push(std::move(bound)).ok());
  }
  engine.Finish();
  return sink.results();
}

/// Asserts wire[i] == reference[offset + i], field by field, scores as
/// exact bit patterns.
void ExpectResultsMatch(const std::vector<WireResult>& wire,
                        const std::vector<RankedResult>& reference,
                        size_t offset) {
  ASSERT_LE(offset + wire.size(), reference.size());
  for (size_t i = 0; i < wire.size(); ++i) {
    const RankedResult& ref = reference[offset + i];
    EXPECT_EQ(wire[i].query, "q") << "@" << i;
    EXPECT_EQ(wire[i].window_id, ref.window_id) << "@" << i;
    EXPECT_EQ(wire[i].rank, ref.rank) << "@" << i;
    EXPECT_EQ(wire[i].provisional, ref.provisional) << "@" << i;
    EXPECT_EQ(wire[i].score, ref.match.score) << "@" << i;
    EXPECT_EQ(wire[i].first_ts, ref.match.first_ts) << "@" << i;
    EXPECT_EQ(wire[i].last_ts, ref.match.last_ts) << "@" << i;
    EXPECT_EQ(wire[i].last_sequence, ref.match.last_sequence) << "@" << i;
    EXPECT_EQ(wire[i].row, ref.match.row) << "@" << i;
  }
}

QueryOptions PrunedOptions() {
  QueryOptions options;
  options.ranker = RankerPolicy::kPruned;
  return options;
}

std::string FreshDataDir() {
  const std::string dir = ::cepr::testing::TestTempPath("data");
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/snapshot.ckpt").c_str());
  std::remove((dir + "/snapshot.ckpt.tmp").c_str());
  std::remove((dir + "/wal.log").c_str());
  return dir;
}

// --- Wire bit-identity ------------------------------------------------------

TEST(ServerTest, RankedOutputOverTcpIsBitIdenticalToInProcess) {
  const std::vector<Event> events = StockEvents(4000);
  const std::vector<RankedResult> reference = RunReference(events);
  ASSERT_FALSE(reference.empty()) << "workload produced no results; weak test";

  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ddl(kStockDdl).ok());
  ASSERT_TRUE(client.Deploy("q", kStockQuery, PrunedOptions()).ok());
  auto binding = client.BindStream("Stock");
  ASSERT_TRUE(binding.ok()) << binding.status().ToString();

  // Mix single-event and batched ingest: both paths must land identically.
  size_t i = 0;
  for (; i < events.size() / 2; ++i) {
    ASSERT_TRUE(client.Push(binding.value(), WireEvent(events[i])).ok());
  }
  std::vector<Event> batch;
  for (; i < events.size(); ++i) batch.push_back(WireEvent(events[i]));
  ASSERT_TRUE(client.PushBatch(binding.value(), batch).ok());
  ASSERT_TRUE(client.Flush().ok());
  ASSERT_TRUE(client.Finish().ok());

  const auto& wire = client.results("q");
  ASSERT_EQ(wire.size(), reference.size());
  ExpectResultsMatch(wire, reference, 0);
  server.Stop();
}

TEST(ServerTest, ShardedServerMatchesSerialReference) {
  const std::vector<Event> events = StockEvents(4000);
  const std::vector<RankedResult> reference = RunReference(events);
  ASSERT_FALSE(reference.empty());

  ServerOptions options;
  options.num_shards = 2;
  CeprServer server(options);
  ASSERT_TRUE(server.Start().ok());
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ddl(kStockDdl).ok());
  // Sharded restriction: queries deploy before the first event.
  ASSERT_TRUE(client.Deploy("q", kStockQuery, PrunedOptions()).ok());
  auto binding = client.BindStream("Stock");
  ASSERT_TRUE(binding.ok());
  std::vector<Event> batch;
  for (const Event& e : events) batch.push_back(WireEvent(e));
  ASSERT_TRUE(client.PushBatch(binding.value(), batch).ok());
  ASSERT_TRUE(client.Finish().ok());

  // Serial/sharded ranked equivalence holds over the wire too.
  const auto& wire = client.results("q");
  ASSERT_EQ(wire.size(), reference.size());
  ExpectResultsMatch(wire, reference, 0);

  // Hot remove is a serial-engine feature; the sharded server refuses it
  // with a diagnosable code instead of half-applying.
  EXPECT_EQ(client.Undeploy("q").code(), StatusCode::kUnimplemented);
  server.Stop();
}

TEST(ServerTest, MetricsEndpointCountsIngest) {
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ddl(kStockDdl).ok());
  auto binding = client.BindStream("Stock");
  ASSERT_TRUE(binding.ok());
  const std::vector<Event> events = StockEvents(100);
  for (const Event& e : events) {
    ASSERT_TRUE(client.Push(binding.value(), WireEvent(e)).ok());
  }
  auto json = client.MetricsJson();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json.value().find("\"events_ingested\":100"), std::string::npos)
      << json.value();
  server.Stop();
}

TEST(ServerTest, HotDeployMidStreamSeesOnlyLaterEvents) {
  // Deploy over the wire while the stream is live: the second query joins
  // mid-stream and must equal a reference that started at the same point.
  const std::vector<Event> events = StockEvents(4000);

  Engine ref_engine;
  ASSERT_TRUE(ref_engine.ExecuteDdl(kStockDdl).ok());
  const SchemaPtr ref_schema = ref_engine.GetSchema("Stock").value();
  CollectSink ref_early;
  CollectSink ref_late;
  ASSERT_TRUE(
      ref_engine.RegisterQuery("q", kStockQuery, PrunedOptions(), &ref_early)
          .ok());
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == events.size() / 2) {
      ASSERT_TRUE(ref_engine
                      .RegisterQuery("late", kStockQuery, PrunedOptions(),
                                     &ref_late)
                      .ok());
    }
    Event bound(ref_schema, events[i].timestamp(), events[i].values());
    bound.set_type_tag(events[i].type_tag());
    ASSERT_TRUE(ref_engine.Push(std::move(bound)).ok());
  }
  ref_engine.Finish();
  ASSERT_FALSE(ref_late.results().empty());

  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ddl(kStockDdl).ok());
  ASSERT_TRUE(client.Deploy("q", kStockQuery, PrunedOptions()).ok());
  auto binding = client.BindStream("Stock");
  ASSERT_TRUE(binding.ok());
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == events.size() / 2) {
      ASSERT_TRUE(client.Deploy("late", kStockQuery, PrunedOptions()).ok());
    }
    ASSERT_TRUE(client.Push(binding.value(), WireEvent(events[i])).ok());
  }
  ASSERT_TRUE(client.Finish().ok());

  ASSERT_EQ(client.results("late").size(), ref_late.results().size());
  for (size_t i = 0; i < ref_late.results().size(); ++i) {
    EXPECT_EQ(client.results("late")[i].score,
              ref_late.results()[i].match.score)
        << "@" << i;
    EXPECT_EQ(client.results("late")[i].row, ref_late.results()[i].match.row)
        << "@" << i;
  }
  server.Stop();
}

TEST(ServerTest, RedeployAfterUndeployStartsFromAFreshChannel) {
  // Undeploy drops the query's result channel: a redeploy under the same
  // name neither inherits the old channel's `seen` count (Subscribe's
  // `prior` would underflow) nor receives the removed query's buffered
  // frames.
  const std::vector<Event> events = StockEvents(4000);
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  {
    CeprClient first;
    ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(first.Ddl(kStockDdl).ok());
    ASSERT_TRUE(first.Deploy("q", kStockQuery, PrunedOptions()).ok());
    auto binding = first.BindStream("Stock");
    ASSERT_TRUE(binding.ok());
    for (size_t i = 0; i < events.size() / 2; ++i) {
      ASSERT_TRUE(first.Push(binding.value(), WireEvent(events[i])).ok());
    }
    ASSERT_FALSE(first.results("q").empty()) << "no results; weak test";
    first.Close();
  }
  // With the deploying session gone, these results buffer in the channel.
  CeprClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()).ok());
  auto binding = second.BindStream("Stock");
  ASSERT_TRUE(binding.ok());
  for (size_t i = events.size() / 2; i < events.size(); ++i) {
    ASSERT_TRUE(second.Push(binding.value(), WireEvent(events[i])).ok());
  }
  ASSERT_TRUE(second.Undeploy("q").ok());
  ASSERT_TRUE(second.Deploy("q", kStockQuery, PrunedOptions()).ok());
  ASSERT_TRUE(second.PollResults(100).ok());
  EXPECT_TRUE(second.results("q").empty());

  CeprClient third;
  ASSERT_TRUE(third.Connect("127.0.0.1", server.port()).ok());
  auto prior = third.Subscribe("q");
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  EXPECT_EQ(prior.value(), 0u);
  ASSERT_TRUE(third.PollResults(100).ok());
  EXPECT_TRUE(third.results("q").empty());
  server.Stop();
}

TEST(ServerTest, RebindingAStreamReturnsTheSameId) {
  // Bindings are per stream, not per request: a client that rebinds in a
  // loop cannot grow the session's binding table.
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ddl(kStockDdl).ok());
  ASSERT_TRUE(client.Ddl("CREATE STREAM Other (x INT)").ok());
  auto first = client.BindStream("Stock");
  auto again = client.BindStream("Stock");
  auto other = client.BindStream("Other");
  ASSERT_TRUE(first.ok() && again.ok() && other.ok());
  EXPECT_EQ(first.value(), again.value());
  EXPECT_NE(other.value(), first.value());
  for (const Event& e : StockEvents(10)) {
    ASSERT_TRUE(client.Push(again.value(), WireEvent(e)).ok());
  }
  server.Stop();
}

// --- Frame order and round-trip cost ----------------------------------------

/// One result per event, released when the stream passes the event's 10 ms
/// window: every batch that enters a new window gets the previous window's
/// results, ranked, before its reply.
constexpr char kWindowQuery[] =
    "SELECT a.symbol, a.price FROM Stock MATCH PATTERN SEQ(a) "
    "WITHIN 10 MILLISECONDS RANK BY a.price DESC LIMIT 100000 "
    "EMIT ON WINDOW CLOSE";

/// `n` Stock events inside tumbling window `window` (10 ms windows).
std::vector<Event> WindowEvents(int64_t window, size_t n, Random* rng) {
  std::vector<Event> events;
  for (size_t i = 0; i < n; ++i) {
    events.emplace_back(
        SchemaPtr{}, window * 10000 + static_cast<int64_t>(i),
        std::vector<Value>{Value::String("S" + std::to_string(i % 5)),
                           Value::Float(rng->UniformDouble(1, 1000)),
                           Value::Int(1)});
  }
  return events;
}

/// In-process run over the same batches: every result in emission order,
/// and the running result count after each batch.
std::vector<RankedResult> RunBatchedReference(
    const std::vector<std::vector<Event>>& batches,
    std::vector<size_t>* counts) {
  Engine engine;
  EXPECT_TRUE(engine.ExecuteDdl(kStockDdl).ok());
  const SchemaPtr schema = engine.GetSchema("Stock").value();
  CollectSink sink;
  EXPECT_TRUE(
      engine.RegisterQuery("q", kWindowQuery, PrunedOptions(), &sink).ok());
  for (const std::vector<Event>& batch : batches) {
    std::vector<Event> bound;
    for (const Event& e : batch) bound.emplace_back(schema, e.timestamp(), e.values());
    EXPECT_TRUE(engine.PushAll(std::move(bound)).ok());
    counts->push_back(sink.results().size());
  }
  return sink.results();
}

TEST(ServerTest, ResultBearingRoundTripsDoNotStall) {
  // Each request's result frames and its reply are small writes in a row.
  // A server socket left to Nagle's algorithm holds the reply back until the
  // client's delayed ACK (tens of ms per call); this many calls would then
  // take several seconds.
  constexpr int kCalls = 200;
  Random rng(7);
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ddl(kStockDdl).ok());
  ASSERT_TRUE(client.Deploy("q", kWindowQuery, PrunedOptions()).ok());
  auto binding = client.BindStream("Stock");
  ASSERT_TRUE(binding.ok());
  ASSERT_TRUE(
      client.PushBatch(binding.value(), WindowEvents(0, 2, &rng)).ok());

  const auto start = std::chrono::steady_clock::now();
  for (int call = 1; call <= kCalls; ++call) {
    ASSERT_TRUE(
        client.PushBatch(binding.value(), WindowEvents(call, 2, &rng)).ok());
    // The window this batch closed came back with the reply.
    ASSERT_EQ(client.results("q").size(), 2u * static_cast<size_t>(call));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << kCalls << " result-bearing round trips took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms";
  server.Stop();
}

TEST(ServerTest, ResultsPrecedeReplyInEmissionOrder) {
  // One batch per window; each batch closes the window before it. Until
  // the handover the pushing session is the query's subscriber, after it a
  // second session is. Windows 5 and 20 hold so many events that the batch
  // closing each carries several times the per-session flush bound
  // (kSessionFlushBytes) in result frames — once to the pusher, once to the
  // subscriber.
  constexpr int64_t kBigWindows[] = {5, 20};
  constexpr size_t kBigEvents = 3000;  // ~90 bytes per result frame
  constexpr int64_t kHandover = 12;
  constexpr int64_t kWindows = 24;
  Random rng(11);
  std::vector<std::vector<Event>> batches;
  for (int64_t w = 0; w < kWindows; ++w) {
    const bool big = w == kBigWindows[0] || w == kBigWindows[1];
    batches.push_back(WindowEvents(w, big ? kBigEvents : 3, &rng));
  }
  std::vector<size_t> counts;
  const std::vector<RankedResult> reference =
      RunBatchedReference(batches, &counts);
  for (int64_t w : kBigWindows) {
    ASSERT_GT(counts[w + 1] - counts[w], kSessionFlushBytes / 64)
        << "window " << w << " must overflow the flush bound; weak test";
  }

  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  CeprClient pusher;
  ASSERT_TRUE(pusher.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(pusher.Ddl(kStockDdl).ok());
  ASSERT_TRUE(pusher.Deploy("q", kWindowQuery, PrunedOptions()).ok());
  auto binding = pusher.BindStream("Stock");
  ASSERT_TRUE(binding.ok());
  CeprClient watcher;
  ASSERT_TRUE(watcher.Connect("127.0.0.1", server.port()).ok());

  for (int64_t w = 0; w < kWindows; ++w) {
    if (w == kHandover) {
      auto prior = watcher.Subscribe("q");
      ASSERT_TRUE(prior.ok()) << prior.status().ToString();
      EXPECT_EQ(prior.value(), 0u);
    }
    ASSERT_TRUE(pusher.PushBatch(binding.value(), batches[w]).ok());
    if (w < kHandover) {
      // The pushing session holds every result its request caused as soon
      // as the reply is in: each kResult frame came first.
      ASSERT_EQ(pusher.results("q").size(), counts[w]) << "batch " << w;
    } else {
      // The subscriber's frames were on the wire before the pusher's reply,
      // so they precede the reply to any request it sends afterwards.
      ASSERT_TRUE(watcher.MetricsJson().ok());
      ASSERT_EQ(watcher.results("q").size(), counts[w] - counts[kHandover - 1])
          << "batch " << w;
      ASSERT_EQ(pusher.results("q").size(), counts[kHandover - 1]);
    }
  }

  // Together, in emission order, bit for bit.
  std::vector<WireResult> wire = pusher.TakeResults("q");
  for (WireResult& r : watcher.TakeResults("q")) wire.push_back(std::move(r));
  ASSERT_EQ(wire.size(), counts.back());
  for (size_t i = 0; i < wire.size(); ++i) {
    const RankedResult& ref = reference[i];
    ASSERT_EQ(wire[i].window_id, ref.window_id) << "@" << i;
    ASSERT_EQ(wire[i].rank, ref.rank) << "@" << i;
    ASSERT_EQ(wire[i].score, ref.match.score) << "@" << i;
    ASSERT_EQ(wire[i].last_sequence, ref.match.last_sequence) << "@" << i;
    ASSERT_EQ(wire[i].row, ref.match.row) << "@" << i;
  }
  server.Stop();
}

// --- Kill and restart -------------------------------------------------------

// Shared body: kill the serving process at arrival `kill_at`, restart on
// the same data_dir, reconnect, finish the stream, and require exact
// coverage of the reference whatever checkpoint cadence was active.
void RunKillRestart(ServerOptions base_options,
                    bool explicit_midstream_checkpoint) {
  const std::vector<Event> events = StockEvents(4000);
  const size_t kill_at = 2500;
  const std::vector<RankedResult> reference = RunReference(events);
  ASSERT_FALSE(reference.empty());

  base_options.data_dir = FreshDataDir();

  // --- Life 1: the doomed server. ---
  auto server1 = std::make_unique<CeprServer>(base_options);
  ASSERT_TRUE(server1->Start().ok());
  size_t delivered_before_crash = 0;
  {
    CeprClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server1->port()).ok());
    ASSERT_TRUE(client.Ddl(kStockDdl).ok());
    ASSERT_TRUE(client.Deploy("q", kStockQuery, PrunedOptions()).ok());
    auto binding = client.BindStream("Stock");
    ASSERT_TRUE(binding.ok());
    for (size_t i = 0; i < kill_at; ++i) {
      ASSERT_TRUE(client.Push(binding.value(), WireEvent(events[i])).ok());
      if (explicit_midstream_checkpoint && i == kill_at / 2) {
        ASSERT_TRUE(client.TriggerCheckpoint().ok());
      }
    }
    // The deploying session was auto-subscribed: it holds every result the
    // first kill_at events produced, a strict prefix of the reference.
    delivered_before_crash = client.results("q").size();
    ExpectResultsMatch(client.results("q"), reference, 0);
    server1->CrashStop();  // no final checkpoint, no WAL sync
  }
  server1.reset();

  // --- Life 2: restart on the same snapshot + WAL directory. ---
  CeprServer server2(base_options);
  const Status restarted = server2.Start();
  ASSERT_TRUE(restarted.ok()) << restarted.ToString();
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server2.port()).ok());
  auto prior = client.Subscribe("q");
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  // Everything after the last published cut was regenerated by WAL replay
  // and buffered in the channel; Subscribe flushed it to us. `prior` is
  // the cut position — however many timer checkpoints landed, the split
  // must be exact.
  ASSERT_TRUE(client.PollResults(200).ok());
  ASSERT_LE(prior.value(), delivered_before_crash);
  EXPECT_EQ(prior.value() + client.results("q").size(), delivered_before_crash);
  ExpectResultsMatch(client.results("q"), reference,
                     static_cast<size_t>(prior.value()));

  auto binding = client.BindStream("Stock");
  ASSERT_TRUE(binding.ok());
  for (size_t i = kill_at; i < events.size(); ++i) {
    ASSERT_TRUE(client.Push(binding.value(), WireEvent(events[i])).ok());
  }
  ASSERT_TRUE(client.Finish().ok());

  // prior + everything this session received == the uninterrupted run.
  EXPECT_EQ(prior.value() + client.results("q").size(), reference.size());
  ExpectResultsMatch(client.results("q"), reference,
                     static_cast<size_t>(prior.value()));
  server2.Stop();
}

TEST(ServerRecoveryTest, KillRestartWithTimerCheckpoints) {
  ServerOptions options;
  options.checkpoint_interval_ms = 20;  // cuts land wherever the timer fires
  RunKillRestart(options, false);
}

TEST(ServerRecoveryTest, KillRestartWithExplicitCheckpoint) {
  ServerOptions options;  // no timer: exactly checkpoint 0 + the forced cut
  RunKillRestart(options, true);
}

TEST(ServerRecoveryTest, ShardedKillRestart) {
  const std::vector<Event> events = StockEvents(3000);
  const size_t kill_at = 2000;
  const std::vector<RankedResult> reference = RunReference(events);
  ASSERT_FALSE(reference.empty());

  ServerOptions options;
  options.num_shards = 2;
  options.data_dir = FreshDataDir();

  auto server1 = std::make_unique<CeprServer>(options);
  ASSERT_TRUE(server1->Start().ok());
  size_t delivered_before_crash = 0;
  {
    CeprClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server1->port()).ok());
    ASSERT_TRUE(client.Ddl(kStockDdl).ok());
    ASSERT_TRUE(client.Deploy("q", kStockQuery, PrunedOptions()).ok());
    // Sharded deploys must precede the first event; checkpoint here so the
    // snapshot carries the registration and replay is events-only.
    ASSERT_TRUE(client.TriggerCheckpoint().ok());
    auto binding = client.BindStream("Stock");
    ASSERT_TRUE(binding.ok());
    for (size_t i = 0; i < kill_at; ++i) {
      ASSERT_TRUE(client.Push(binding.value(), WireEvent(events[i])).ok());
      if (i == 1200) {
        ASSERT_TRUE(client.TriggerCheckpoint().ok());
      }
    }
    delivered_before_crash = client.results("q").size();
    ExpectResultsMatch(client.results("q"), reference, 0);
    server1->CrashStop();
  }
  server1.reset();

  CeprServer server2(options);
  ASSERT_TRUE(server2.Start().ok());
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server2.port()).ok());
  auto prior = client.Subscribe("q");
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_TRUE(client.PollResults(200).ok());
  // Sharded delivery lags pushes (windows merge opportunistically on later
  // Push calls), so the pre-crash sample is only a lower bound: `prior` is
  // the result count at the quiesced checkpoint cut, which every delivery
  // after the cut happened no earlier than.
  EXPECT_LE(prior.value(), delivered_before_crash);
  auto binding = client.BindStream("Stock");
  ASSERT_TRUE(binding.ok());
  for (size_t i = kill_at; i < events.size(); ++i) {
    ASSERT_TRUE(client.Push(binding.value(), WireEvent(events[i])).ok());
  }
  ASSERT_TRUE(client.Finish().ok());
  EXPECT_EQ(prior.value() + client.results("q").size(), reference.size());
  ExpectResultsMatch(client.results("q"), reference,
                     static_cast<size_t>(prior.value()));
  server2.Stop();
}

// --- Protocol robustness ----------------------------------------------------

/// Raw TCP socket speaking whatever bytes the test wants.
struct RawConn {
  int fd = -1;
  explicit RawConn(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  void Send(const std::string& bytes) {
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
};

std::string HelloPayload() {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kHello));
  w.U32(kProtocolVersion);
  return w.Take();
}

/// The server still accepts and serves a well-behaved client.
void ExpectServerAlive(CeprServer* server) {
  CeprClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server->port()).ok());
  auto json = probe.MetricsJson();
  EXPECT_TRUE(json.ok()) << json.status().ToString();
}

TEST(ServerRobustnessTest, GarbageBytesNeverKillTheServer) {
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Random rng(0xBADF00D);
  for (int i = 0; i < 50; ++i) {
    RawConn conn(server.port());
    ASSERT_GE(conn.fd, 0);
    const size_t n = 1 + rng.Uniform(256);
    std::string junk(n, '\0');
    for (char& c : junk) c = static_cast<char>(rng.Uniform(256));
    conn.Send(junk);
    // Half the time slam the connection shut mid-stream, half the time let
    // the server answer (it sends a corrupt-frame diagnostic, then closes).
    if (i % 2 == 0) {
      std::string reply;
      (void)ReadFrame(conn.fd, &reply);
    }
  }
  ExpectServerAlive(&server);
  server.Stop();
}

TEST(ServerRobustnessTest, TornFrameGetsCorruptReplyAndClose) {
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RawConn conn(server.port());
  ASSERT_GE(conn.fd, 0);
  ASSERT_TRUE(WriteFrame(conn.fd, HelloPayload()).ok());
  std::string reply;
  ASSERT_TRUE(ReadFrame(conn.fd, &reply).ok());  // hello's OK reply

  // A frame header promising 1000 bytes, then silence and close: the
  // server must answer with a corrupt-frame diagnostic and drop us.
  BinWriter w;
  w.U32(1000);
  w.U32(0);
  conn.Send(w.Take());
  ::shutdown(conn.fd, SHUT_WR);
  const Status s = ReadFrame(conn.fd, &reply);
  if (s.ok()) {
    BinReader r(reply);
    uint8_t type = 0;
    uint8_t code = 0;
    std::string message;
    std::string payload;
    ASSERT_TRUE(r.U8(&type));
    ASSERT_TRUE(DecodeReplyBody(&r, &code, &message, &payload));
    EXPECT_EQ(static_cast<StatusCode>(code), StatusCode::kCorrupt) << message;
  }
  ExpectServerAlive(&server);
  server.Stop();
}

TEST(ServerRobustnessTest, MalformedBodiesAreInBandErrorsSessionSurvives) {
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RawConn conn(server.port());
  ASSERT_GE(conn.fd, 0);
  ASSERT_TRUE(WriteFrame(conn.fd, HelloPayload()).ok());
  std::string reply;
  ASSERT_TRUE(ReadFrame(conn.fd, &reply).ok());

  const auto roundtrip = [&](const std::string& payload) -> StatusCode {
    EXPECT_TRUE(WriteFrame(conn.fd, payload).ok());
    std::string frame;
    EXPECT_TRUE(ReadFrame(conn.fd, &frame).ok());
    BinReader r(frame);
    uint8_t type = 0;
    uint8_t code = 0;
    std::string message;
    std::string body;
    EXPECT_TRUE(r.U8(&type) && DecodeReplyBody(&r, &code, &message, &body));
    return static_cast<StatusCode>(code);
  };

  {  // kDdl with a truncated string header
    BinWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kDdl));
    w.U8(0xFF);
    EXPECT_EQ(roundtrip(w.Take()), StatusCode::kCorrupt);
  }
  {  // unknown message type
    BinWriter w;
    w.U8(0x7F);
    EXPECT_EQ(roundtrip(w.Take()), StatusCode::kUnimplemented);
  }
  {  // kEvent against a binding that was never made
    BinWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kEvent));
    w.U32(42);
    EXPECT_EQ(roundtrip(w.Take()), StatusCode::kInvalidArgument);
  }
  {  // trailing junk after a valid kFlush body
    BinWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kFlush));
    w.U32(123);
    EXPECT_EQ(roundtrip(w.Take()), StatusCode::kInvalidArgument);
  }
  {  // a server->client type bounced back
    BinWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kResult));
    EXPECT_EQ(roundtrip(w.Take()), StatusCode::kInvalidArgument);
  }
  // After five malformed bodies the same session still serves real work.
  {
    BinWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kMetrics));
    EXPECT_EQ(roundtrip(w.Take()), StatusCode::kOk);
  }
  server.Stop();
}

TEST(ServerRobustnessTest, BatchesIngestWholeOrUpToTheirFailure) {
  // The server decodes and pushes a batch kIngestChunkEvents at a time. A
  // body that fails to decode anywhere must still ingest nothing (and a
  // value count the body cannot hold must not be allocated for), and an
  // engine failure keeps the prefix before it and names its position in
  // the whole batch.
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ddl(kStockDdl).ok());
  auto binding = client.BindStream("Stock");
  ASSERT_TRUE(binding.ok());
  std::vector<Event> batch;
  for (const Event& e : StockEvents(600)) batch.push_back(WireEvent(e));
  const auto ingested = [&] {
    auto json = client.MetricsJson();
    EXPECT_TRUE(json.ok());
    return json.ok() ? json.value() : std::string();
  };

  RawConn conn(server.port());
  ASSERT_GE(conn.fd, 0);
  const auto request = [&](const std::string& payload) -> StatusCode {
    EXPECT_TRUE(WriteFrame(conn.fd, payload).ok());
    std::string reply;
    EXPECT_TRUE(ReadFrame(conn.fd, &reply).ok());
    BinReader r(reply);
    uint8_t type = 0;
    uint8_t code = 0;
    std::string message;
    std::string body;
    EXPECT_TRUE(r.U8(&type) && DecodeReplyBody(&r, &code, &message, &body));
    return static_cast<StatusCode>(code);
  };
  ASSERT_EQ(request(HelloPayload()), StatusCode::kOk);
  BinWriter bind;
  bind.U8(static_cast<uint8_t>(MsgType::kBindStream));
  bind.Str("Stock");
  ASSERT_EQ(request(bind.Take()), StatusCode::kOk);  // binding 0
  const auto batch_payload = [&](uint32_t n) {
    BinWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kEventBatch));
    w.U32(0);
    w.U32(n);
    return w;
  };
  {  // the last event's body cut short: rejected whole
    BinWriter w = batch_payload(static_cast<uint32_t>(batch.size()));
    for (const Event& e : batch) SaveEventBody(&w, e);
    std::string payload = w.Take();
    payload.resize(payload.size() - 3);
    EXPECT_EQ(request(payload), StatusCode::kCorrupt);
  }
  {  // an event claiming 2^32 - 1 values in a 30-byte body: no allocation
    BinWriter w = batch_payload(1);
    w.I64(0);
    w.U64(0);
    w.Str("");
    w.U32(0xFFFFFFFFu);
    EXPECT_EQ(request(w.Take()), StatusCode::kCorrupt);
  }
  EXPECT_NE(ingested().find("\"events_ingested\":0,"), std::string::npos);

  // Event 300 goes back in time: the engine rejects it in the second chunk.
  batch[300] = Event(SchemaPtr{}, batch[299].timestamp() - 500,
                     batch[300].values());
  const Status s = client.PushBatch(binding.value(), batch);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("index 300 of 600 failed (prefix [0, 300) "
                             "already ingested)"),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(ingested().find("\"events_ingested\":300,"), std::string::npos)
      << ingested();
  server.Stop();
}

TEST(ServerRobustnessTest, ProtocolVersionAndHelloAreEnforced) {
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  {  // wrong version
    RawConn conn(server.port());
    ASSERT_GE(conn.fd, 0);
    BinWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kHello));
    w.U32(999);
    ASSERT_TRUE(WriteFrame(conn.fd, w.Take()).ok());
    std::string frame;
    ASSERT_TRUE(ReadFrame(conn.fd, &frame).ok());
    BinReader r(frame);
    uint8_t type = 0;
    uint8_t code = 0;
    std::string message;
    std::string body;
    ASSERT_TRUE(r.U8(&type) && DecodeReplyBody(&r, &code, &message, &body));
    EXPECT_EQ(static_cast<StatusCode>(code), StatusCode::kInvalidArgument);
    EXPECT_NE(message.find("version"), std::string::npos) << message;
  }
  {  // request before hello
    RawConn conn(server.port());
    ASSERT_GE(conn.fd, 0);
    BinWriter w;
    w.U8(static_cast<uint8_t>(MsgType::kMetrics));
    ASSERT_TRUE(WriteFrame(conn.fd, w.Take()).ok());
    std::string frame;
    ASSERT_TRUE(ReadFrame(conn.fd, &frame).ok());
    BinReader r(frame);
    uint8_t type = 0;
    uint8_t code = 0;
    std::string message;
    std::string body;
    ASSERT_TRUE(r.U8(&type) && DecodeReplyBody(&r, &code, &message, &body));
    EXPECT_EQ(static_cast<StatusCode>(code), StatusCode::kInvalidArgument);
    EXPECT_NE(message.find("kHello"), std::string::npos) << message;
  }
  server.Stop();
}

TEST(ServerRobustnessTest, EngineErrorsSurfaceWithTheirCodes) {
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.BindStream("NoSuchStream").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.Subscribe("nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(client.Ddl(kStockDdl).ok());
  EXPECT_EQ(client.Ddl(kStockDdl).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(client.Deploy("bad", "SELECT FROM WHERE", QueryOptions{}).code(),
            StatusCode::kParseError);
  EXPECT_EQ(client.Undeploy("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(client.TriggerCheckpoint().code(), StatusCode::kInvalidArgument)
      << "no data_dir on this server";
  server.Stop();
}

// A kDeploy frame carrying hostile query text (5,000 nested levels, ~50 KB)
// reached the parser while the server held its engine lock, and used to
// overflow the stack of the whole process. It is now an in-band parse
// error, and the same session goes on to deploy and serve a normal query.
TEST(ServerRobustnessTest, DeepQueryTextIsAnInBandErrorSessionSurvives) {
  CeprServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  CeprClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ddl(kStockDdl).ok());

  std::string deep = "SELECT ";
  for (int i = 0; i < 5000; ++i) deep += "1 + (";
  deep += "1" + std::string(5000, ')') + " FROM Stock MATCH PATTERN SEQ(a)";
  const Status st = client.Deploy("deep", deep, PrunedOptions());
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  EXPECT_NE(st.message().find("nested deeper than"), std::string::npos)
      << st.ToString();

  const std::vector<Event> events = StockEvents(2000);
  const std::vector<RankedResult> reference = RunReference(events);
  ASSERT_FALSE(reference.empty());
  ASSERT_TRUE(client.Deploy("q", kStockQuery, PrunedOptions()).ok());
  auto binding = client.BindStream("Stock");
  ASSERT_TRUE(binding.ok()) << binding.status().ToString();
  std::vector<Event> batch;
  for (const Event& e : events) batch.push_back(WireEvent(e));
  ASSERT_TRUE(client.PushBatch(binding.value(), batch).ok());
  ASSERT_TRUE(client.Finish().ok());
  ASSERT_EQ(client.results("q").size(), reference.size());
  ExpectResultsMatch(client.results("q"), reference, 0);
  ExpectServerAlive(&server);
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace cepr
