#include "workloads.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/window.h"
#include "json.h"
#include "lang/analyzer.h"
#include "lang/parser.h"
#include "net/client.h"
#include "net/server.h"
#include "plan/compiler.h"
#include "runtime/engine.h"
#include "workload/forkheavy.h"
#include "workload/stock.h"

namespace cepr {
namespace perfbench {
namespace {

/// Events per kEventBatch frame on the wire.
constexpr size_t kWireFrameEvents = 4096;
/// About one in this many in-process Push calls gets a span in the traced
/// run; results get an OnResult span only inside a recorded span.
constexpr size_t kPushSampleEvery = 8;
/// A closed-loop pass is timed in chunks of about this many events (at
/// least one ingest unit each).
constexpr size_t kChunkEvents = 1000;
/// Set-ups timed on their own in each round of passes, beside each pass's
/// own: a set-up is short and rests on thread wake-ups, which the host's
/// neighbours delay, so it needs many samples for its best to meet a quiet
/// moment.
constexpr size_t kExtraSetups = 8;
/// Spans written per trace file; all of them are kept for the metrics.
constexpr size_t kMaxSpansWritten = 65536;
/// Every kind of pass runs at least this many times, however short the run.
constexpr size_t kMinPasses = 5;

/// Whether the traced run records a span for Push call `unit`. The choice
/// hashes the index instead of taking a fixed stride: the streams close a
/// window every so many events, and a stride sharing a factor with that
/// period would over- or under-sample the expensive pushes.
bool SamplePush(size_t unit) {
  uint64_t x = static_cast<uint64_t>(unit) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return (x ^ (x >> 31)) % kPushSampleEvery == 0;
}

// -- Workload definitions -------------------------------------------------------

struct QueryDef {
  std::string name;
  std::string text;
  QueryOptions options;
};

enum class Backend { kSerial, kWireSharded };

struct WorkloadSpec {
  std::string name;
  Backend backend = Backend::kSerial;
  SchemaPtr schema;
  /// The stream's CREATE STREAM text, sent by the wire client.
  std::string ddl;
  std::vector<QueryDef> queries;
  std::vector<Event> (*generate)(uint64_t seed, size_t n) = nullptr;
  /// Events in one pass, closed or open loop (the timed stream).
  size_t pass_events = 0;
  /// Events replayed through the reference configuration before timing.
  size_t check_events = 0;
  /// Fixed open-loop send rate, about a quarter of the closed-loop
  /// throughput: at half, the host's slow phases saturated the engine and
  /// the latency tail measured the host instead of the engine.
  double open_rate_eps = 0;
};

const char kStockDdl[] =
    "CREATE STREAM Stock (symbol STRING, price FLOAT RANGE [1, 1000], "
    "volume INT RANGE [1, 10000])";

std::vector<Event> StockStream(uint64_t seed, size_t n) {
  StockOptions options;
  options.base.seed = seed;
  options.num_symbols = 10;
  options.v_probability = 0.01;
  return StockGenerator(options).Take(n);
}

std::vector<Event> ForkStream(uint64_t seed, size_t n) {
  ForkHeavyOptions options;
  options.base.seed = seed;
  options.num_streams = 1;
  options.anchor_probability = 0.1;
  return ForkHeavyGenerator(options).Take(n);
}

// The paper's canonical dip-and-recovery query, ranked by relative depth.
QueryDef DipQuery() {
  QueryDef q;
  q.name = "q";
  q.text =
      "SELECT a.symbol, a.price, MIN(b.price), c.price "
      "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
      "USING SKIP_TILL_NEXT_MATCH PARTITION BY symbol "
      "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
      "AND c.price > a.price "
      "WITHIN 100 MILLISECONDS "
      "RANK BY (a.price - MIN(b.price)) / a.price DESC "
      "LIMIT 10 EMIT ON WINDOW CLOSE";
  q.options.ranker = RankerPolicy::kPruned;
  return q;
}

WorkloadSpec StockDip() {
  WorkloadSpec w;
  w.name = "stock_dip";
  w.schema = StockGenerator::MakeSchema();
  w.ddl = kStockDdl;
  w.queries = {DipQuery()};
  w.generate = StockStream;
  w.pass_events = 100000;
  w.check_events = 20000;
  w.open_rate_eps = 125000;
  return w;
}

WorkloadSpec ForkDag() {
  WorkloadSpec w;
  w.name = "fork_dag";
  w.schema = ForkHeavyGenerator::MakeSchema();
  QueryDef q;
  q.name = "q";
  q.text = "SELECT a.price, SUM(b.price), COUNT(b) "
           "FROM ForkTick MATCH PATTERN SEQ(a, b+) "
           "USING SKIP_TILL_ANY_MATCH PARTITION BY sym "
           "WHERE a.anchor = 1 AND b[i].anchor = 0 "
           "WITHIN 12 MILLISECONDS "
           "RANK BY SUM(b.price) DESC "
           "LIMIT 10 EMIT ON WINDOW CLOSE";
  w.queries = {q};
  w.generate = ForkStream;
  w.pass_events = 50000;
  w.check_events = 3000;
  w.open_rate_eps = 75000;
  return w;
}

// stock_dip's stream and query, served by a 2-shard server over loopback.
WorkloadSpec WireSharded() {
  WorkloadSpec w = StockDip();
  w.name = "wire_sharded";
  w.backend = Backend::kWireSharded;
  w.open_rate_eps = 40000;
  return w;
}

Result<WorkloadSpec> SpecFor(const std::string& name) {
  if (name == "stock_dip") return StockDip();
  if (name == "fork_dag") return ForkDag();
  if (name == "wire_sharded") return WireSharded();
  return Status::NotFound("unknown workload '" + name + "'");
}

// -- Result recording -------------------------------------------------------------

/// One pass's input: the events, their timestamps (kept apart because the
/// events are moved into the engine), the report-window span, and the
/// digest and result count every pass over it must reproduce.
struct Stream {
  std::vector<Event> events;
  std::vector<Timestamp> ts;
  Timestamp window_span = 0;
  uint64_t digest = 0;
  size_t results = 0;
};

/// Collects every ranked result a target delivers: its digest always, and
/// under an open-loop schedule its latency from the due time of the event
/// that made it emittable — for EMIT ON WINDOW CLOSE the first event at or
/// past WindowEnd(window_id), or end of stream when no such event exists.
class ResultRecorder {
 public:
  explicit ResultRecorder(const Stream& stream) : stream_(stream) {}

  /// Turns on latency recording. Storage for every expected sample is
  /// reserved now: growing it mid-pass would stall the open loop.
  void SetSchedule(const OpenLoopSchedule* schedule) {
    schedule_ = schedule;
    latency_us_.reserve(stream_.results);
  }

  void Record(const std::string& query, int64_t window_id, uint64_t rank,
              uint64_t last_sequence, double score,
              const std::vector<Value>& row) {
    const int64_t now = NowNs();
    digest_.For(query).Add(window_id, rank, last_sequence, score, row);
    if (schedule_ == nullptr) return;
    const Timestamp end = (window_id + 1) * stream_.window_span;
    const size_t trigger = static_cast<size_t>(
        std::lower_bound(stream_.ts.begin(), stream_.ts.end(), end) -
        stream_.ts.begin());
    latency_us_.push_back(
        static_cast<double>(std::max<int64_t>(0, now - schedule_->Due(trigger))) /
        1e3);
  }

  const OutputDigest& digest() const { return digest_; }
  std::vector<double>& latency_us() { return latency_us_; }

 private:
  const Stream& stream_;
  const OpenLoopSchedule* schedule_ = nullptr;
  OutputDigest digest_;
  std::vector<double> latency_us_;
};

class RecordingSink : public Sink {
 public:
  RecordingSink(std::string query, ResultRecorder* recorder, Tracer* tracer)
      : query_(std::move(query)), recorder_(recorder), tracer_(tracer) {}

  void OnResult(const RankedResult& r) override {
    ScopedSpan span(tracer_ != nullptr && tracer_->in_span() ? tracer_ : nullptr,
                    "OnResult");
    recorder_->Record(query_, r.window_id, r.rank, r.match.last_sequence,
                      r.match.score, r.match.row);
  }

 private:
  std::string query_;
  ResultRecorder* recorder_;
  Tracer* tracer_;
};

/// Per-frame numbers of the wire client.
struct WireStats {
  std::vector<double> batch_rtt_us;
  uint64_t batches = 0;
  uint64_t results = 0;
};

// -- Systems under test -------------------------------------------------------------

/// One fresh engine (or server) driven through CEPR's public API.
class Target {
 public:
  virtual ~Target() = default;
  /// Construction, schema and every query registration: what setup_s times.
  virtual Status Setup() = 0;
  /// Copies the pass input into the shape the ingest calls take (untimed).
  virtual void Stage(const std::vector<Event>& events) = 0;
  /// Events per ingest unit: 1 for Push, a frame for PushBatch.
  virtual size_t unit_events() const = 0;
  virtual size_t units() const = 0;
  virtual Status IngestUnit(size_t unit) = 0;
  virtual Status Finish() = 0;
  /// MetricsSnapshot::ToJson of the engine, parsed.
  virtual Result<Json> Metrics() = 0;
};

class SerialTarget final : public Target {
 public:
  /// `reference` selects the output check's reference configuration:
  /// shared evaluation, the match DAG and score pruning all off.
  SerialTarget(const WorkloadSpec& spec, bool reference,
               ResultRecorder* recorder, Tracer* tracer)
      : spec_(spec), reference_(reference), recorder_(recorder),
        tracer_(tracer) {}

  Status Setup() override {
    EngineOptions options;
    options.shared_eval = !reference_;
    engine_ = std::make_unique<Engine>(options);
    Status s = engine_->RegisterSchema(spec_.schema);
    if (!s.ok()) return s;
    sinks_.reserve(spec_.queries.size());
    for (const QueryDef& q : spec_.queries) {
      sinks_.push_back(std::make_unique<RecordingSink>(q.name, recorder_, tracer_));
      QueryOptions options = q.options;
      if (reference_) {
        options.matcher.shared_match_dag = false;
        options.ranker = RankerPolicy::kHeap;
      }
      ScopedSpan span(tracer_, "RegisterQuery");
      s = engine_->RegisterQuery(q.name, q.text, options, sinks_.back().get());
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  void Stage(const std::vector<Event>& events) override { staged_ = events; }
  size_t unit_events() const override { return 1; }
  size_t units() const override { return staged_.size(); }

  Status IngestUnit(size_t unit) override {
    if (tracer_ != nullptr && SamplePush(unit)) {
      ScopedSpan span(tracer_, "Push");
      return engine_->Push(std::move(staged_[unit]));
    }
    return engine_->Push(std::move(staged_[unit]));
  }

  Status Finish() override {
    ScopedSpan span(tracer_, "Finish");
    engine_->Finish();
    return Status::OK();
  }

  Result<Json> Metrics() override {
    return Json::Parse(engine_->Snapshot().ToJson());
  }

 private:
  const WorkloadSpec& spec_;
  const bool reference_;
  ResultRecorder* recorder_;
  Tracer* tracer_;
  // Declared before engine_: the engine holds raw pointers to the sinks.
  std::vector<std::unique_ptr<RecordingSink>> sinks_;
  std::unique_ptr<Engine> engine_;
  std::vector<Event> staged_;
};

class WireTarget final : public Target {
 public:
  WireTarget(const WorkloadSpec& spec, ResultRecorder* recorder,
             Tracer* tracer, WireStats* stats)
      : spec_(spec), recorder_(recorder), tracer_(tracer), stats_(stats) {}

  ~WireTarget() override {
    client_.Close();
    if (server_ != nullptr) server_->Stop();
  }

  Status Setup() override {
    net::ServerOptions options;
    options.num_shards = 2;
    server_ = std::make_unique<net::CeprServer>(options);
    Status s = server_->Start();
    if (!s.ok()) return s;
    {
      ScopedSpan span(tracer_, "Connect");
      s = client_.Connect("127.0.0.1", server_->port());
    }
    if (!s.ok()) return s;
    {
      ScopedSpan span(tracer_, "Ddl");
      s = client_.Ddl(spec_.ddl);
    }
    if (!s.ok()) return s;
    for (const QueryDef& q : spec_.queries) {
      ScopedSpan span(tracer_, "Deploy");
      s = client_.Deploy(q.name, q.text, q.options);
      if (!s.ok()) return s;
    }
    ScopedSpan span(tracer_, "BindStream");
    Result<uint32_t> binding = client_.BindStream(spec_.schema->name());
    if (!binding.ok()) return binding.status();
    binding_ = binding.value();
    return Status::OK();
  }

  void Stage(const std::vector<Event>& events) override {
    frames_.clear();
    for (size_t i = 0; i < events.size(); i += kWireFrameEvents) {
      const size_t end = std::min(events.size(), i + kWireFrameEvents);
      frames_.emplace_back(events.begin() + static_cast<std::ptrdiff_t>(i),
                           events.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  size_t unit_events() const override { return kWireFrameEvents; }
  size_t units() const override { return frames_.size(); }

  Status IngestUnit(size_t unit) override {
    Status s;
    {
      ScopedSpan span(tracer_, "PushBatch");
      const int64_t t0 = NowNs();
      s = client_.PushBatch(binding_, frames_[unit]);
      if (stats_ != nullptr) {
        stats_->batch_rtt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        ++stats_->batches;
      }
    }
    Drain();
    return s;
  }

  Status Finish() override {
    Status s;
    {
      ScopedSpan span(tracer_, "Finish");
      s = client_.Finish();
    }
    Drain();
    return s;
  }

  Result<Json> Metrics() override {
    Result<std::string> json = client_.MetricsJson();
    if (!json.ok()) return json.status();
    return Json::Parse(json.value());
  }

 private:
  /// Hands the results the last request brought back to the recorder; they
  /// reached the client when that request returned.
  void Drain() {
    for (const QueryDef& q : spec_.queries) {
      for (const net::WireResult& r : client_.TakeResults(q.name)) {
        recorder_->Record(q.name, r.window_id, r.rank, r.last_sequence,
                          r.score, r.row);
        if (stats_ != nullptr) ++stats_->results;
      }
    }
  }

  const WorkloadSpec& spec_;
  ResultRecorder* recorder_;
  Tracer* tracer_;
  WireStats* stats_;
  std::unique_ptr<net::CeprServer> server_;
  net::CeprClient client_;
  uint32_t binding_ = 0;
  std::vector<std::vector<Event>> frames_;
};

std::unique_ptr<Target> MakeTarget(const WorkloadSpec& spec,
                                   ResultRecorder* recorder, Tracer* tracer,
                                   WireStats* wire) {
  if (spec.backend == Backend::kWireSharded) {
    return std::make_unique<WireTarget>(spec, recorder, tracer, wire);
  }
  return std::make_unique<SerialTarget>(spec, /*reference=*/false, recorder,
                                        tracer);
}

// -- Passes -------------------------------------------------------------------------

/// Operations attempted and failed: every registration, push, frame and
/// finish call; one that returned non-OK failed.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool Count(const Status& s) {
    ++attempted;
    if (!s.ok()) ++failed;
    return s.ok();
  }
};

/// Ingests every staged unit back to back, then finishes.
Status IngestAll(Target* target, Ops* ops) {
  for (size_t u = 0; u < target->units(); ++u) {
    Status s = target->IngestUnit(u);
    if (!ops->Count(s)) return s;
  }
  Status s = target->Finish();
  ops->Count(s);
  return s;
}

struct PassResult {
  double setup_s = 0;
  double events_per_s = 0;
  double cpu_per_wall = 0;
  /// Closed loop only: wall time (ns) and process CPU time (s) of each
  /// chunk of the pass, the last chunk ending with the return of Finish.
  std::vector<double> chunk_ns;
  std::vector<double> chunk_cpu_s;
  uint64_t digest = 0;
  std::vector<double> latency_us;
  Json metrics;
};

/// Sets up a fresh target, then ingests the whole stream: as fast as the
/// API accepts it (closed loop, `schedule_rate` 0) or each unit at its due
/// time on a fixed-rate schedule (open loop).
Result<PassResult> RunPass(const WorkloadSpec& spec, const Stream& stream,
                           double schedule_rate, Tracer* tracer, Ops* ops,
                           WireStats* wire, LagStats* lag, bool want_metrics) {
  PassResult r;
  ResultRecorder recorder(stream);
  std::unique_ptr<Target> target = MakeTarget(spec, &recorder, tracer, wire);
  const int64_t setup0 = NowNs();
  Status s = target->Setup();
  r.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;
  if (!ops->Count(s)) return s;
  target->Stage(stream.events);
  const size_t n = stream.events.size();
  const size_t per_unit = target->unit_events();

  const double interval_ns = schedule_rate > 0 ? 1e9 / schedule_rate : 0;
  const OpenLoopSchedule schedule(NowNs() + 1000000, interval_ns);
  LagStats pass_lag;
  if (schedule_rate > 0) {
    recorder.SetSchedule(&schedule);
    pass_lag.Reserve(target->units());
  }

  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  if (schedule_rate > 0) {
    for (size_t u = 0; u < target->units(); ++u) {
      const int64_t due = schedule.Due(std::min(n, (u + 1) * per_unit) - 1);
      WaitUntil(due);
      pass_lag.Record(due, NowNs(), interval_ns * static_cast<double>(per_unit));
      s = target->IngestUnit(u);
      if (!ops->Count(s)) return s;
    }
    WaitUntil(schedule.Due(n));
    s = target->Finish();
    if (!ops->Count(s)) return s;
  } else {
    const size_t chunk_units = std::max<size_t>(1, kChunkEvents / per_unit);
    int64_t chunk_t = t0;
    double chunk_cpu = cpu0;
    auto end_chunk = [&] {
      const int64_t now = NowNs();
      const double cpu = ProcessCpuSeconds();
      r.chunk_ns.push_back(static_cast<double>(now - chunk_t));
      r.chunk_cpu_s.push_back(cpu - chunk_cpu);
      chunk_t = now;
      chunk_cpu = cpu;
    };
    for (size_t u = 0; u < target->units(); ++u) {
      s = target->IngestUnit(u);
      if (!ops->Count(s)) return s;
      if ((u + 1) % chunk_units == 0 && u + 1 < target->units()) end_chunk();
    }
    s = target->Finish();
    if (!ops->Count(s)) return s;
    end_chunk();
  }
  const int64_t t1 = NowNs();
  const double cpu1 = ProcessCpuSeconds();
  if (lag != nullptr) lag->Merge(pass_lag);

  const double seconds = static_cast<double>(t1 - t0) / 1e9;
  r.events_per_s = static_cast<double>(n) / seconds;
  r.cpu_per_wall = (cpu1 - cpu0) / seconds;
  r.digest = recorder.digest().Combined();
  r.latency_us = std::move(recorder.latency_us());
  if (want_metrics) {
    Result<Json> metrics = target->Metrics();
    if (!metrics.ok()) return metrics.status();
    r.metrics = std::move(metrics).value();
  }
  return r;
}

/// Times the set-up of a fresh target, which is then torn down unused.
Result<double> SetupSeconds(const WorkloadSpec& spec, const Stream& stream,
                            Ops* ops) {
  ResultRecorder recorder(stream);
  std::unique_ptr<Target> target = MakeTarget(spec, &recorder, nullptr, nullptr);
  const int64_t t0 = NowNs();
  Status s = target->Setup();
  const int64_t t1 = NowNs();
  if (!ops->Count(s)) return s;
  return static_cast<double>(t1 - t0) / 1e9;
}

/// Peak heap growth, in MB, while a fresh target ingests the whole stream
/// and finishes; the stream copy made for the pass is excluded.
Result<double> StatePeakMb(const WorkloadSpec& spec, const Stream& stream,
                           Ops* ops) {
  ResultRecorder recorder(stream);
  std::unique_ptr<Target> target = MakeTarget(spec, &recorder, nullptr, nullptr);
  Status s = target->Setup();
  if (!ops->Count(s)) return s;
  target->Stage(stream.events);
  StartHeapCount();
  s = IngestAll(target.get(), ops);
  const uint64_t peak = StopHeapCount();
  if (!s.ok()) return s;
  return static_cast<double>(peak) / (1024.0 * 1024.0);
}

/// Replays `stream` through one configuration and returns its digest.
Result<OutputDigest> ReplayDigest(const WorkloadSpec& spec,
                                  const Stream& stream, bool reference,
                                  Ops* ops) {
  ResultRecorder recorder(stream);
  std::unique_ptr<Target> target;
  if (reference) {
    target = std::make_unique<SerialTarget>(spec, true, &recorder, nullptr);
  } else {
    target = MakeTarget(spec, &recorder, nullptr, nullptr);
  }
  Status s = target->Setup();
  if (!ops->Count(s)) return s;
  target->Stage(stream.events);
  s = IngestAll(target.get(), ops);
  if (!s.ok()) return s;
  return recorder.digest();
}

Stream MakeStream(const WorkloadSpec& spec, uint64_t seed, size_t n,
                  Timestamp window_span) {
  Stream s;
  s.events = spec.generate(seed, n);
  s.ts.reserve(n);
  for (const Event& e : s.events) s.ts.push_back(e.timestamp());
  s.window_span = window_span;
  return s;
}

Result<Timestamp> WindowSpanOf(const WorkloadSpec& spec) {
  Result<CompiledQueryPtr> plan =
      CompileQueryText(spec.queries.front().text, spec.schema);
  if (!plan.ok()) return plan.status();
  const ReportWindowAssigner windows =
      ReportWindowAssigner::ForQuery(*plan.value());
  if (windows.mode() != ReportWindowAssigner::Mode::kTime) {
    return Status::InvalidArgument("workload queries must emit on window close");
  }
  return windows.span();
}

/// Times the language and planning stages the engine runs inside
/// RegisterQuery, by calling them directly on every query text.
Status TraceCompileStages(const WorkloadSpec& spec, Tracer* tracer) {
  for (const QueryDef& q : spec.queries) {
    Result<QueryAst> ast = [&] {
      ScopedSpan span(tracer, "ParseQuery");
      return ParseQuery(q.text);
    }();
    if (!ast.ok()) return ast.status();
    Result<AnalyzedQuery> analyzed = [&] {
      ScopedSpan span(tracer, "Analyze");
      return Analyze(std::move(ast).value(), spec.schema);
    }();
    if (!analyzed.ok()) return analyzed.status();
    ScopedSpan span(tracer, "Compile");
    Result<CompiledQueryPtr> plan = Compile(std::move(analyzed).value());
    if (!plan.ok()) return plan.status();
  }
  return Status::OK();
}

// -- Derived metrics ------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Engine counters summed over queries, from a MetricsSnapshot JSON.
void AddEngineMetrics(const Json& snap, MetricSet* m) {
  const double events = snap.Num("events_ingested");
  double visits = 0, runs_created = 0, peak_runs = 0, binding_nodes = 0;
  double dag_nodes = 0, peak_dag = 0, cache_hits = 0, cache_misses = 0;
  double pruned = 0, prune_checks = 0, prunes = 0, enumerated = 0;
  double cutoffs = 0, results = 0;
  // Count-weighted median of the per-query processing-time medians.
  std::vector<std::pair<double, double>> p50_by_count;
  for (const Json& q : snap["queries"].items()) {
    const Json& qm = q["metrics"];
    const Json& mm = qm["matcher"];
    visits += mm.Num("events");
    runs_created += mm.Num("runs_created");
    peak_runs += mm.Num("peak_active_runs");
    binding_nodes += mm.Num("binding_nodes_allocated");
    dag_nodes += mm.Num("dag_nodes_allocated");
    peak_dag += mm.Num("peak_dag_nodes");
    cache_hits += mm.Num("predcache_hits");
    cache_misses += mm.Num("predcache_misses");
    pruned += mm.Num("runs_pruned_score");
    prune_checks += qm.Num("prune_checks");
    prunes += qm.Num("prunes");
    enumerated += qm.Num("matches_enumerated");
    cutoffs += qm.Num("enumeration_cutoffs");
    results += qm.Num("results");
    const Json& hist = qm["processing_ns"];
    if (hist.Num("count") > 0) {
      p50_by_count.emplace_back(hist.Num("p50"), hist.Num("count"));
    }
  }
  std::sort(p50_by_count.begin(), p50_by_count.end());
  double total = 0, seen = 0, processing_p50 = 0;
  for (const auto& e : p50_by_count) total += e.second;
  for (const auto& e : p50_by_count) {
    seen += e.second;
    processing_p50 = e.first;
    if (seen * 2 >= total) break;
  }
  const Json& sharing = snap["sharing"];

  m->Add("plan.live_templates", sharing.Num("live_templates"), "count");
  m->Add("plan.queries_deduped", sharing.Num("queries_deduped"), "count");
  m->Add("engine.visits_per_event", Ratio(visits, events), "ratio");
  m->Add("engine.index_candidates_per_probe",
         Ratio(sharing.Num("predindex_candidates"),
               sharing.Num("predindex_probes")),
         "ratio");
  m->Add("engine.event_processing_ns_p50", processing_p50, "ns");
  m->Add("engine.runs_created_per_event", Ratio(runs_created, events), "ratio");
  m->Add("engine.peak_active_runs", peak_runs, "count");
  m->Add("engine.binding_nodes_per_event", Ratio(binding_nodes, events), "ratio");
  m->Add("engine.peak_dag_nodes", peak_dag, "count");
  m->Add("engine.dag_nodes_per_event", Ratio(dag_nodes, events), "ratio");
  m->Add("expr.predcache_hit_ratio",
         Ratio(cache_hits, cache_hits + cache_misses), "ratio");
  m->Add("expr.bytecode_compiled_preds", sharing.Num("bytecode_compiled_preds"),
         "count");
  m->Add("rank.runs_pruned_share", Ratio(pruned, runs_created), "ratio");
  m->Add("rank.prune_hit_ratio", Ratio(prunes, prune_checks), "ratio");
  m->Add("rank.enumerated_per_result", Ratio(enumerated, results), "ratio");
  m->Add("rank.enumeration_cutoffs", cutoffs, "count");
}

void AddShardMetrics(const Json& snap, MetricSet* m) {
  double max_events = 0, sum_events = 0, stalls = 0, stall_us = 0;
  double high_water = 0;
  const std::vector<Json>& shards = snap["shards"].items();
  for (const Json& s : shards) {
    max_events = std::max(max_events, s.Num("events"));
    sum_events += s.Num("events");
    stalls += s.Num("enqueue_stalls");
    stall_us += s.Num("stall_us");
    high_water = std::max(high_water, s.Num("queue_high_water"));
  }
  const double mean =
      shards.empty() ? 0 : sum_events / static_cast<double>(shards.size());
  m->Add("shard.imbalance", Ratio(max_events, mean), "ratio");
  m->Add("shard.enqueue_stalls", stalls, "count");
  m->Add("shard.stall_us", stall_us, "us");
  m->Add("shard.queue_high_water", high_water, "count");
  m->Add("merge.windows_merged", snap["merge"].Num("windows_merged"), "count");
}

// -- The run ---------------------------------------------------------------------------

class Runner {
 public:
  Runner(const RunConfig& config, WorkloadSpec spec)
      : config_(config), spec_(std::move(spec)) {}

  Result<RunReport> Run() {
    Result<Timestamp> span = WindowSpanOf(spec_);
    if (!span.ok()) return span.status();
    Stream stream = MakeStream(spec_, config_.seed, spec_.pass_events, span.value());

    // Output check before timing: a prefix through the reference
    // configuration and through the workload's own must agree.
    const Stream prefix =
        MakeStream(spec_, config_.seed, spec_.check_events, span.value());
    Result<OutputDigest> ref = ReplayDigest(spec_, prefix, true, &ops_);
    Result<OutputDigest> own = ReplayDigest(spec_, prefix, false, &ops_);
    if (!ref.ok() || !own.ok()) {
      Fail("output check did not complete: " +
           (ref.ok() ? own.status() : ref.status()).ToString());
    } else if (ref.value().results() == 0) {
      Fail("output check prefix produced no results");
    } else if (ref.value().Combined() != own.value().Combined() ||
               ref.value().results() != own.value().results()) {
      Fail("output check: digest " + HexDigest(own.value().Combined()) +
           " differs from reference " + HexDigest(ref.value().Combined()));
    }
    // The digest every timed pass must reproduce: the serial in-process
    // engine with the workload's queries (for wire_sharded, that is
    // stock_dip's configuration on the same seed).
    Result<OutputDigest> expected =
        ReplayDigest(SerialSpec(), stream, false, &ops_);
    if (!expected.ok()) return expected.status();
    stream.digest = expected.value().Combined();
    stream.results = expected.value().results();
    if (ref.ok()) {
      AddDetail("check_results", static_cast<double>(ref.value().results()));
      detail_ += ",\"check_digest\":\"" + HexDigest(ref.value().Combined()) + "\"";
    }
    detail_ += ",\"digest\":\"" + HexDigest(stream.digest) + "\"";
    AddDetail("results_per_pass", static_cast<double>(stream.results));

    RunReport report;
    Status s = config_.trace ? TracedRun(stream, &report.metrics)
                             : UntracedRun(stream, &report.metrics);
    if (!s.ok()) Fail(s.ToString());

    report.correct = correct_;
    report.attempted = std::max<uint64_t>(1, ops_.attempted);
    // A wrong ranked output fails every result, so the whole run counts.
    report.failed = correct_ ? ops_.failed : report.attempted;
    report.detail_json = "{\"workload\":\"" + spec_.name + "\"" + detail_ +
                         (error_.empty() ? "" : ",\"error\":\"" + error_ + "\"") +
                         "}";
    return report;
  }

 private:
  WorkloadSpec SerialSpec() const {
    WorkloadSpec serial = spec_;
    serial.backend = Backend::kSerial;
    return serial;
  }

  void Fail(const std::string& why) {
    correct_ = false;
    if (error_.empty()) {
      for (const char c : why) error_ += (c == '"' || c == '\\') ? '\'' : c;
    }
  }

  void AddDetail(const std::string& key, double v) {
    detail_ += ",\"" + key + "\":" + JsonNumber(v);
  }

  void AddDetail(const std::string& key, const std::vector<double>& v) {
    detail_ += ",\"" + key + "\":[";
    for (size_t i = 0; i < v.size(); ++i) {
      detail_ += (i == 0 ? "" : ",") + JsonNumber(v[i]);
    }
    detail_ += "]";
  }

  /// True until `share` of --seconds has passed since `start_ns`, and
  /// always until `done` reaches kMinPasses.
  bool Continue(int64_t start_ns, double share, size_t done) const {
    return done < kMinPasses ||
           static_cast<double>(NowNs() - start_ns) < share * config_.seconds * 1e9;
  }

  /// One measured pass, checked against the stream's expected digest.
  Result<PassResult> Pass(const Stream& stream, double rate, Tracer* tracer,
                          WireStats* wire, LagStats* lag, bool want_metrics) {
    Result<PassResult> r =
        RunPass(spec_, stream, rate, tracer, &ops_, wire, lag, want_metrics);
    if (r.ok() && r.value().digest != stream.digest) {
      Fail("pass digest " + HexDigest(r.value().digest) + " differs from " +
           HexDigest(stream.digest));
    }
    return r;
  }

  /// What the open-loop passes measured. Every pass replays the same
  /// stream and, checked by the digest, emits the same results in the same
  /// order, so result i of one pass is result i of every other. Its lowest
  /// latency over the passes is the program's own; what the other passes
  /// add is the host's interference. The latency percentiles are taken over
  /// these per-result minima.
  struct OpenLoopFigures {
    std::vector<double> best_latency_us;  ///< per result, lowest over passes
    std::vector<double> p99_us;           ///< per pass, for the detail line
    size_t passes = 0;
    size_t samples = 0;                   ///< latencies measured, all passes
    LagStats lag;

    void Add(const std::vector<double>& latency_us) {
      ++passes;
      samples += latency_us.size();
      p99_us.push_back(TailPercentile(latency_us).value);
      KeepLowest(&best_latency_us, latency_us);
    }
  };

  /// One open-loop pass at the workload's rate, its latencies added to
  /// `out`; returns the pass's set-up time.
  Result<double> OpenPass(const Stream& stream, OpenLoopFigures* out) {
    Result<PassResult> r =
        Pass(stream, spec_.open_rate_eps, nullptr, nullptr, &out->lag, false);
    if (!r.ok()) return r.status();
    out->Add(r.value().latency_us);
    return r.value().setup_s;
  }

  Status UntracedRun(const Stream& stream, MetricSet* m) {
    // A warm-up pass, then closed- and open-loop passes alternate for 90%
    // of the run, so every figure samples the whole run. Like the open
    // loop's results, the closed loop's chunks are the same in every pass:
    // each keeps its lowest wall and CPU time over the passes.
    Result<PassResult> warm =
        Pass(stream, 0, nullptr, nullptr, nullptr, false);
    if (!warm.ok()) return warm.status();
    std::vector<double> eps, setup_s, chunk_ns, chunk_cpu_s;
    OpenLoopFigures o;
    const int64_t start = NowNs();
    while (Continue(start, 0.9, eps.size())) {
      Result<PassResult> c =
          Pass(stream, 0, nullptr, nullptr, nullptr, false);
      if (!c.ok()) return c.status();
      eps.push_back(c.value().events_per_s);
      setup_s.push_back(c.value().setup_s);
      KeepLowest(&chunk_ns, c.value().chunk_ns);
      KeepLowest(&chunk_cpu_s, c.value().chunk_cpu_s);
      Result<double> open_setup = OpenPass(stream, &o);
      if (!open_setup.ok()) return open_setup.status();
      setup_s.push_back(open_setup.value());
      for (size_t i = 0; i < kExtraSetups; ++i) {
        Result<double> setup = SetupSeconds(spec_, stream, &ops_);
        if (!setup.ok()) return setup.status();
        setup_s.push_back(setup.value());
      }
    }
    Result<double> state = StatePeakMb(spec_, stream, &ops_);
    if (!state.ok()) return state.status();

    std::vector<double> latency = o.best_latency_us;
    const Tail p99 = TailPercentile(latency);
    std::sort(latency.begin(), latency.end());
    const double events = static_cast<double>(stream.events.size());
    m->Add("throughput_eps", events / (Sum(chunk_ns) / 1e9), "events/s");
    m->Add("latency_p50_us", PercentileSorted(latency, 50), "us");
    m->Add("latency_p99_us", p99.value, "us");
    m->Add("setup_s", Best(setup_s, false), "s");
    m->Add("state_peak_mb", state.value(), "MB");
    m->Add("cpu_us_per_event", Sum(chunk_cpu_s) * 1e6 / events, "us");

    AddDetail("closed_passes", static_cast<double>(eps.size()));
    AddDetail("setups", static_cast<double>(setup_s.size()));
    AddDetail("closed_chunks", static_cast<double>(chunk_ns.size()));
    AddDetail("open_passes", static_cast<double>(o.passes));
    AddDetail("open_rate_eps", spec_.open_rate_eps);
    AddDetail("latency_results", static_cast<double>(p99.samples));
    AddDetail("latency_samples", static_cast<double>(o.samples));
    AddDetail("latency_p99_percentile", p99.percentile);
    AddDetail("throughput_eps_per_pass", eps);
    AddDetail("latency_p99_us_per_pass", o.p99_us);
    AddDetail("gen_lag_p99_us", o.lag.LagP99Us().value);
    AddDetail("gen_late_share", o.lag.LateShare());
    return Status::OK();
  }

  Status TracedRun(const Stream& stream, MetricSet* m) {
    // Untraced closed-loop, traced closed-loop and open-loop passes
    // alternate: the per-layer numbers come from the traced passes, the
    // tracing overhead from both closed-loop kinds, the generator figures
    // from the open loop. Traced passes also record their set-up and,
    // before it, the language and planning stages.
    Tracer trace(true);
    WireStats wire;
    Result<PassResult> warm = Pass(stream, 0, nullptr, nullptr, nullptr, false);
    if (!warm.ok()) return warm.status();
    std::vector<double> plain_eps, traced_eps, cpu_per_wall;
    OpenLoopFigures o;
    Json metrics;
    const int64_t start = NowNs();
    while (Continue(start, 0.9, traced_eps.size())) {
      Result<PassResult> plain = Pass(stream, 0, nullptr, nullptr, nullptr, false);
      if (!plain.ok()) return plain.status();
      plain_eps.push_back(plain.value().events_per_s);
      cpu_per_wall.push_back(plain.value().cpu_per_wall);
      Status s = TraceCompileStages(spec_, &trace);
      if (!s.ok()) return s;
      Result<PassResult> traced = Pass(stream, 0, &trace, &wire, nullptr, true);
      if (!traced.ok()) return traced.status();
      traced_eps.push_back(traced.value().events_per_s);
      metrics = std::move(traced.value().metrics);
      Result<double> open_setup = OpenPass(stream, &o);
      if (!open_setup.ok()) return open_setup.status();
    }

    const double passes = static_cast<double>(traced_eps.size());
    const double events = passes * static_cast<double>(stream.events.size());
    const bool wire_backend = spec_.backend == Backend::kWireSharded;
    const char* register_span = wire_backend ? "Deploy" : "RegisterQuery";
    auto total_ns = [&](std::initializer_list<const char*> names) {
      double total = 0;
      for (const char* name : names) {
        for (const double d : trace.DurationsNs(name)) total += d;
      }
      return total;
    };
    auto median_ns = [&](const char* name) {
      return Median(trace.DurationsNs(name));
    };

    std::vector<double> push_ns = trace.DurationsNs("Push");
    std::sort(push_ns.begin(), push_ns.end());
    m->Add("runtime.push_ns_p50", PercentileSorted(push_ns, 50), "ns");
    m->Add("runtime.push_ns_p99", TailPercentile(push_ns).value, "ns");
    m->Add("runtime.finish_ms", median_ns("Finish") / 1e6, "ms");
    m->Add("runtime.register_query_us_p50", median_ns(register_span) / 1e3, "us");
    m->Add("runtime.register_total_ms", total_ns({register_span}) / passes / 1e6,
           "ms");
    m->Add("lang.parse_us_p50", median_ns("ParseQuery") / 1e3, "us");
    m->Add("lang.analyze_us_p50", median_ns("Analyze") / 1e3, "us");
    m->Add("plan.compile_us_p50", median_ns("Compile") / 1e3, "us");
    AddEngineMetrics(metrics, m);
    m->Add("rank.sink_ns_p50", median_ns("OnResult"), "ns");
    AddShardMetrics(metrics, m);

    std::vector<double> rtt = wire.batch_rtt_us;
    std::sort(rtt.begin(), rtt.end());
    m->Add("net.batch_rtt_us_p50", PercentileSorted(rtt, 50), "us");
    m->Add("net.batch_rtt_us_p99", TailPercentile(rtt).value, "us");
    m->Add("net.connect_deploy_ms",
           total_ns({"Connect", "Ddl", "Deploy", "BindStream"}) / passes / 1e6,
           "ms");
    m->Add("net.results_per_batch",
           Ratio(static_cast<double>(wire.results),
                 static_cast<double>(wire.batches)),
           "ratio");
    m->Add("process.cpu_per_wall", Median(cpu_per_wall), "ratio");

    // Self time per layer over the traced passes, per ingested event.
    // Push spans are sampled, so they, and the OnResult spans under them,
    // are scaled back up by pushes per recorded span; Finish and its
    // OnResult spans are always traced.
    const std::map<std::string, double> self = trace.SelfNsByName();
    auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const double sampled = Ratio(events, static_cast<double>(push_ns.size()));
    const double ingest_self = wire_backend
                                   ? self_of("PushBatch") + self_of("Finish")
                                   : self_of("Push") * sampled + self_of("Finish");
    m->Add("runtime.self_ns_per_event",
           wire_backend ? 0.0 : Ratio(ingest_self, events), "ns");
    m->Add("net.self_ns_per_event",
           wire_backend ? Ratio(ingest_self, events) : 0.0, "ns");
    const std::deque<Tracer::Span>& spans = trace.spans();
    double sink_ns = 0;
    for (const Tracer::Span& s : spans) {
      if (s.end_ns < 0 || std::string_view(s.name) != "OnResult") continue;
      const bool under_push =
          s.parent >= 0 &&
          std::string_view(spans[static_cast<size_t>(s.parent)].name) == "Push";
      sink_ns += static_cast<double>(s.end_ns - s.start_ns) *
                 (under_push ? sampled : 1.0);
    }
    m->Add("rank.sink_self_ns_per_event", Ratio(sink_ns, events), "ns");

    m->Add("gen.lag_p99_us", o.lag.LagP99Us().value, "us");
    m->Add("gen.late_share", o.lag.LateShare(), "ratio");
    m->Add("gen.latency_samples", static_cast<double>(o.samples), "count");
    m->Add("trace.overhead",
           1.0 - Ratio(Best(traced_eps, true), Best(plain_eps, true)),
           "ratio");

    AddDetail("traced_passes", passes);
    AddDetail("throughput_eps_untraced", Best(plain_eps, true));
    AddDetail("throughput_eps_traced", Best(traced_eps, true));
    if (config_.trace_path.empty()) return Status::OK();
    return trace.WriteTsv(config_.trace_path, kMaxSpansWritten);
  }

  const RunConfig& config_;
  const WorkloadSpec spec_;
  Ops ops_;
  bool correct_ = true;
  std::string error_;
  std::string detail_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"stock_dip", "fork_dag", "wire_sharded"};
}

Result<RunReport> RunWorkload(const RunConfig& config) {
  Result<WorkloadSpec> spec = SpecFor(config.workload);
  if (!spec.ok()) return spec.status();
  return Runner(config, std::move(spec).value()).Run();
}

}  // namespace perfbench
}  // namespace cepr
