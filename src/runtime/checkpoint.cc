#include "runtime/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/binio.h"
#include "common/logging.h"
#include "common/strings.h"
#include "runtime/engine.h"
#include "runtime/serde.h"
#include "runtime/shard_backend.h"

namespace cepr {
namespace {

// POSIX plumbing, local to the snapshot path (the WAL keeps its own).
bool ReadAllFd(int fd, std::string* out) {
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out->append(buf, static_cast<size_t>(n));
  }
}

bool WriteAllFd(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// -- Option blocks ----------------------------------------------------------
// SaveQueryOptions / LoadQueryOptions live in runtime/serde.*: the WAL's
// deploy records and the network deploy message share the encoding.

bool ValidatePoliciesV1(BinReader* r, uint8_t late, uint8_t shed,
                        uint8_t fault) {
  if (late > static_cast<uint8_t>(LatePolicy::kClamp) ||
      shed > static_cast<uint8_t>(ShedPolicy::kShedLowestScoreBound) ||
      fault > static_cast<uint8_t>(FaultPolicy::kSkipAndCount)) {
    r->Fail();
    return false;
  }
  return true;
}

// -- RankedResult (the shard backend's published/pending deques) -----------

void SaveRankedResult(EventInterner* in, BinWriter* w, const RankedResult& res) {
  w->I64(res.window_id);
  w->U64(static_cast<uint64_t>(res.rank));
  w->Bool(res.provisional);
  SaveMatch(in, w, res.match);
}

bool LoadRankedResult(EventUninterner* in, BinReader* r, RankedResult* out) {
  uint64_t rank = 0;
  if (!r->I64(&out->window_id) || !r->U64(&rank) ||
      !r->Bool(&out->provisional)) {
    return false;
  }
  out->rank = static_cast<size_t>(rank);
  return LoadMatch(in, r, &out->match);
}

// Rebinds one schema-less WAL event to the registered schema for replay.
Event RebindWalEvent(const SchemaPtr& schema, const Event& bare) {
  Event event(schema, bare.timestamp(), bare.values());
  event.set_type_tag(bare.type_tag());
  return event;
}

}  // namespace

namespace ckpt {

Status WriteSnapshotFile(const std::string& path, const std::string& body,
                         const FaultInjector* injector, uint64_t attempt,
                         uint64_t* bytes_written) {
  if (body.size() > 0xFFFFFFFFull) {
    return Status::InvalidArgument("checkpoint: body too large (" +
                                   std::to_string(body.size()) + " bytes)");
  }
  BinWriter w;
  w.Raw(kMagic, sizeof(kMagic));
  w.U32(kVersion);
  w.U32(static_cast<uint32_t>(body.size()));
  w.U32(Crc32(body.data(), body.size()));
  w.Raw(body.data(), body.size());
  const std::string& image = w.buffer();

  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("checkpoint: cannot create '" + tmp +
                           "': " + ErrnoString(errno));
  }

  if (injector != nullptr &&
      injector->ShouldFire(fault_points::kCkptKillMidWrite, attempt)) {
    // Simulated kill mid-write: part of the image reaches the temp file and
    // the rename never happens, so the previous snapshot (if any) survives
    // untouched — exactly what the atomic-publish protocol guarantees for a
    // real crash.
    WriteAllFd(fd, image.data(), image.size() / 2 + 1);
    ::close(fd);
    return Status::IoError("checkpoint: injected crash mid-write of '" + tmp +
                           "' (attempt " + std::to_string(attempt) +
                           "); snapshot not published");
  }

  if (!WriteAllFd(fd, image.data(), image.size())) {
    const std::string err = ErrnoString(errno);
    ::close(fd);
    return Status::IoError("checkpoint: write to '" + tmp + "' failed: " + err);
  }
  if (::fsync(fd) != 0) {
    const std::string err = ErrnoString(errno);
    ::close(fd);
    return Status::IoError("checkpoint: fsync '" + tmp + "' failed: " + err);
  }
  if (::close(fd) != 0) {
    return Status::IoError("checkpoint: close '" + tmp +
                           "' failed: " + ErrnoString(errno));
  }

  if (injector != nullptr &&
      injector->ShouldFire(fault_points::kFsyncParentDir, attempt)) {
    // Simulated kill during the publish step: the temp file is complete and
    // fsynced, but the rename and the parent-directory fsync that would make
    // the new filename durable never happen — the durable state a crash in
    // this window leaves behind is "previous snapshot (if any) still
    // current", which is exactly what recovery must see.
    return Status::IoError(
        "checkpoint: injected crash before durable publish of '" + path +
        "' (attempt " + std::to_string(attempt) +
        "); previous snapshot still current");
  }

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("checkpoint: rename '" + tmp + "' -> '" + path +
                           "' failed: " + ErrnoString(errno));
  }
  // The rename updated the directory; until the directory inode is synced a
  // crash can lose the snapshot's filename even though its bytes are on
  // disk.
  CEPR_RETURN_IF_ERROR(FsyncParentDir(path));
  if (bytes_written != nullptr) *bytes_written = image.size();
  return Status::OK();
}

Result<std::string> ReadSnapshotBody(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("snapshot '" + path + "' does not exist");
    }
    return Status::IoError("snapshot: cannot open '" + path +
                           "': " + ErrnoString(errno));
  }
  std::string data;
  const bool read_ok = ReadAllFd(fd, &data);
  ::close(fd);
  if (!read_ok) {
    return Status::IoError("snapshot: cannot read '" + path +
                           "': " + ErrnoString(errno));
  }

  constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 4 + 4;
  if (data.size() < kHeaderBytes) {
    return Status::Corrupt("snapshot '" + path + "': truncated header (" +
                           std::to_string(data.size()) + " of " +
                           std::to_string(kHeaderBytes) + " bytes)");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corrupt("snapshot '" + path +
                           "': bad magic at byte offset 0 "
                           "(not a CEPR snapshot file)");
  }
  BinReader header(data.data() + sizeof(kMagic), data.size() - sizeof(kMagic));
  uint32_t version = 0, body_len = 0, crc = 0;
  header.U32(&version);
  header.U32(&body_len);
  header.U32(&crc);
  if (version != kVersion) {
    return Status::Corrupt(
        "snapshot '" + path + "': unsupported format version " +
        std::to_string(version) + " at byte offset 8 (this build reads " +
        std::to_string(kVersion) + ")");
  }
  if (data.size() - kHeaderBytes != body_len) {
    return Status::Corrupt(
        "snapshot '" + path + "': body length mismatch at byte offset 12 "
        "(header says " + std::to_string(body_len) + " bytes, file holds " +
        std::to_string(data.size() - kHeaderBytes) + ")");
  }
  if (Crc32(data.data() + kHeaderBytes, body_len) != crc) {
    return Status::Corrupt("snapshot '" + path +
                           "': body CRC mismatch over " +
                           std::to_string(body_len) +
                           " bytes at byte offset " +
                           std::to_string(kHeaderBytes) +
                           " (bit flip or partial overwrite)");
  }
  return data.substr(kHeaderBytes);
}

}  // namespace ckpt

// ===========================================================================
// Engine durability (the ingest front: one WAL, one snapshot prefix)
// ===========================================================================

Status Engine::OpenWal(const std::string& path) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("engine: WAL already open at '" +
                                   wal_->path() + "'");
  }
  auto wal = std::make_unique<WalWriter>();
  CEPR_RETURN_IF_ERROR(wal->Open(path, options_.fault_injector));
  wal_ = std::move(wal);
  return Status::OK();
}

Status Engine::SyncWal() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

Status Engine::Checkpoint(const std::string& path) {
  // The shard backend's cut: drain every shard to the end of its ring so
  // the cell state is complete and visible to this thread.
  if (shards_ != nullptr) CEPR_RETURN_IF_ERROR(shards_->Quiesce());
  // Records appended after this sync are past the cut and will be replayed.
  if (wal_ != nullptr) CEPR_RETURN_IF_ERROR(wal_->Sync());
  BinWriter w;
  SaveBody(&w);
  uint64_t bytes = 0;
  CEPR_RETURN_IF_ERROR(ckpt::WriteSnapshotFile(path, w.buffer(),
                                               options_.fault_injector,
                                               checkpoint_attempts_++, &bytes));
  durability_.checkpoints_written.Increment();
  durability_.checkpoint_bytes.Store(bytes);
  return Status::OK();
}

void Engine::SaveBody(BinWriter* w) const {
  // Engine options (scalars only; the fault injector is runtime wiring).
  // num_shards is structural: per-shard run state cannot be re-hashed, so
  // Restore validates the constructed engine matches.
  w->U64(static_cast<uint64_t>(options_.num_shards));
  w->U64(static_cast<uint64_t>(options_.queue_capacity));
  w->I64(options_.enqueue_stall_budget_ms);
  w->I64(options_.max_lateness_micros);
  w->U8(static_cast<uint8_t>(options_.late_policy));
  w->U64(static_cast<uint64_t>(options_.max_runs_per_partition));
  w->U64(static_cast<uint64_t>(options_.max_total_runs));
  w->U8(static_cast<uint8_t>(options_.shed_policy));
  w->U8(static_cast<uint8_t>(options_.fault_policy));
  w->Bool(options_.shared_eval);

  // WAL cut: valid journal records at this snapshot. The journal is never
  // truncated at a checkpoint; Restore replays everything past the cut.
  w->U64(wal_ != nullptr ? wal_->records() : 0);

  // Streams, in map (= name) order so the byte stream is deterministic.
  w->U32(static_cast<uint32_t>(streams_.size()));
  for (const auto& [key, state] : streams_) {
    SaveSchema(w, *state.schema);
    w->U64(state.next_sequence);
    state.reorder.SaveState(w);
  }

  // Engine-wide counters.
  w->U64(events_ingested_.Load());
  w->U64(events_quarantined_.Load());
  w->U64(queries_deduped_.Load());
  w->Bool(degraded_faults_);
  durability_.Snapshot().Save(w);

  // Query registrations (original inputs), in registration order — the
  // shard backend's query ids.
  std::vector<const QueryEntry*> entries;
  for (const auto& [key, entry] : queries_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const QueryEntry* a, const QueryEntry* b) {
              return a->id < b->id;
            });
  w->U32(static_cast<uint32_t>(entries.size()));
  for (const QueryEntry* entry : entries) {
    w->Str(entry->name);
    w->Str(entry->text);
    SaveQueryOptions(w, entry->options);
  }

  if (shards_ != nullptr) {
    shards_->SaveState(w);
    return;
  }
  // Inline section: each query's full pipeline state, one event-interning
  // scope per query (its COW-shared events are written once and
  // back-referenced).
  for (const QueryEntry* entry : entries) {
    EventInterner interner(w);
    entry->running->SaveState(&interner, w);
  }
}

Status Engine::LoadBody(BinReader* r, const SinkResolver& resolve,
                        uint64_t* wal_cut) {
  // Options: restored from the snapshot, except the fault injector (the
  // constructed engine's wiring survives).
  EngineOptions opts = options_;
  uint64_t snap_shards = 0, queue_cap = 0, mrp = 0, mtr = 0;
  uint8_t late = 0, shed = 0, fault = 0;
  if (!r->U64(&snap_shards) || !r->U64(&queue_cap) ||
      !r->I64(&opts.enqueue_stall_budget_ms) ||
      !r->I64(&opts.max_lateness_micros) || !r->U8(&late) || !r->U64(&mrp) ||
      !r->U64(&mtr) || !r->U8(&shed) || !r->U8(&fault) ||
      !r->Bool(&opts.shared_eval) || !ValidatePoliciesV1(r, late, shed, fault)) {
    return r->ToStatus("snapshot: engine options");
  }
  if (snap_shards != options_.num_shards) {
    return Status::InvalidArgument(
        "snapshot was written with " + std::to_string(snap_shards) +
        " shards but this engine has " + std::to_string(options_.num_shards) +
        "; construct the restoring engine with num_shards = " +
        std::to_string(snap_shards) +
        " (per-shard run state cannot be re-hashed)");
  }
  opts.queue_capacity = static_cast<size_t>(queue_cap);
  opts.late_policy = static_cast<LatePolicy>(late);
  opts.max_runs_per_partition = static_cast<size_t>(mrp);
  opts.max_total_runs = static_cast<size_t>(mtr);
  opts.shed_policy = static_cast<ShedPolicy>(shed);
  opts.fault_policy = static_cast<FaultPolicy>(fault);
  options_ = opts;

  if (!r->U64(wal_cut)) return r->ToStatus("snapshot: wal cut");

  uint32_t num_streams = 0;
  if (!r->U32(&num_streams)) return r->ToStatus("snapshot: stream count");
  for (uint32_t i = 0; i < num_streams; ++i) {
    CEPR_ASSIGN_OR_RETURN(SchemaPtr schema, LoadSchema(r));
    CEPR_RETURN_IF_ERROR(RegisterSchema(schema));
    StreamState& state = streams_.find(ToLower(schema->name()))->second;
    // LoadState overwrites the default reorder config with the saved one
    // (per-stream ConfigureStreamIngest overrides survive a restore).
    if (!r->U64(&state.next_sequence) ||
        !state.reorder.LoadState(r, state.schema)) {
      return r->ToStatus("snapshot: stream '" + schema->name() + "'");
    }
  }

  uint64_t ingested = 0, quarantined = 0, deduped = 0;
  bool degraded = false;
  DurabilityStats durability;
  if (!r->U64(&ingested) || !r->U64(&quarantined) || !r->U64(&deduped) ||
      !r->Bool(&degraded) || !durability.Load(r)) {
    return r->ToStatus("snapshot: engine counters");
  }
  events_ingested_.Store(ingested);
  events_quarantined_.Store(quarantined);
  durability_.Restore(durability);

  // Re-register every query from its original inputs (plan recompiled
  // against the restored schema), in the saved order.
  uint32_t num_queries = 0;
  if (!r->U32(&num_queries)) return r->ToStatus("snapshot: query count");
  std::vector<std::string> names(num_queries);
  for (uint32_t i = 0; i < num_queries; ++i) {
    std::string text;
    QueryOptions qopts;
    if (!r->Str(&names[i]) || !r->Str(&text) || !LoadQueryOptions(r, &qopts)) {
      return r->ToStatus("snapshot: query registration " + std::to_string(i));
    }
    CEPR_RETURN_IF_ERROR(RegisterQuery(names[i], text, qopts,
                                       resolve ? resolve(names[i]) : nullptr));
  }
  // Re-registration recomputed these; the saved values are the exact ones.
  queries_deduped_.Store(deduped);
  degraded_faults_ = degraded_faults_ || degraded;

  if (shards_ != nullptr) return shards_->LoadState(r);
  // Inline section: load the saved pipeline state over each fresh query.
  for (const std::string& name : names) {
    RunningQuery* query = queries_.find(ToLower(name))->second.running.get();
    EventUninterner uninterner(r, query->plan()->schema());
    if (!query->LoadState(&uninterner, r)) {
      return r->ToStatus("snapshot: query '" + name + "' state");
    }
  }
  // The loaded registration offsets invalidate the window-group layout
  // RegisterQuery built from the fresh queries; rebuild each stream's
  // shared layer from the final state. (Group cursors restart at INT64_MIN;
  // re-observing an old boundary only triggers AdvanceTo no-ops.)
  if (options_.shared_eval) {
    for (auto& [key, state] : streams_) RebuildSharedStream(state);
  }
  return r->ToStatus("snapshot: engine body");
}

Status Engine::ReplayWal(const std::string& wal_path, uint64_t skip,
                         const SinkResolver& resolve) {
  std::vector<WalRecord> records;
  uint64_t dropped = 0;
  CEPR_RETURN_IF_ERROR(WalReader::ReadAll(wal_path, &records, &dropped));
  if (dropped > 0) {
    CEPR_LOG(WARNING) << "wal replay: dropped " << dropped
                      << " torn-tail byte(s) of '" << wal_path << "'";
  }
  if (records.size() < skip) {
    return Status::Corrupt(
        "wal '" + wal_path + "' holds " + std::to_string(records.size()) +
        " records but the snapshot cut is " + std::to_string(skip) +
        " (journal truncated after the checkpoint?)");
  }

  replaying_ = true;
  durability_.recovery_events_replayed.Store(0);
  Status failed = Status::OK();
  for (size_t i = skip; i < records.size() && failed.ok(); ++i) {
    if (options_.fault_injector != nullptr &&
        options_.fault_injector->ShouldFire(fault_points::kRestorePartialReplay,
                                            i - skip)) {
      failed = Status::Unavailable(
          "restore: injected crash after replaying " + std::to_string(i - skip) +
          " of " + std::to_string(records.size() - skip) + " wal records");
      break;
    }
    const WalRecord& rec = records[i];
    if (rec.kind == WalRecord::Kind::kFlush) {
      failed = Flush();
      continue;
    }
    if (rec.kind == WalRecord::Kind::kSchema) {
      BinReader pr(rec.payload);
      auto loaded = LoadSchema(&pr);
      if (!loaded.ok() || !pr.AtEnd()) {
        failed = Status::Corrupt("wal replay: record " + std::to_string(i) +
                                 " holds a malformed schema registration");
        break;
      }
      failed = RegisterSchema(loaded.value());
      continue;
    }
    if (rec.kind == WalRecord::Kind::kDeploy) {
      BinReader pr(rec.payload);
      std::string text;
      QueryOptions qopts;
      if (!pr.Str(&text) || !LoadQueryOptions(&pr, &qopts) || !pr.AtEnd()) {
        failed = Status::Corrupt("wal replay: record " + std::to_string(i) +
                                 " holds a malformed deploy of query '" +
                                 rec.name + "'");
        break;
      }
      failed = RegisterQuery(rec.name, text, qopts,
                             resolve ? resolve(rec.name) : nullptr);
      continue;
    }
    if (rec.kind == WalRecord::Kind::kUndeploy) {
      failed = RemoveQuery(rec.name);
      continue;
    }
    auto schema = GetSchema(rec.stream);
    if (!schema.ok()) {
      failed = Status::Corrupt("wal replay: record " + std::to_string(i) +
                               " targets unregistered stream '" + rec.stream +
                               "'");
      break;
    }
    const Status s = Push(RebindWalEvent(schema.value(), rec.event));
    durability_.recovery_events_replayed.Increment();
    // kInvalidArgument is a reproduced late-rejection verdict: the original
    // Push failed identically, so the engine states agree — keep replaying.
    if (!s.ok() && s.code() != StatusCode::kInvalidArgument) failed = s;
  }
  replaying_ = false;
  return failed;
}

Status Engine::Restore(const std::string& snapshot_path,
                       const std::string& wal_path,
                       const SinkResolver& resolve) {
  if (!streams_.empty() || !queries_.empty() || events_ingested_.Load() != 0 ||
      wal_ != nullptr) {
    return Status::InvalidArgument(
        "Restore requires a pristine engine (no streams, no queries, nothing "
        "ingested, no open WAL — pass the journal via wal_path)");
  }
  CEPR_ASSIGN_OR_RETURN(std::string body,
                        ckpt::ReadSnapshotBody(snapshot_path));
  BinReader reader(body);
  uint64_t wal_cut = 0;
  CEPR_RETURN_IF_ERROR(LoadBody(&reader, resolve, &wal_cut));
  if (!reader.AtEnd()) {
    return Status::Corrupt("snapshot '" + snapshot_path + "': " +
                           std::to_string(reader.remaining()) +
                           " trailing byte(s) after the engine body");
  }
  if (!wal_path.empty()) {
    CEPR_RETURN_IF_ERROR(ReplayWal(wal_path, wal_cut, resolve));
    // Reopen for continued appending: the restored engine journals new
    // arrivals after the replayed tail.
    auto wal = std::make_unique<WalWriter>();
    CEPR_RETURN_IF_ERROR(wal->Open(wal_path, options_.fault_injector));
    wal_ = std::move(wal);
  }
  return Status::OK();
}

// ===========================================================================
// Shard backend section
// ===========================================================================

void Engine::ShardBackend::SaveState(BinWriter* w) const {
  merge_.Snapshot().Save(w);

  // Router-side merge state, per query (id order).
  for (const auto& q : queries_) {
    w->U64(q->ordinal.Load());
    w->I64(q->current_window);
    w->I64(q->merged_upto);
    w->U64(q->results_delivered.Load());
    EventInterner interner(w);
    for (const auto& pending : q->pending) {
      w->U32(static_cast<uint32_t>(pending.size()));
      for (const RankedResult& res : pending) {
        SaveRankedResult(&interner, w, res);
      }
    }
  }

  // Shard-side cell state, present only once workers exist. The engine is
  // quiesced (Checkpoint's contract), so every cell write is visible and
  // no shard thread touches its cells while we read.
  w->Bool(started());
  if (!started()) return;
  for (const auto& shard : shards_) {
    for (uint32_t qi = 0; qi < queries_.size(); ++qi) {
      w->I64(shard->acked_window[qi].load(std::memory_order_acquire));
      EventInterner interner(w);
      {
        std::lock_guard<std::mutex> lock(shard->mu);
        const auto& published = shard->published[qi];
        w->U32(static_cast<uint32_t>(published.size()));
        for (const RankedResult& res : published) {
          SaveRankedResult(&interner, w, res);
        }
      }
      const QueryCell& cell = shard->cells[qi];
      cell.emitter->SaveState(&interner, w);
      cell.matcher->SaveState(&interner, w);
    }
    const MetricsCell& m = shard->metrics;
    m.Snapshot().Save(w);
    std::lock_guard<std::mutex> lock(m.mu);
    for (const MetricsCell::Timings& t : m.timings) {
      t.processing_ns.Save(w);
      t.emission_delay_us.Save(w);
    }
  }
}

Status Engine::ShardBackend::LoadState(BinReader* r) {
  MergeStats merge;
  if (!merge.Load(r)) return r->ToStatus("snapshot: merge counters");
  merge_.Restore(merge);

  for (auto& q : queries_) {
    uint64_t ordinal = 0, delivered = 0;
    if (!r->U64(&ordinal) || !r->I64(&q->current_window) ||
        !r->I64(&q->merged_upto) || !r->U64(&delivered)) {
      return r->ToStatus("snapshot: query '" + q->name + "' router state");
    }
    q->ordinal.Store(ordinal);
    q->results_delivered.Store(delivered);
    EventUninterner uninterner(r, q->plan->schema());
    for (auto& pending : q->pending) {
      uint32_t n = 0;
      if (!r->U32(&n)) return r->ToStatus("snapshot: query pending count");
      for (uint32_t j = 0; j < n; ++j) {
        RankedResult res;
        if (!LoadRankedResult(&uninterner, r, &res)) {
          return r->ToStatus("snapshot: query '" + q->name +
                             "' pending results");
        }
        pending.push_back(std::move(res));
      }
    }
  }

  bool was_started = false;
  if (!r->Bool(&was_started)) return r->ToStatus("snapshot: worker flag");
  if (!was_started) return r->ToStatus("snapshot: shard section");
  // Build the cells on this thread, load their state, then spawn the
  // workers — std::thread creation publishes all prior writes to the new
  // threads.
  BuildShards();
  for (auto& shard : shards_) {
    for (uint32_t qi = 0; qi < queries_.size(); ++qi) {
      int64_t acked = 0;
      if (!r->I64(&acked)) return r->ToStatus("snapshot: shard ack");
      shard->acked_window[qi].store(acked, std::memory_order_relaxed);
      EventUninterner uninterner(r, queries_[qi]->plan->schema());
      uint32_t n = 0;
      if (!r->U32(&n)) return r->ToStatus("snapshot: shard publish count");
      for (uint32_t j = 0; j < n; ++j) {
        RankedResult res;
        if (!LoadRankedResult(&uninterner, r, &res)) {
          return r->ToStatus("snapshot: shard published results");
        }
        shard->published[qi].push_back(std::move(res));
      }
      QueryCell& cell = shard->cells[qi];
      if (!cell.emitter->LoadState(&uninterner, r) ||
          !cell.matcher->LoadState(&uninterner, r)) {
        return r->ToStatus("snapshot: shard " + std::to_string(shard->index) +
                           " query '" + queries_[qi]->name + "' cell state");
      }
    }
    MetricsCell& m = shard->metrics;
    ShardStats counters;
    if (!counters.Load(r)) return r->ToStatus("snapshot: shard metrics");
    m.Restore(counters);
    for (MetricsCell::Timings& t : m.timings) {
      if (!t.processing_ns.Load(r) || !t.emission_delay_us.Load(r)) {
        return r->ToStatus("snapshot: shard latency histograms");
      }
    }
  }
  SpawnWorkers();
  return r->ToStatus("snapshot: shard section");
}

}  // namespace cepr
