#ifndef CEPR_NET_SERVER_H_
#define CEPR_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "runtime/engine.h"

namespace cepr {
namespace net {

class Session;

/// Configuration of a CeprServer instance.
struct ServerOptions {
  /// Listen address. The default binds loopback only; the server speaks an
  /// unauthenticated binary protocol and is meant to sit behind trusted
  /// transport.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// Execution backend: 0 runs queries inline, N > 0 on N worker shards
  /// (which refuse hot undeploy and post-start deploys — the engine's own
  /// capability errors surface as error replies). Overrides
  /// engine.num_shards.
  size_t num_shards = 0;
  /// Every other engine knob.
  EngineOptions engine;

  /// Durability root. Empty disables persistence entirely; otherwise the
  /// directory must exist and the server keeps `<dir>/snapshot.ckpt` and
  /// `<dir>/wal.log` in it. On Start the server restores from the snapshot
  /// + WAL tail when a snapshot is present, and cuts checkpoint 0 before
  /// serving otherwise — so a later crash always has a snapshot to restore.
  std::string data_dir;
  /// Interval of the background checkpoint thread (snapshot + WAL sync);
  /// 0 disables the timer (checkpoints then happen only on kCheckpoint
  /// requests and clean Stop). Ignored without a data_dir.
  int64_t checkpoint_interval_ms = 0;

  /// Concurrent session cap; further connections are closed on accept.
  size_t max_sessions = 64;
};

/// Events a kEventBatch request decodes per Engine::PushAll call.
inline constexpr uint32_t kIngestChunkEvents = 256;

/// Per-query result fan-out: the Sink the server registers for every
/// deployed query. Results are encoded once (net/protocol.h kResult frame)
/// and either queued on the subscribed session or buffered until one
/// attaches, so a query deployed (or restored) before its consumer connects
/// loses nothing. All methods run under the server's engine mutex.
class ResultChannel : public Sink {
 public:
  /// `touched` collects every session this channel queues frames on, for
  /// the engine call in progress to send (CeprServer::EngineCall).
  ResultChannel(std::string query, std::vector<Session*>* touched)
      : query_(std::move(query)), touched_(touched) {}

  void OnResult(const RankedResult& result) override;

  /// Subscribes `session`, first queueing every buffered frame on it.
  /// Replaces any previous subscriber.
  void Attach(Session* session);
  /// Drops the subscriber if it is `session` (session teardown); later
  /// results buffer again.
  void Detach(Session* session);

  /// Results this channel has observed in this server life (forwarded or
  /// buffered). The query's persistent results counter minus this is the
  /// count of results delivered in *previous* lives — what kSubscribe
  /// reports as `prior`.
  uint64_t seen() const { return seen_; }

 private:
  void Touch(Session* session);

  const std::string query_;
  std::vector<Session*>* const touched_;
  Session* subscriber_ = nullptr;
  std::vector<std::string> buffered_;  // encoded kResult frames
  uint64_t seen_ = 0;
};

/// Long-running CEPR network server: owns one engine (inline or sharded),
/// accepts sessions speaking the net/protocol.h frame protocol, and drives
/// durability (WAL + timer checkpoints + restore-on-start).
///
/// Concurrency model: session threads and the checkpoint timer serialize
/// every engine call through one mutex — the engine keeps its
/// single-ingest-thread contract and sinks fire under the lock. Result
/// frames are queued on the subscribed sessions' send buffers (each guarded
/// by its session's write mutex); before the engine mutex is released, every
/// session other than the caller gets its queued frames in one send, and
/// the caller's leave with its kReply. Lock order: engine mutex, then
/// session write mutex; never the reverse.
class CeprServer {
 public:
  explicit CeprServer(ServerOptions options);
  ~CeprServer();

  CeprServer(const CeprServer&) = delete;
  CeprServer& operator=(const CeprServer&) = delete;

  /// Builds (or restores) the engine, binds the listen socket and starts
  /// the accept and checkpoint-timer threads.
  Status Start();

  /// Clean shutdown: stops accepting, closes every session, then syncs the
  /// WAL and cuts a final checkpoint (with a data_dir). Idempotent.
  void Stop();

  /// Simulated crash for recovery tests: tears the server down exactly like
  /// Stop but skips the final checkpoint and WAL sync, so the next Start
  /// sees only what the durability layer had already made persistent.
  void CrashStop();

  /// The bound TCP port (resolves ephemeral port 0); valid after Start.
  uint16_t port() const { return bound_port_; }

  const ServerOptions& options() const { return options_; }

  // -- Session-facing operations (each serializes on the engine mutex) ------
  //
  // `session` is the requesting session: result frames the operation queues
  // on it are left for its reply to carry. Operations without one send
  // every queued frame before they return.

  Status Ddl(const std::string& ddl_text);
  Result<SchemaPtr> LookupStream(const std::string& stream_name);
  Status PushEvent(Event event, Session* session);
  /// Ingests the `n` event bodies that `body` holds next (already checked
  /// to decode) as one batch, under one hold of the engine lock. They are
  /// decoded and handed to Engine::PushAll kIngestChunkEvents at a time, so
  /// an engine that is applying backpressure never holds the rest of the
  /// batch decoded; a failure names its index within the whole batch.
  Status PushBatch(BinReader* body, uint32_t n, const SchemaPtr& schema,
                   Session* session);
  /// Deploys and subscribes `session` to the query's results.
  Status Deploy(const std::string& name, const std::string& query_text,
                const QueryOptions& query_options, Session* session);
  Status Undeploy(const std::string& name);
  /// Attaches `session` to the query's result channel (queueing buffered
  /// results on it) and returns the count of results delivered in previous
  /// server lives.
  Result<uint64_t> Subscribe(const std::string& name, Session* session);
  Status FlushEngine(Session* session);
  Status FinishEngine(Session* session);
  std::string MetricsJson();
  Status CheckpointNow();
  /// Session teardown: unsubscribes it from every channel.
  void DetachSession(Session* session);

 private:
  /// Holds engine_mu_ for one engine call and, on release, sends the frames
  /// the call queued on every session except the caller.
  class EngineCall;

  void AcceptLoop();
  void CheckpointLoop();
  /// Tears down threads and sessions; `final_checkpoint` distinguishes
  /// Stop from CrashStop.
  void Shutdown(bool final_checkpoint);
  std::string SnapshotPath() const;
  std::string WalPath() const;
  /// The SinkResolver handed to Restore: creates (or reuses) the named
  /// query's ResultChannel.
  Sink* ChannelFor(const std::string& name);

  ServerOptions options_;

  /// Serializes ALL engine access (sessions + checkpoint timer). Channels
  /// are mutated under it too (OnResult runs inside engine calls).
  std::mutex engine_mu_;
  /// Sessions the current engine call queued result frames on. Guarded by
  /// engine_mu_ and empty whenever it is free.
  std::vector<Session*> touched_;
  /// Declared before engine_ so the engine (which holds raw Sink pointers
  /// into the channels) is destroyed first. Undeploy and a failed Deploy
  /// erase the query's channel.
  std::map<std::string, std::unique_ptr<ResultChannel>> channels_;
  std::unique_ptr<Engine> engine_;

  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread accept_thread_;

  std::thread checkpoint_thread_;
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;

  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 0;
};

}  // namespace net
}  // namespace cepr

#endif  // CEPR_NET_SERVER_H_
