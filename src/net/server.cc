#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "net/session.h"
#include "runtime/serde.h"

namespace cepr {
namespace net {

// -- ResultChannel -----------------------------------------------------------

void ResultChannel::OnResult(const RankedResult& result) {
  ++seen_;
  std::string frame = EncodeResult(query_, result);
  if (subscriber_ != nullptr) {
    subscriber_->QueueFrame(frame);  // broken pipes surface on the reader
    Touch(subscriber_);
  } else {
    buffered_.push_back(std::move(frame));
  }
}

void ResultChannel::Attach(Session* session) {
  for (const std::string& frame : buffered_) session->QueueFrame(frame);
  buffered_.clear();
  subscriber_ = session;
  Touch(session);
}

void ResultChannel::Detach(Session* session) {
  if (subscriber_ == session) subscriber_ = nullptr;
}

void ResultChannel::Touch(Session* session) {
  if (std::find(touched_->begin(), touched_->end(), session) ==
      touched_->end()) {
    touched_->push_back(session);
  }
}

// -- CeprServer::EngineCall --------------------------------------------------

class CeprServer::EngineCall {
 public:
  explicit EngineCall(CeprServer* server, Session* caller = nullptr)
      : server_(server), caller_(caller), lock_(server->engine_mu_) {}

  /// Runs before lock_ is released: another session's frames must be on the
  /// wire before the next engine call can queue more behind them.
  ~EngineCall() {
    for (Session* session : server_->touched_) {
      if (session != caller_) session->Flush();  // failures: see QueueFrame
    }
    server_->touched_.clear();
  }

  EngineCall(const EngineCall&) = delete;
  EngineCall& operator=(const EngineCall&) = delete;

 private:
  CeprServer* const server_;
  Session* const caller_;
  std::lock_guard<std::mutex> lock_;
};

// -- CeprServer --------------------------------------------------------------

CeprServer::CeprServer(ServerOptions options) : options_(std::move(options)) {}

CeprServer::~CeprServer() { Stop(); }

std::string CeprServer::SnapshotPath() const {
  return options_.data_dir + "/snapshot.ckpt";
}

std::string CeprServer::WalPath() const {
  return options_.data_dir + "/wal.log";
}

Sink* CeprServer::ChannelFor(const std::string& name) {
  auto it = channels_.find(name);
  if (it == channels_.end()) {
    it = channels_
             .emplace(name, std::make_unique<ResultChannel>(name, &touched_))
             .first;
  }
  return it->second.get();
}

Status CeprServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  EngineOptions engine_options = options_.engine;
  engine_options.num_shards = options_.num_shards;
  engine_ = std::make_unique<Engine>(engine_options);

  if (!options_.data_dir.empty()) {
    SinkResolver resolve = [this](const std::string& name) {
      return ChannelFor(name);
    };
    if (::access(SnapshotPath().c_str(), F_OK) == 0) {
      CEPR_RETURN_IF_ERROR(
          engine_->Restore(SnapshotPath(), WalPath(), resolve));
    } else {
      // Fresh start: open the journal and cut checkpoint 0 before serving,
      // so every later crash restores from a snapshot (never a bare WAL).
      CEPR_RETURN_IF_ERROR(engine_->OpenWal(WalPath()));
      CEPR_RETURN_IF_ERROR(engine_->Checkpoint(SnapshotPath()));
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket: " + ErrnoString(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    Status s = Status::IoError("bind/listen on " + options_.host + ": " +
                               ErrnoString(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);

  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (!options_.data_dir.empty() && options_.checkpoint_interval_ms > 0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  started_ = true;
  return Status::OK();
}

void CeprServer::Stop() { Shutdown(/*final_checkpoint=*/true); }

void CeprServer::CrashStop() { Shutdown(/*final_checkpoint=*/false); }

void CeprServer::Shutdown(bool final_checkpoint) {
  if (!started_) return;
  stopping_.store(true);

  // Wake and join the accept loop first so no new sessions appear. The
  // descriptor is closed only after the join: the loop still reads it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  {
    std::lock_guard<std::mutex> lk(timer_mu_);
  }
  timer_cv_.notify_all();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();

  // Quiesce every session: wake its blocking read, join, destroy.
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) s->Shutdown();
  for (auto& s : sessions) s->Join();
  sessions.clear();

  if (final_checkpoint && !options_.data_dir.empty()) {
    EngineCall call(this);
    engine_->SyncWal();
    engine_->Checkpoint(SnapshotPath());
  }
  started_ = false;
}

void CeprServer::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && !stopping_.load()) continue;
      break;  // listen socket closed (shutdown) or fatal
    }
    std::lock_guard<std::mutex> lk(sessions_mu_);
    // Reap sessions whose peers already left so long-lived servers do not
    // accumulate dead fds/threads.
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->Finished()) {
        (*it)->Join();
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    size_t live = sessions_.size();
    if (live >= options_.max_sessions) {
      ::close(fd);
      continue;
    }
    // Replies are single sends that must not wait for the peer's delayed
    // ACK behind an earlier frame (Nagle's algorithm).
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto session = std::make_unique<Session>(this, fd, next_session_id_++);
    session->Start();
    sessions_.push_back(std::move(session));
  }
}

void CeprServer::CheckpointLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.checkpoint_interval_ms);
  std::unique_lock<std::mutex> lk(timer_mu_);
  while (!stopping_.load()) {
    timer_cv_.wait_for(lk, interval, [this] { return stopping_.load(); });
    if (stopping_.load()) break;
    EngineCall call(this);
    // Best-effort: a failed background checkpoint leaves the previous
    // snapshot current (the write is atomic) and the next tick retries.
    engine_->SyncWal();
    engine_->Checkpoint(SnapshotPath());
  }
}

// -- Session-facing operations ----------------------------------------------

Status CeprServer::Ddl(const std::string& ddl_text) {
  EngineCall call(this);
  return engine_->ExecuteDdl(ddl_text);
}

Result<SchemaPtr> CeprServer::LookupStream(const std::string& stream_name) {
  EngineCall call(this);
  return engine_->GetSchema(stream_name);
}

Status CeprServer::PushEvent(Event event, Session* session) {
  EngineCall call(this, session);
  return engine_->Push(std::move(event));
}

Status CeprServer::PushBatch(BinReader* body, uint32_t n,
                             const SchemaPtr& schema, Session* session) {
  EngineCall call(this, session);
  for (uint32_t begin = 0; begin < n; begin += kIngestChunkEvents) {
    const uint32_t end = std::min(n, begin + kIngestChunkEvents);
    std::vector<Event> chunk(end - begin);
    // The session checked that every body decodes.
    for (Event& event : chunk) LoadEventBody(body, schema, &event);
    CEPR_RETURN_IF_ERROR(engine_->PushAll(std::move(chunk), begin, n));
  }
  return Status::OK();
}

Status CeprServer::Deploy(const std::string& name,
                          const std::string& query_text,
                          const QueryOptions& query_options, Session* session) {
  EngineCall call(this, session);
  const bool existed = channels_.count(name) > 0;
  Sink* sink = ChannelFor(name);
  const Status s =
      engine_->RegisterQuery(name, query_text, query_options, sink);
  if (!s.ok()) {
    // A failed deploy leaves no orphan channel. Keep one this call did not
    // create (AlreadyExists: the live query's), and one the engine still
    // holds (registered, then the WAL append failed).
    if (!existed && !engine_->GetQueryMetrics(name).ok()) {
      channels_.erase(name);
    }
    return s;
  }
  static_cast<ResultChannel*>(sink)->Attach(session);
  return Status::OK();
}

Status CeprServer::Undeploy(const std::string& name) {
  EngineCall call(this);
  CEPR_RETURN_IF_ERROR(engine_->RemoveQuery(name));
  // A redeploy under the same name starts from a fresh channel: no stale
  // `seen` count, no buffered frames of the removed query.
  channels_.erase(name);
  return Status::OK();
}

Result<uint64_t> CeprServer::Subscribe(const std::string& name,
                                       Session* session) {
  EngineCall call(this, session);
  auto metrics = engine_->GetQueryMetrics(name);
  if (!metrics.ok()) return metrics.status();
  auto* channel = static_cast<ResultChannel*>(ChannelFor(name));
  // The query's results counter persists across checkpoint/restore; what
  // this channel has not seen was delivered in a previous server life.
  uint64_t prior = metrics.value().results - channel->seen();
  channel->Attach(session);
  return prior;
}

Status CeprServer::FlushEngine(Session* session) {
  EngineCall call(this, session);
  return engine_->Flush();
}

Status CeprServer::FinishEngine(Session* session) {
  EngineCall call(this, session);
  engine_->Finish();
  return Status::OK();
}

std::string CeprServer::MetricsJson() {
  EngineCall call(this);
  return engine_->Snapshot().ToJson();
}

Status CeprServer::CheckpointNow() {
  EngineCall call(this);
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument("server has no data_dir");
  }
  CEPR_RETURN_IF_ERROR(engine_->SyncWal());
  return engine_->Checkpoint(SnapshotPath());
}

void CeprServer::DetachSession(Session* session) {
  EngineCall call(this);
  for (auto& [name, channel] : channels_) channel->Detach(session);
}

}  // namespace net
}  // namespace cepr
