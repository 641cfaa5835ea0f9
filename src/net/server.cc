#include "net/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "net/session.h"

namespace cepr {
namespace net {

namespace {

/// Mode-erasing adapter over the two engine types. The sharded engine has
/// no RemoveQuery (queries are fixed at start); the divergence is absorbed
/// here so sessions never branch on the mode.
template <typename E>
class HostImpl : public EngineHost {
 public:
  explicit HostImpl(std::unique_ptr<E> engine) : engine_(std::move(engine)) {}

  Status ExecuteDdl(std::string_view ddl_text) override {
    return engine_->ExecuteDdl(ddl_text);
  }
  Result<SchemaPtr> GetSchema(std::string_view stream_name) override {
    return engine_->GetSchema(stream_name);
  }
  Status RegisterQuery(std::string name, std::string_view query_text,
                       const QueryOptions& options, Sink* sink) override {
    return engine_->RegisterQuery(std::move(name), query_text, options, sink);
  }
  Status RemoveQuery(std::string_view name) override {
    if constexpr (requires(E& e) { e.RemoveQuery(name); }) {
      return engine_->RemoveQuery(name);
    } else {
      return Status::Unimplemented(
          "undeploy requires the serial engine: sharded queries are fixed "
          "at start");
    }
  }
  Result<QueryMetrics> GetQueryMetrics(std::string_view name) override {
    return engine_->GetQueryMetrics(name);
  }
  Status Push(Event event) override { return engine_->Push(std::move(event)); }
  Status PushAll(std::vector<Event> events) override {
    return engine_->PushAll(std::move(events));
  }
  Status Flush() override { return engine_->Flush(); }
  void Finish() override { engine_->Finish(); }
  MetricsSnapshot Snapshot() override { return engine_->Snapshot(); }
  Status OpenWal(const std::string& path) override {
    return engine_->OpenWal(path);
  }
  Status SyncWal() override { return engine_->SyncWal(); }
  Status Checkpoint(const std::string& path) override {
    return engine_->Checkpoint(path);
  }
  Status Restore(const std::string& snapshot_path, const std::string& wal_path,
                 const SinkResolver& resolve) override {
    return engine_->Restore(snapshot_path, wal_path, resolve);
  }

 private:
  std::unique_ptr<E> engine_;
};

}  // namespace

// -- ResultChannel -----------------------------------------------------------

void ResultChannel::OnResult(const RankedResult& result) {
  ++seen_;
  std::string frame = EncodeResult(query_, result);
  if (subscriber_ != nullptr) {
    subscriber_->SendFrame(frame);  // broken pipes surface on the reader
  } else {
    buffered_.push_back(std::move(frame));
  }
}

void ResultChannel::Attach(Session* session) {
  for (const std::string& frame : buffered_) session->SendFrame(frame);
  buffered_.clear();
  subscriber_ = session;
}

void ResultChannel::Detach(Session* session) {
  if (subscriber_ == session) subscriber_ = nullptr;
}

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
    it = channels_.emplace(name, std::make_unique<ResultChannel>(name)).first;
  }
  return it->second.get();
}

Status CeprServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  if (options_.num_shards > 0) {
    ShardedEngineOptions opts = options_.sharded;
    opts.num_shards = options_.num_shards;
    host_ = std::make_unique<HostImpl<ShardedEngine>>(
        std::make_unique<ShardedEngine>(opts));
  } else {
    host_ = std::make_unique<HostImpl<Engine>>(
        std::make_unique<Engine>(options_.engine));
  }

  if (!options_.data_dir.empty()) {
    SinkResolver resolve = [this](const std::string& name) {
      return ChannelFor(name);
    };
    if (::access(SnapshotPath().c_str(), F_OK) == 0) {
      CEPR_RETURN_IF_ERROR(host_->Restore(SnapshotPath(), WalPath(), resolve));
    } else {
      // Fresh start: open the journal and cut checkpoint 0 before serving,
      // so every later crash restores from a snapshot (never a bare WAL).
      CEPR_RETURN_IF_ERROR(host_->OpenWal(WalPath()));
      CEPR_RETURN_IF_ERROR(host_->Checkpoint(SnapshotPath()));
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
    std::lock_guard<std::mutex> lk(engine_mu_);
    host_->SyncWal();
    host_->Checkpoint(SnapshotPath());
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
    std::lock_guard<std::mutex> elk(engine_mu_);
    // Best-effort: a failed background checkpoint leaves the previous
    // snapshot current (the write is atomic) and the next tick retries.
    host_->SyncWal();
    host_->Checkpoint(SnapshotPath());
  }
}

// -- Session-facing operations ----------------------------------------------

Status CeprServer::Ddl(const std::string& ddl_text) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  return host_->ExecuteDdl(ddl_text);
}

Result<SchemaPtr> CeprServer::LookupStream(const std::string& stream_name) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  return host_->GetSchema(stream_name);
}

Status CeprServer::PushEvent(Event event) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  return host_->Push(std::move(event));
}

Status CeprServer::PushBatch(std::vector<Event> events) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  return host_->PushAll(std::move(events));
}

Status CeprServer::Deploy(const std::string& name,
                          const std::string& query_text,
                          const QueryOptions& query_options, Session* session) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  Sink* sink = ChannelFor(name);
  CEPR_RETURN_IF_ERROR(
      host_->RegisterQuery(name, query_text, query_options, sink));
  static_cast<ResultChannel*>(sink)->Attach(session);
  return Status::OK();
}

Status CeprServer::Undeploy(const std::string& name) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  return host_->RemoveQuery(name);
}

Result<uint64_t> CeprServer::Subscribe(const std::string& name,
                                       Session* session) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  auto metrics = host_->GetQueryMetrics(name);
  if (!metrics.ok()) return metrics.status();
  auto* channel = static_cast<ResultChannel*>(ChannelFor(name));
  // The query's results counter persists across checkpoint/restore; what
  // this channel has not seen was delivered in a previous server life.
  uint64_t prior = metrics.value().results - channel->seen();
  channel->Attach(session);
  return prior;
}

Status CeprServer::FlushEngine() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  return host_->Flush();
}

Status CeprServer::FinishEngine() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  host_->Finish();
  return Status::OK();
}

std::string CeprServer::MetricsJson() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  return host_->Snapshot().ToJson();
}

Status CeprServer::CheckpointNow() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument("server has no data_dir");
  }
  CEPR_RETURN_IF_ERROR(host_->SyncWal());
  return host_->Checkpoint(SnapshotPath());
}

void CeprServer::DetachSession(Session* session) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  for (auto& [name, channel] : channels_) channel->Detach(session);
}

}  // namespace net
}  // namespace cepr
