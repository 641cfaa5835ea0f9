#include "net/client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "runtime/serde.h"

namespace cepr {
namespace net {

CeprClient::~CeprClient() { Close(); }

void CeprClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.Reset(-1);
}

Status CeprClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("client already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IoError("socket: " + ErrnoString(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad server address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IoError("connect to " + host + ":" +
                               std::to_string(port) + ": " +
                               ErrnoString(errno));
    Close();
    return s;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  reader_.Reset(fd_);

  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kHello));
  w.U32(kProtocolVersion);
  auto reply = CallRaw(w.Take());
  if (!reply.ok()) {
    Close();
    return reply.status();
  }
  return Status::OK();
}

Status CeprClient::Ddl(const std::string& ddl_text) {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kDdl));
  w.Str(ddl_text);
  return Call(w.Take());
}

Result<uint32_t> CeprClient::BindStream(const std::string& stream_name) {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kBindStream));
  w.Str(stream_name);
  auto reply = CallRaw(w.Take());
  if (!reply.ok()) return reply.status();
  BinReader r(reply.value());
  uint32_t binding = 0;
  if (!r.U32(&binding) || !r.AtEnd()) {
    return Status::Corrupt("malformed kBindStream reply payload");
  }
  return binding;
}

Status CeprClient::Push(uint32_t binding, const Event& event) {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kEvent));
  w.U32(binding);
  SaveEventBody(&w, event);
  return Call(w.Take());
}

Status CeprClient::PushBatch(uint32_t binding,
                             const std::vector<Event>& events) {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kEventBatch));
  w.U32(binding);
  w.U32(static_cast<uint32_t>(events.size()));
  for (const Event& e : events) SaveEventBody(&w, e);
  return Call(w.Take());
}

Status CeprClient::Deploy(const std::string& name,
                          const std::string& query_text,
                          const QueryOptions& options) {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kDeploy));
  w.Str(name);
  w.Str(query_text);
  SaveQueryOptions(&w, options);
  return Call(w.Take());
}

Status CeprClient::Undeploy(const std::string& name) {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kUndeploy));
  w.Str(name);
  return Call(w.Take());
}

Result<uint64_t> CeprClient::Subscribe(const std::string& query) {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kSubscribe));
  w.Str(query);
  auto reply = CallRaw(w.Take());
  if (!reply.ok()) return reply.status();
  BinReader r(reply.value());
  uint64_t prior = 0;
  if (!r.U64(&prior) || !r.AtEnd()) {
    return Status::Corrupt("malformed kSubscribe reply payload");
  }
  return prior;
}

Status CeprClient::Flush() {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kFlush));
  return Call(w.Take());
}

Status CeprClient::Finish() {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kFinish));
  return Call(w.Take());
}

Result<std::string> CeprClient::MetricsJson() {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kMetrics));
  return CallRaw(w.Take());
}

Status CeprClient::TriggerCheckpoint() {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kCheckpoint));
  return Call(w.Take());
}

Status CeprClient::PollResults(int timeout_ms) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  std::string payload;
  while (true) {
    if (!reader_.HasFrame()) {
      pollfd p{fd_, POLLIN, 0};
      int rc = ::poll(&p, 1, timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("poll: " + ErrnoString(errno));
      }
      if (rc == 0) return Status::OK();  // quiet: everything queued is drained
    }
    CEPR_RETURN_IF_ERROR(reader_.Next(&payload));
    BinReader r(payload);
    uint8_t type = 0;
    if (!r.U8(&type) || type != static_cast<uint8_t>(MsgType::kResult)) {
      return Status::Corrupt("unexpected frame while polling for results");
    }
    CEPR_RETURN_IF_ERROR(StashResult(&r));
    timeout_ms = 0;  // drain what is queued, do not wait again
  }
}

const std::vector<WireResult>& CeprClient::results(
    const std::string& query) const {
  static const std::vector<WireResult> kEmpty;
  auto it = results_.find(query);
  return it == results_.end() ? kEmpty : it->second;
}

std::vector<WireResult> CeprClient::TakeResults(const std::string& query) {
  auto it = results_.find(query);
  if (it == results_.end()) return {};
  std::vector<WireResult> out = std::move(it->second);
  results_.erase(it);
  return out;
}

Status CeprClient::StashResult(BinReader* r) {
  WireResult res;
  if (!DecodeResultBody(r, &res) || !r->AtEnd()) {
    return Status::Corrupt("malformed kResult frame");
  }
  results_[res.query].push_back(std::move(res));
  return Status::OK();
}

Result<std::string> CeprClient::CallRaw(std::string payload) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  CEPR_RETURN_IF_ERROR(WriteFrame(fd_, payload));
  payload.clear();
  payload.shrink_to_fit();
  std::string frame;
  while (true) {
    CEPR_RETURN_IF_ERROR(reader_.Next(&frame));
    BinReader r(frame);
    uint8_t type = 0;
    if (!r.U8(&type)) return Status::Corrupt("empty frame from server");
    if (type == static_cast<uint8_t>(MsgType::kResult)) {
      CEPR_RETURN_IF_ERROR(StashResult(&r));
      continue;
    }
    if (type != static_cast<uint8_t>(MsgType::kReply)) {
      return Status::Corrupt("unexpected frame type " + std::to_string(type) +
                             " from server");
    }
    uint8_t code = 0;
    std::string message;
    std::string reply_payload;
    if (!DecodeReplyBody(&r, &code, &message, &reply_payload) || !r.AtEnd()) {
      return Status::Corrupt("malformed kReply frame");
    }
    if (code != static_cast<uint8_t>(StatusCode::kOk)) {
      return Status(static_cast<StatusCode>(code), std::move(message));
    }
    return reply_payload;
  }
}

Status CeprClient::Call(std::string payload) {
  auto reply = CallRaw(std::move(payload));
  return reply.ok() ? Status::OK() : reply.status();
}

}  // namespace net
}  // namespace cepr
