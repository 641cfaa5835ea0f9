#include "net/session.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "net/server.h"
#include "runtime/serde.h"

namespace cepr {
namespace net {

Session::Session(CeprServer* server, int fd, uint64_t id)
    : server_(server), fd_(fd), id_(id) {}

Session::~Session() {
  Join();
  if (fd_ >= 0) ::close(fd_);
}

void Session::Start() {
  thread_ = std::thread([this] { Serve(); });
}

void Session::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Session::Join() {
  if (thread_.joinable()) thread_.join();
}

void Session::QueueFrame(const std::string& payload) {
  std::lock_guard<std::mutex> lk(write_mu_);
  if (write_broken_) return;
  if (!AppendFrame(payload, &out_).ok()) {
    write_broken_ = true;
    out_.clear();
    return;
  }
  if (out_.size() > kSessionFlushBytes) FlushLocked();
}

Status Session::Flush() {
  std::lock_guard<std::mutex> lk(write_mu_);
  return FlushLocked();
}

Status Session::FlushLocked() {
  if (write_broken_) return Status::Unavailable("session write side broken");
  if (out_.empty()) return Status::OK();
  Status s = SendBytes(fd_, out_);
  out_.clear();
  if (!s.ok()) write_broken_ = true;
  return s;
}

void Session::Serve() {
  while (true) {
    std::string payload;
    Status s = ReadFrame(fd_, &payload);
    if (!s.ok()) {
      // Frame-level failure: the byte stream itself is unframeable (or the
      // peer left). Tell the peer why if the pipe still works, then close.
      if (!IsCleanClose(s)) {
        QueueFrame(EncodeReply(s, ""));
        Flush();
      }
      break;
    }
    // Results this request produced are already queued; the reply joins
    // them and everything leaves in one send.
    QueueFrame(Dispatch(payload));
    if (!Flush().ok()) break;
  }
  server_->DetachSession(this);
  {
    std::lock_guard<std::mutex> lk(write_mu_);
    write_broken_ = true;  // drop result frames still in flight to us
    out_.clear();
  }
  done_.store(true, std::memory_order_release);
}

std::string Session::Dispatch(const std::string& payload) {
  BinReader r(payload);
  uint8_t type_byte = 0;
  if (!r.U8(&type_byte)) {
    return EncodeReply(Status::InvalidArgument("empty message"), "");
  }
  const MsgType type = static_cast<MsgType>(type_byte);

  if (!saw_hello_ && type != MsgType::kHello) {
    return EncodeReply(
        Status::InvalidArgument("expected kHello as the first message"), "");
  }

  switch (type) {
    case MsgType::kHello: {
      uint32_t version = 0;
      if (!r.U32(&version) || !r.AtEnd()) break;
      if (version != kProtocolVersion) {
        return EncodeReply(
            Status::InvalidArgument(
                "unsupported protocol version " + std::to_string(version) +
                " (server speaks " + std::to_string(kProtocolVersion) + ")"),
            "");
      }
      saw_hello_ = true;
      BinWriter w;
      w.U32(kProtocolVersion);
      return EncodeReply(Status::OK(), w.Take());
    }

    case MsgType::kDdl: {
      std::string text;
      if (!r.Str(&text) || !r.AtEnd()) break;
      return EncodeReply(server_->Ddl(text), "");
    }

    case MsgType::kBindStream: {
      std::string stream;
      if (!r.Str(&stream) || !r.AtEnd()) break;
      auto schema = server_->LookupStream(stream);
      if (!schema.ok()) return EncodeReply(schema.status(), "");
      // Rebinding returns the existing handle (a stream's schema object is
      // fixed for the server's life), so a looping client cannot grow the
      // table.
      const size_t id = static_cast<size_t>(
          std::find(bindings_.begin(), bindings_.end(), schema.value()) -
          bindings_.begin());
      if (id == bindings_.size()) bindings_.push_back(schema.value());
      BinWriter w;
      w.U32(static_cast<uint32_t>(id));
      return EncodeReply(Status::OK(), w.Take());
    }

    case MsgType::kEvent: {
      uint32_t binding = 0;
      if (!r.U32(&binding)) break;
      if (binding >= bindings_.size()) {
        return EncodeReply(
            Status::InvalidArgument("unknown stream binding " +
                                    std::to_string(binding)),
            "");
      }
      Event event;
      if (!LoadEventBody(&r, bindings_[binding], &event) || !r.AtEnd()) break;
      return EncodeReply(server_->PushEvent(std::move(event), this), "");
    }

    case MsgType::kEventBatch: {
      uint32_t binding = 0;
      uint32_t n = 0;
      if (!r.U32(&binding) || !r.U32(&n)) break;
      if (binding >= bindings_.size()) {
        return EncodeReply(
            Status::InvalidArgument("unknown stream binding " +
                                    std::to_string(binding)),
            "");
      }
      if (n > kMaxBatchEvents) {
        return EncodeReply(
            Status::InvalidArgument("batch of " + std::to_string(n) +
                                    " events exceeds the per-message bound"),
            "");
      }
      // Check every body before any is ingested, so a malformed batch is
      // rejected whole; the server decodes them again as it pushes.
      BinReader check = r;
      Event scratch;
      bool bad = false;
      for (uint32_t i = 0; i < n && !bad; ++i) {
        bad = !LoadEventBody(&check, bindings_[binding], &scratch);
      }
      if (bad || !check.AtEnd()) {
        r = check;
        break;
      }
      return EncodeReply(
          server_->PushBatch(&r, n, bindings_[binding], this), "");
    }

    case MsgType::kDeploy: {
      std::string name;
      std::string text;
      QueryOptions qopts;
      if (!r.Str(&name) || !r.Str(&text) || !LoadQueryOptions(&r, &qopts) ||
          !r.AtEnd()) {
        break;
      }
      return EncodeReply(server_->Deploy(name, text, qopts, this), "");
    }

    case MsgType::kUndeploy: {
      std::string name;
      if (!r.Str(&name) || !r.AtEnd()) break;
      return EncodeReply(server_->Undeploy(name), "");
    }

    case MsgType::kSubscribe: {
      std::string name;
      if (!r.Str(&name) || !r.AtEnd()) break;
      auto prior = server_->Subscribe(name, this);
      if (!prior.ok()) return EncodeReply(prior.status(), "");
      BinWriter w;
      w.U64(prior.value());
      return EncodeReply(Status::OK(), w.Take());
    }

    case MsgType::kFlush: {
      if (!r.AtEnd()) break;
      return EncodeReply(server_->FlushEngine(this), "");
    }

    case MsgType::kFinish: {
      if (!r.AtEnd()) break;
      return EncodeReply(server_->FinishEngine(this), "");
    }

    case MsgType::kMetrics: {
      if (!r.AtEnd()) break;
      return EncodeReply(Status::OK(), server_->MetricsJson());
    }

    case MsgType::kCheckpoint: {
      if (!r.AtEnd()) break;
      return EncodeReply(server_->CheckpointNow(), "");
    }

    case MsgType::kReply:
    case MsgType::kResult:
      return EncodeReply(
          Status::InvalidArgument("server-to-client message type " +
                                  std::to_string(type_byte) +
                                  " sent by client"),
          "");

    default:
      return EncodeReply(Status::Unimplemented("unknown message type " +
                                               std::to_string(type_byte)),
                         "");
  }

  // A case broke out: the body failed bounds/validation checks. The frame
  // itself was intact (CRC passed), so the session survives.
  Status body =
      r.ToStatus("message type " + std::to_string(type_byte) + " body");
  if (body.ok()) {
    body = Status::InvalidArgument("message type " +
                                   std::to_string(type_byte) +
                                   " body has trailing bytes");
  }
  return EncodeReply(body, "");
}

}  // namespace net
}  // namespace cepr
