#include "net/protocol.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include "runtime/serde.h"

namespace cepr {
namespace net {

namespace {

constexpr size_t kReadChunkBytes = 64u << 10;

/// Reads at least `min` (> 0) and at most `max` bytes into `buf`. Returns
/// the count read on success, 0 on EOF before the first byte (clean close),
/// -1 on EOF after some bytes or on a socket error (errno left set to 0 for
/// the torn-EOF case).
ssize_t ReadAtLeast(int fd, char* buf, size_t min, size_t max) {
  size_t got = 0;
  while (got < min) {
    ssize_t r = ::read(fd, buf + got, max - got);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return 0;
      errno = 0;
      return -1;
    }
    if (errno == EINTR) continue;
    return -1;
  }
  return static_cast<ssize_t>(got);
}

/// The one send path: writes every byte of `iov[0..count)`, advancing past
/// short writes. MSG_NOSIGNAL: a peer that slammed its socket shut must
/// surface as EPIPE on this write, not as a process-wide SIGPIPE. ENOTSOCK
/// falls back to writev so frames also work over pipes/files in tests and
/// tools.
Status SendAll(int fd, iovec* iov, int count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(count);
    ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::writev(fd, iov, count);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("frame write failed: " + ErrnoString(errno));
    }
    size_t sent = static_cast<size_t>(w);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

Status EncodeHeader(const std::string& payload,
                    char header[kFrameHeaderBytes]) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds 64MB limit");
  }
  const uint32_t fields[2] = {static_cast<uint32_t>(payload.size()),
                              Crc32(payload.data(), payload.size())};
  for (int f = 0; f < 2; ++f) {
    for (int i = 0; i < 4; ++i) {
      header[4 * f + i] = static_cast<char>(fields[f] >> (8 * i));
    }
  }
  return Status::OK();
}

/// Parses a received header; kCorrupt for a length over kMaxFrameBytes.
Status DecodeHeader(const char* header, uint32_t* len, uint32_t* crc) {
  BinReader hr(header, kFrameHeaderBytes);
  hr.U32(len);
  hr.U32(crc);
  if (*len > kMaxFrameBytes) {
    return Status::Corrupt("frame length " + std::to_string(*len) +
                           " exceeds 64MB limit");
  }
  return Status::OK();
}

Status CheckCrc(const char* payload, size_t len, uint32_t crc) {
  if (Crc32(payload, len) != crc) {
    return Status::Corrupt("frame checksum mismatch");
  }
  return Status::OK();
}

/// The verdict for a read that failed with ReadAtLeast's -1 inside `where`.
Status ReadFailure(const std::string& where) {
  if (errno == 0) return Status::Corrupt("torn frame: EOF inside " + where);
  return Status::IoError("frame read failed: " + ErrnoString(errno));
}

constexpr char kCleanCloseMessage[] = "connection closed";

}  // namespace

Status AppendFrame(const std::string& payload, std::string* out) {
  char header[kFrameHeaderBytes];
  CEPR_RETURN_IF_ERROR(EncodeHeader(payload, header));
  out->append(header, sizeof(header));
  out->append(payload);
  return Status::OK();
}

Status SendBytes(int fd, const std::string& bytes) {
  iovec iov{const_cast<char*>(bytes.data()), bytes.size()};
  return SendAll(fd, &iov, 1);
}

Status WriteFrame(int fd, const std::string& payload) {
  char header[kFrameHeaderBytes];
  CEPR_RETURN_IF_ERROR(EncodeHeader(payload, header));
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  return SendAll(fd, iov, 2);
}

Status ReadFrame(int fd, std::string* payload) {
  char header[kFrameHeaderBytes];
  ssize_t rc = ReadAtLeast(fd, header, sizeof(header), sizeof(header));
  if (rc == 0) return Status(StatusCode::kUnavailable, kCleanCloseMessage);
  if (rc < 0) return ReadFailure("header");
  uint32_t len = 0;
  uint32_t crc = 0;
  CEPR_RETURN_IF_ERROR(DecodeHeader(header, &len, &crc));
  payload->resize(len);
  if (len > 0) {
    rc = ReadAtLeast(fd, payload->data(), len, len);
    if (rc == 0) errno = 0;
    if (rc <= 0) return ReadFailure("payload");
  }
  return CheckCrc(payload->data(), payload->size(), crc);
}

void FrameReader::Reset(int fd) {
  fd_ = fd;
  buf_.reset();
  cap_ = begin_ = end_ = 0;
}

bool FrameReader::HasFrame() const {
  if (end_ - begin_ < kFrameHeaderBytes) return false;
  uint32_t len = 0;
  uint32_t crc = 0;
  // An oversized length counts as a frame: Next reports it without reading.
  if (!DecodeHeader(buf_.get() + begin_, &len, &crc).ok()) return true;
  return end_ - begin_ >= kFrameHeaderBytes + len;
}

int FrameReader::Fill(size_t n) {
  const size_t have = end_ - begin_;
  if (have >= n) return 1;
  if (cap_ - begin_ < n) {
    // Move the partial frame to the front; grow only for a frame larger
    // than the usual chunk. The buffer is left uninitialized: read(2)
    // touches only the bytes that arrive.
    if (cap_ < n) {
      const size_t cap = std::max(n, kReadChunkBytes);
      std::unique_ptr<char[]> grown(new char[cap]);
      if (have > 0) std::memcpy(grown.get(), buf_.get() + begin_, have);
      buf_ = std::move(grown);
      cap_ = cap;
    } else if (have > 0) {
      std::memmove(buf_.get(), buf_.get() + begin_, have);
    }
    begin_ = 0;
    end_ = have;
  }
  const ssize_t got =
      ReadAtLeast(fd_, buf_.get() + end_, n - have, cap_ - end_);
  if (got > 0) {
    end_ += static_cast<size_t>(got);
    return 1;
  }
  if (got == 0 && have > 0) {
    errno = 0;  // EOF inside a frame
    return -1;
  }
  return static_cast<int>(got);
}

Status FrameReader::Next(std::string* payload) {
  if (fd_ < 0) return Status::InvalidArgument("frame reader has no socket");
  if (end_ == begin_) {
    // Drained: drop a buffer grown for one large frame, reuse the rest.
    if (cap_ > kReadChunkBytes) {
      buf_.reset();
      cap_ = 0;
    }
    begin_ = end_ = 0;
  }
  int rc = Fill(kFrameHeaderBytes);
  if (rc == 0) return Status(StatusCode::kUnavailable, kCleanCloseMessage);
  if (rc < 0) return ReadFailure("header");
  uint32_t len = 0;
  uint32_t crc = 0;
  CEPR_RETURN_IF_ERROR(DecodeHeader(buf_.get() + begin_, &len, &crc));
  // The header is buffered, so EOF here is torn (-1), never clean (0).
  if (Fill(kFrameHeaderBytes + len) < 0) return ReadFailure("payload");
  const char* body = buf_.get() + begin_ + kFrameHeaderBytes;
  payload->assign(body, len);
  begin_ += kFrameHeaderBytes + len;
  return CheckCrc(body, len, crc);
}

bool IsCleanClose(const Status& s) {
  return s.code() == StatusCode::kUnavailable &&
         s.message() == kCleanCloseMessage;
}

std::string EncodeReply(const Status& s, const std::string& payload) {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kReply));
  w.U8(static_cast<uint8_t>(s.code()));
  w.Str(s.message());
  w.Str(payload);
  return w.Take();
}

bool DecodeReplyBody(BinReader* r, uint8_t* code, std::string* message,
                     std::string* payload) {
  return r->U8(code) && r->Str(message) && r->Str(payload);
}

std::string EncodeResult(const std::string& query, const RankedResult& res) {
  BinWriter w;
  w.U8(static_cast<uint8_t>(MsgType::kResult));
  w.Str(query);
  w.I64(res.window_id);
  w.U64(static_cast<uint64_t>(res.rank));
  w.Bool(res.provisional);
  w.F64(res.match.score);
  w.I64(res.match.first_ts);
  w.I64(res.match.last_ts);
  w.U64(res.match.last_sequence);
  w.U32(static_cast<uint32_t>(res.match.row.size()));
  for (const Value& v : res.match.row) SaveValue(&w, v);
  return w.Take();
}

bool DecodeResultBody(BinReader* r, WireResult* out) {
  uint32_t n = 0;
  if (!r->Str(&out->query) || !r->I64(&out->window_id) || !r->U64(&out->rank) ||
      !r->Bool(&out->provisional) || !r->F64(&out->score) ||
      !r->I64(&out->first_ts) || !r->I64(&out->last_ts) ||
      !r->U64(&out->last_sequence) || !r->U32(&n)) {
    return false;
  }
  if (n > r->remaining()) {  // each value occupies >= 1 byte
    r->Fail();
    return false;
  }
  out->row.clear();
  out->row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    if (!LoadValue(r, &v)) return false;
    out->row.push_back(std::move(v));
  }
  return true;
}

}  // namespace net
}  // namespace cepr
