#ifndef CEPR_NET_PROTOCOL_H_
#define CEPR_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "event/value.h"
#include "rank/ranker.h"

namespace cepr {
namespace net {

/// CEPR wire protocol, version 1. Every message travels in one frame using
/// the WAL's framing convention (runtime/wal.*), all little-endian:
///
///   [u32 payload_len][u32 crc32(payload)][payload]
///
/// payload = [u8 MsgType][body...]. The CRC makes torn or bit-flipped
/// frames detectable before a single body byte is decoded; a frame-level
/// violation (oversized length, CRC mismatch, torn read) means the byte
/// stream is unframeable and the session closes, while a *body*-level
/// violation (unknown type, malformed fields) is answered with an error
/// reply on an intact session.
/// v2: the kDeploy option block lost the four matcher ablation flags.
inline constexpr uint32_t kProtocolVersion = 2;

/// Frames larger than this are garbage (a bit-flipped length field), not
/// messages; same bound as the WAL scanner.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Events per kEventBatch message (sanity bound on the decode loop).
inline constexpr uint32_t kMaxBatchEvents = 1u << 20;

enum class MsgType : uint8_t {
  // -- client -> server ------------------------------------------------------
  /// [u32 protocol_version] — must be first on a session.
  kHello = 0,
  /// [str ddl_text] — CREATE STREAM.
  kDdl = 1,
  /// [str stream_name] -> reply payload [u32 binding]. Bindings are
  /// per-session handles so event frames carry 4 bytes, not a name.
  kBindStream = 2,
  /// [u32 binding][event body (serde SaveEventBody)] — single-event ingest.
  kEvent = 3,
  /// [u32 binding][u32 n][n * event body] — batched ingest (PushAll).
  kEventBatch = 4,
  /// [str name][str query_text][QueryOptions block] — hot deploy through
  /// the template registry, no drain. The deploying session is subscribed
  /// to the query's ranked results.
  kDeploy = 5,
  /// [str name] — hot remove (inline backend only).
  kUndeploy = 6,
  /// [str name] -> reply payload [u64 prior] (results the query delivered
  /// before this server life's buffering began — the recovered prefix
  /// length). Buffered results are flushed to the subscriber first.
  kSubscribe = 7,
  /// [] — drain every stream's reorder buffer.
  kFlush = 8,
  /// [] — end of stream: every query flushes its buffered windows.
  kFinish = 9,
  /// [] -> reply payload = MetricsSnapshot::ToJson().
  kMetrics = 10,
  /// [] — cut a checkpoint now (the background timer does this on an
  /// interval; this forces one).
  kCheckpoint = 11,

  // -- server -> client ------------------------------------------------------
  /// [u8 status_code][str message][str payload] — one per request, in
  /// order. kResult frames may interleave before the reply.
  kReply = 100,
  /// [str query][i64 window_id][u64 rank][u8 provisional][f64 score bits]
  /// [i64 first_ts][i64 last_ts][u64 last_sequence][u32 ncols][ncols*value]
  /// — one ranked result, pushed to the query's subscriber.
  kResult = 101,
};

/// One decoded kResult frame: the comparison surface of a RankedResult
/// (scores travel as IEEE-754 bit patterns, so ranked output over the wire
/// is bit-identical to an in-process run).
struct WireResult {
  std::string query;
  int64_t window_id = 0;
  uint64_t rank = 0;
  bool provisional = false;
  double score = 0.0;
  int64_t first_ts = 0;
  int64_t last_ts = 0;
  uint64_t last_sequence = 0;
  std::vector<Value> row;
};

// -- Framing over a connected socket ----------------------------------------

/// [u32 payload_len][u32 crc32(payload)].
inline constexpr size_t kFrameHeaderBytes = 8;

/// Appends one frame (header + payload) to `out`; kInvalidArgument, with
/// `out` untouched, for a payload over kMaxFrameBytes.
Status AppendFrame(const std::string& payload, std::string* out);

/// Writes `bytes` (whole frames, e.g. built with AppendFrame) to the socket:
/// one send(2) unless the socket buffer takes them in pieces. Retries on
/// EINTR/short writes; kIoError on failure.
Status SendBytes(int fd, const std::string& bytes);

/// Writes one frame, header and payload gathered into one send(2) without
/// copying the payload. Same verdicts as SendBytes.
Status WriteFrame(int fd, const std::string& payload);

/// Reads one frame (blocking), never reading past its end. kUnavailable
/// with message "connection closed" on clean EOF at a frame boundary (see
/// IsCleanClose); kCorrupt on an oversized length, CRC mismatch or torn
/// mid-frame EOF; kIoError on a socket error.
Status ReadFrame(int fd, std::string* payload);

/// True iff `s` is ReadFrame's clean end-of-stream verdict.
bool IsCleanClose(const Status& s);

/// Buffered ReadFrame for a peer that sends many small frames: each read(2)
/// takes whatever the socket holds (up to 64 KiB, more only to complete one
/// larger frame), and frames are cut from that buffer. Same verdicts as
/// ReadFrame. It owns the bytes it read ahead, so every read on its socket
/// must go through it.
class FrameReader {
 public:
  /// Starts reading `fd` (-1: none), discarding anything buffered.
  void Reset(int fd);

  Status Next(std::string* payload);

  /// True when a whole frame is buffered, so Next needs no read(2).
  bool HasFrame() const;

 private:
  /// Reads until `n` bytes are buffered. 1 on success; 0 on EOF with
  /// nothing buffered; -1 on EOF with a partial frame (errno 0) or on a
  /// socket error (errno set).
  int Fill(size_t n);

  int fd_ = -1;
  std::unique_ptr<char[]> buf_;
  size_t cap_ = 0;
  size_t begin_ = 0;  // first unconsumed byte
  size_t end_ = 0;    // one past the last byte read
};

// -- Message encoding helpers (shared by server and client) -----------------

/// [u8 kReply][u8 code][str message][str payload].
std::string EncodeReply(const Status& s, const std::string& payload);

/// Decodes a kReply payload (after the type byte was consumed).
bool DecodeReplyBody(BinReader* r, uint8_t* code, std::string* message,
                     std::string* payload);

/// [u8 kResult][...] for one ranked result of `query`.
std::string EncodeResult(const std::string& query, const RankedResult& res);

/// Decodes a kResult payload (after the type byte was consumed).
bool DecodeResultBody(BinReader* r, WireResult* out);

}  // namespace net
}  // namespace cepr

#endif  // CEPR_NET_PROTOCOL_H_
