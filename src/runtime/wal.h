#ifndef CEPR_RUNTIME_WAL_H_
#define CEPR_RUNTIME_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "event/event.h"

namespace cepr {

/// One journal record. Events are logged as they *arrive* (after schema
/// validation, before the reorder buffer sees them), not as they are
/// released: replaying arrivals through the normal ingest path reproduces
/// the reorder buffer's release order, sequence stamping and late verdicts
/// exactly, so recovery needs no second code path. Explicit Flush() calls
/// are journaled too — a flush changes the release frontier, so replay must
/// reproduce it at the same position.
///
/// Registrations are journaled as well (kSchema / kDeploy / kUndeploy), so
/// a query deployed on a live server between two checkpoints survives a
/// crash: replay re-registers it at exactly the stream position it joined.
/// Registration payloads are opaque serde blobs encoded by the engine
/// (SaveSchema; query text + SaveQueryOptions) — the WAL layer frames
/// them without understanding them.
struct WalRecord {
  enum class Kind : uint8_t {
    kEvent = 0,
    kFlush = 1,
    kSchema = 2,    // stream registration: payload = SaveSchema blob
    kDeploy = 3,    // query registration: name + payload (text, options)
    kUndeploy = 4,  // query removal: name
  };
  Kind kind = Kind::kEvent;
  /// Target stream (kEvent only).
  std::string stream;
  /// Schema-less event body (kEvent only); re-bound to the registered
  /// schema at replay time.
  Event event;
  /// Query name (kDeploy / kUndeploy only).
  std::string name;
  /// Opaque registration blob (kSchema / kDeploy only).
  std::string payload;
};

/// Append-only CRC-framed event journal. Frame layout, all little-endian:
///
///   [u32 payload_len][u32 crc32(payload)][payload]
///
/// On open, an existing file is scanned front to back; a torn tail (partial
/// frame or CRC mismatch at the end, the signature of a crash mid-append)
/// is truncated away and appending resumes after the last valid record —
/// the same recovery convention as LevelDB's log reader.
///
/// Single-writer: owned by the engine's ingest thread.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter() { Close(); }
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (or creates) the journal at `path` for appending, scanning any
  /// existing content in fixed-size chunks (memory stays bounded however
  /// large the log grew). After Open, records() is the number of valid
  /// records already in the file. A newly created file is made durable by
  /// fsyncing the parent directory. `injector` (optional, not owned)
  /// drives the `wal.torn_tail` crash point.
  Status Open(const std::string& path, const FaultInjector* injector = nullptr);

  /// Appends one arrival record. The event's schema pointer is not
  /// serialized; the stream name re-binds it at replay.
  Status AppendEvent(const std::string& stream, const Event& event);

  /// Appends a flush marker.
  Status AppendFlush();

  /// Appends a stream registration (`schema_blob` = SaveSchema output).
  Status AppendSchema(const std::string& schema_blob);

  /// Appends a query registration (`blob` = query text + options, encoded
  /// by the engine) / removal.
  Status AppendDeploy(const std::string& name, const std::string& blob);
  Status AppendUndeploy(const std::string& name);

  /// Forces appended records to stable storage (fdatasync).
  Status Sync();

  void Close();

  bool is_open() const { return fd_ >= 0; }
  /// Valid records in the file: scanned at open + appended since.
  uint64_t records() const { return records_; }
  const std::string& path() const { return path_; }

 private:
  Status AppendPayload(const std::string& payload);

  int fd_ = -1;
  std::string path_;
  uint64_t records_ = 0;
  const FaultInjector* injector_ = nullptr;
  /// Set after an injected torn append: the simulated process is dead, all
  /// further appends fail.
  bool torn_ = false;
};

/// Reads every valid record of a journal file. Stops cleanly at the first
/// bad frame: a torn tail is expected after a crash and is not an error
/// (the dropped byte count is reported so callers can log it); an
/// unopenable file is kIoError.
class WalReader {
 public:
  static Status ReadAll(const std::string& path, std::vector<WalRecord>* out,
                        uint64_t* dropped_bytes = nullptr);
};

}  // namespace cepr

#endif  // CEPR_RUNTIME_WAL_H_
