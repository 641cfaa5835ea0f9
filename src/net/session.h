#ifndef CEPR_NET_SESSION_H_
#define CEPR_NET_SESSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "event/schema.h"
#include "net/protocol.h"

namespace cepr {
namespace net {

class CeprServer;

/// Frames queued for one session are sent together once they pass this
/// many bytes, even mid engine call; it caps each session's send buffer.
inline constexpr size_t kSessionFlushBytes = 64u << 10;

/// One accepted connection: a thread reading request frames and answering
/// each with exactly one kReply. kResult frames for subscribed queries,
/// produced by whichever session thread is driving the engine, precede the
/// kReply of the request that caused them.
///
/// Outgoing frames are queued in a per-session buffer and leave in one
/// send(2) per request: a session's own results go out with its reply, and
/// results it receives from another session's engine call are sent before
/// that call releases the engine mutex (CeprServer::EngineCall). The socket
/// has TCP_NODELAY set, so no frame waits on Nagle's algorithm.
///
/// Error containment mirrors the WAL's two tiers: a frame-level violation
/// (CRC mismatch, oversized length, torn read) means the byte stream itself
/// is broken — the session sends a best-effort error reply and closes. A
/// body-level violation (unknown message type, malformed fields, an engine
/// error) is answered in-band and the session keeps serving.
class Session {
 public:
  Session(CeprServer* server, int fd, uint64_t id);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Spawns the serving thread.
  void Start();
  /// Forces the blocking read to return (shutdown(2) on the socket); the
  /// serving thread then winds down. Safe from any thread, idempotent.
  void Shutdown();
  /// Joins the serving thread.
  void Join();

  /// True once the serving thread has wound down (peer left or Shutdown);
  /// the session is then safe to Join and destroy.
  bool Finished() const { return done_.load(std::memory_order_acquire); }

  /// Appends one frame to the send buffer, behind the frames already there,
  /// and sends the buffer at once when it passes kSessionFlushBytes. Safe
  /// from any thread: the write mutex serializes the session's own replies
  /// against results queued by other sessions' engine calls. Once the
  /// session is broken (a failed write, or teardown), frames are dropped;
  /// the serving thread notices on its next read.
  void QueueFrame(const std::string& payload);

  /// Sends every queued frame in one send(2). A failed write marks the
  /// session broken.
  Status Flush();

  uint64_t id() const { return id_; }

 private:
  void Serve();
  /// Sends out_ and clears it; caller holds write_mu_.
  Status FlushLocked();
  /// Decodes one request payload, executes it, returns the encoded kReply.
  std::string Dispatch(const std::string& payload);

  CeprServer* server_;
  int fd_;
  const uint64_t id_;
  std::thread thread_;
  std::atomic<bool> done_{false};

  /// Guards the send buffer and every write to the socket.
  std::mutex write_mu_;
  std::string out_;  // queued frames, bounded by kSessionFlushBytes + 1 frame
  bool write_broken_ = false;

  /// Per-session stream handles: kBindStream appends each stream once,
  /// kEvent/kEventBatch index. Serving-thread only.
  std::vector<SchemaPtr> bindings_;
  bool saw_hello_ = false;
};

}  // namespace net
}  // namespace cepr

#endif  // CEPR_NET_SESSION_H_
