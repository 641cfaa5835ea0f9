#ifndef CEPR_NET_SESSION_H_
#define CEPR_NET_SESSION_H_

#include <atomic>
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

/// One accepted connection: a thread reading request frames and answering
/// each with exactly one kReply (kResult frames for subscribed queries may
/// interleave before it, pushed from whichever session thread is driving
/// the engine).
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

  /// Writes one frame to the peer, serialized against concurrent writers
  /// (the session's own replies vs. results pushed by other sessions'
  /// engine calls). Write failures mark the session broken; subsequent
  /// sends are dropped (the serving thread notices on its next read).
  Status SendFrame(const std::string& payload);

  uint64_t id() const { return id_; }

 private:
  void Serve();
  /// Decodes one request payload, executes it, returns the encoded kReply.
  std::string Dispatch(const std::string& payload);

  CeprServer* server_;
  int fd_;
  const uint64_t id_;
  std::thread thread_;
  std::atomic<bool> done_{false};

  std::mutex write_mu_;
  bool write_broken_ = false;

  /// Per-session stream handles: kBindStream appends each stream once,
  /// kEvent/kEventBatch index. Serving-thread only.
  std::vector<SchemaPtr> bindings_;
  bool saw_hello_ = false;
};

}  // namespace net
}  // namespace cepr

#endif  // CEPR_NET_SESSION_H_
