#ifndef CEPR_NET_CLIENT_H_
#define CEPR_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "event/event.h"
#include "net/protocol.h"
#include "runtime/query.h"

namespace cepr {
namespace net {

/// Synchronous client for the CeprServer wire protocol: one socket, one
/// request in flight. Every request blocks until its kReply arrives; kResult
/// frames that interleave before the reply (ranked results of subscribed
/// queries, which may be produced by ANY session's pushes) are stashed into
/// per-query vectors, readable via results() / TakeResults().
///
/// The socket has TCP_NODELAY set. Requests leave as one gathered send;
/// replies and results are cut from a buffered reader, so a burst of small
/// kResult frames costs about one read(2), not two per frame.
///
/// Not thread-safe: one thread drives a client. Used by the server tests,
/// the E20 benchmark and examples/cepr_client.
class CeprClient {
 public:
  CeprClient() = default;
  ~CeprClient();

  CeprClient(const CeprClient&) = delete;
  CeprClient& operator=(const CeprClient&) = delete;

  /// Connects and performs the kHello version handshake.
  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // -- Requests (one kReply each) -------------------------------------------

  Status Ddl(const std::string& ddl_text);
  /// Binds a stream name to a compact per-session handle for event frames.
  Result<uint32_t> BindStream(const std::string& stream_name);
  /// Single-event ingest. The client does not need the stream's schema:
  /// the event body carries timestamp and values, and the server re-binds
  /// the schema from the binding (same convention as WAL event records).
  Status Push(uint32_t binding, const Event& event);
  Status PushBatch(uint32_t binding, const std::vector<Event>& events);
  /// Hot-deploys a query and subscribes this session to its results.
  Status Deploy(const std::string& name, const std::string& query_text,
                const QueryOptions& options);
  Status Undeploy(const std::string& name);
  /// Subscribes to an existing query's results: buffered results flush to
  /// this session first, and the returned count says how many results were
  /// already delivered in previous server lives (and will never arrive).
  Result<uint64_t> Subscribe(const std::string& query);
  Status Flush();
  Status Finish();
  Result<std::string> MetricsJson();
  Status TriggerCheckpoint();

  // -- Results --------------------------------------------------------------

  /// Drains result frames already queued on the socket without sending a
  /// request, waiting up to `timeout_ms` for the first one (0 = only what
  /// is already readable). Stops at the first quiet poll interval.
  Status PollResults(int timeout_ms);

  /// Ranked results received for `query` so far, arrival order.
  const std::vector<WireResult>& results(const std::string& query) const;
  std::vector<WireResult> TakeResults(const std::string& query);

 private:
  /// Sends one request frame, then reads frames until the kReply, stashing
  /// interleaved kResult frames. Returns the reply payload; a non-OK reply
  /// status comes back as the error. The request bytes are released once
  /// sent, so a large batch is not held while the server works on it.
  Result<std::string> CallRaw(std::string payload);
  /// CallRaw for requests whose reply payload is empty/ignored.
  Status Call(std::string payload);
  /// Decodes and stashes one kResult payload (sans type byte).
  Status StashResult(BinReader* r);

  int fd_ = -1;
  FrameReader reader_;
  std::map<std::string, std::vector<WireResult>> results_;
};

}  // namespace net
}  // namespace cepr

#endif  // CEPR_NET_CLIENT_H_
