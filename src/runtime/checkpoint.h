#ifndef CEPR_RUNTIME_CHECKPOINT_H_
#define CEPR_RUNTIME_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/fault.h"
#include "common/result.h"
#include "common/status.h"

namespace cepr {

class Sink;

/// Supplies each restored query's sink during Engine::Restore. Sinks hold
/// user callbacks and cannot live inside
/// a snapshot, so recovery re-wires them by query name; returning null
/// drops that query's results (same contract as RegisterQuery).
using SinkResolver = std::function<Sink*(const std::string& query_name)>;

namespace ckpt {

/// Snapshot file layout, all little-endian:
///
///   [8-byte magic "CEPRCKPT"][u32 version][u32 body_len][u32 crc32(body)]
///   [body]
///
/// The body is one opaque BinWriter blob produced by Engine::SaveBody: a
/// common prefix (options — the shard count, which Restore checks, first —
/// WAL cut, streams, engine counters, query registrations) then the
/// execution backend's own section. The frame makes truncation and bit flips detectable before a
/// single body byte is decoded. Files are written atomically: the full
/// image goes to "<path>.tmp", is fsynced, then renamed over `path`, so a
/// crash mid-checkpoint leaves either the old snapshot or none — never a
/// half-written one (the `ckpt.kill_mid_write` fault point simulates
/// exactly that crash by abandoning the temp file).
inline constexpr char kMagic[8] = {'C', 'E', 'P', 'R', 'C', 'K', 'P', 'T'};
/// v2: MatcherStats gained the dag counters, matcher bodies gained the
/// DAG-group section, ranker bodies gained enumeration counters + pending
/// lazy sets (the shared-match-DAG feature).
/// v3: the engine option blocks lost the legacy out-of-order and batched-
/// ingest switches, and every query option block lost the four matcher
/// ablation flags (one matcher path per mechanism).
/// v4: one body layout for both backends — the shared prefix carries every
/// option (shard count included) and the query registrations in
/// registration order, followed by the backend's section; the header's
/// engine-kind byte is gone (the shard count says it).
/// Older snapshots are rejected.
inline constexpr uint32_t kVersion = 4;

/// Frames `body` and writes it atomically to `path`. `attempt` is the
/// engine's checkpoint ordinal — the key the `ckpt.kill_mid_write` fault
/// point fires on (a firing writes a deliberately truncated temp file and
/// returns kIoError without renaming). On success *bytes_written is the
/// full snapshot file size.
Status WriteSnapshotFile(const std::string& path, const std::string& body,
                         const FaultInjector* injector, uint64_t attempt,
                         uint64_t* bytes_written);

/// Reads `path`, validates magic/version/length/CRC, and returns the body.
/// Truncated or bit-flipped files fail with kCorrupt naming the file and
/// offset; a missing file is kNotFound.
Result<std::string> ReadSnapshotBody(const std::string& path);

}  // namespace ckpt
}  // namespace cepr

#endif  // CEPR_RUNTIME_CHECKPOINT_H_
