#ifndef CEPR_RUNTIME_SERDE_H_
#define CEPR_RUNTIME_SERDE_H_

#include <unordered_map>
#include <vector>

#include "common/binio.h"
#include "engine/binding.h"
#include "engine/run.h"
#include "event/event.h"
#include "event/schema.h"

namespace cepr {

/// Shared binary encodings of the event-layer value types, used by both the
/// write-ahead journal (runtime/wal.*) and the snapshot format
/// (runtime/checkpoint.*). Every Load* mirrors its Save* exactly; all
/// decoding is bounds-checked through BinReader, and semantic violations
/// (unknown enum tags) mark the reader failed so the caller's ToStatus()
/// reports the offending offset.

void SaveValue(BinWriter* w, const Value& v);
bool LoadValue(BinReader* r, Value* out);

/// Event body: timestamp, sequence, type tag, values — everything except
/// the schema pointer, which the reader supplies from context (the stream
/// registry for checkpoints, null for WAL records that are re-bound at
/// replay time).
void SaveEventBody(BinWriter* w, const Event& e);
bool LoadEventBody(BinReader* r, SchemaPtr schema, Event* out);

/// Full schema: name plus attribute list with declared ranges, so a restore
/// into a pristine engine can re-register every stream byte-exactly.
void SaveSchema(BinWriter* w, const Schema& s);
Result<SchemaPtr> LoadSchema(BinReader* r);

/// Single-pass event interning for one serialization scope (one query's
/// state section). COW run bindings and retained matches share events
/// heavily; the interner writes each distinct Event object once and
/// back-references later occurrences:
///
///   [u32 ref]            ref <  table_size: reuse table[ref]
///   [u32 ref][body]      ref == table_size: new event, appended to table
///
/// The loader mirrors the table, so shared events come back as shared
/// pointers (memory parity; pointer identity within the scope preserved).
class EventInterner {
 public:
  explicit EventInterner(BinWriter* w) : w_(w) {}
  void Save(const EventPtr& event);

 private:
  BinWriter* w_;
  std::unordered_map<const Event*, uint32_t> ids_;
};

class EventUninterner {
 public:
  EventUninterner(BinReader* r, SchemaPtr schema)
      : r_(r), schema_(std::move(schema)) {}
  bool Load(EventPtr* out);

 private:
  BinReader* r_;
  SchemaPtr schema_;
  std::vector<EventPtr> table_;
};

/// Completed-match serialization (top-k heaps, naive-sort buffers, the
/// shard backend's pending/published result queues). Bound events go
/// through the scope's interner.
void SaveMatch(EventInterner* in, BinWriter* w, const Match& m);
bool LoadMatch(EventUninterner* in, BinReader* r, Match* out);

/// Per-query option block, shared by snapshot query registrations, WAL
/// deploy records and the network deploy message. Fault injectors are
/// runtime pointers and are never serialized: the restoring engine's
/// constructed options supply them (MergeEngineCaps runs again at
/// re-registration). Load validates every enum and marks the reader failed
/// on an out-of-range value. A layout change bumps ckpt::kVersion and
/// kProtocolVersion; WAL records carry no version, so a deploy record in an
/// older layout fails replay as kCorrupt.
struct QueryOptions;
void SaveQueryOptions(BinWriter* w, const QueryOptions& o);
bool LoadQueryOptions(BinReader* r, QueryOptions* o);

}  // namespace cepr

#endif  // CEPR_RUNTIME_SERDE_H_
