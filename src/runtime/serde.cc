#include "runtime/serde.h"

#include <utility>

#include "runtime/query.h"

namespace cepr {
namespace {

// Reads a u32 element count and fails the reader when the bytes left
// cannot hold that many elements of at least `min_bytes` each, so a
// corrupt count is rejected before anything is reserved for it.
bool LoadCount(BinReader* r, size_t min_bytes, uint32_t* n) {
  if (!r->U32(n)) return false;
  if (*n > r->remaining() / min_bytes) {
    r->Fail();
    return false;
  }
  return true;
}

}  // namespace

void SaveValue(BinWriter* w, const Value& v) {
  w->U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w->Bool(v.AsBool());
      break;
    case ValueType::kInt:
      w->I64(v.AsInt());
      break;
    case ValueType::kFloat:
      w->F64(v.AsFloat());
      break;
    case ValueType::kString:
      w->Str(v.AsString());
      break;
  }
}

bool LoadValue(BinReader* r, Value* out) {
  uint8_t tag = 0;
  if (!r->U8(&tag)) return false;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return true;
    case ValueType::kBool: {
      bool b = false;
      if (!r->Bool(&b)) return false;
      *out = Value::Bool(b);
      return true;
    }
    case ValueType::kInt: {
      int64_t i = 0;
      if (!r->I64(&i)) return false;
      *out = Value::Int(i);
      return true;
    }
    case ValueType::kFloat: {
      double d = 0;
      if (!r->F64(&d)) return false;
      *out = Value::Float(d);
      return true;
    }
    case ValueType::kString: {
      std::string s;
      if (!r->Str(&s)) return false;
      *out = Value::String(std::move(s));
      return true;
    }
  }
  r->Fail();
  return false;
}

void SaveEventBody(BinWriter* w, const Event& e) {
  w->I64(e.timestamp());
  w->U64(e.sequence());
  w->Str(e.type_tag());
  w->U32(static_cast<uint32_t>(e.values().size()));
  for (const Value& v : e.values()) SaveValue(w, v);
}

bool LoadEventBody(BinReader* r, SchemaPtr schema, Event* out) {
  int64_t ts = 0;
  uint64_t seq = 0;
  std::string tag;
  uint32_t n = 0;
  if (!r->I64(&ts) || !r->U64(&seq) || !r->Str(&tag) ||
      !LoadCount(r, /*min_bytes=*/1, &n)) {  // a value is >= its tag byte
    return false;
  }
  std::vector<Value> values;
  values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    if (!LoadValue(r, &v)) return false;
    values.push_back(std::move(v));
  }
  *out = Event(std::move(schema), ts, std::move(values));
  out->set_sequence(seq);
  if (!tag.empty()) out->set_type_tag(std::move(tag));
  return true;
}

void SaveSchema(BinWriter* w, const Schema& s) {
  w->Str(s.name());
  w->U32(static_cast<uint32_t>(s.num_attributes()));
  for (const Attribute& a : s.attributes()) {
    w->Str(a.name);
    w->U8(static_cast<uint8_t>(a.type));
    w->Bool(a.range.has_value());
    if (a.range.has_value()) {
      w->F64(a.range->lo);
      w->F64(a.range->hi);
    }
  }
}

void EventInterner::Save(const EventPtr& event) {
  const auto it = ids_.find(event.get());
  if (it != ids_.end()) {
    w_->U32(it->second);
    return;
  }
  const uint32_t id = static_cast<uint32_t>(ids_.size());
  ids_.emplace(event.get(), id);
  w_->U32(id);
  SaveEventBody(w_, *event);
}

bool EventUninterner::Load(EventPtr* out) {
  uint32_t ref = 0;
  if (!r_->U32(&ref)) return false;
  if (ref < table_.size()) {
    *out = table_[ref];
    return true;
  }
  if (ref != table_.size()) {
    r_->Fail();  // forward reference: impossible in a well-formed stream
    return false;
  }
  Event event;
  if (!LoadEventBody(r_, schema_, &event)) return false;
  table_.push_back(std::make_shared<const Event>(std::move(event)));
  *out = table_.back();
  return true;
}

void SaveMatch(EventInterner* in, BinWriter* w, const Match& m) {
  w->U64(m.id);
  w->U64(m.last_sequence);
  w->I64(m.first_ts);
  w->I64(m.last_ts);
  w->F64(m.score);
  w->U32(static_cast<uint32_t>(m.bindings.size()));
  for (const auto& var : m.bindings) {
    w->U32(static_cast<uint32_t>(var.size()));
    for (const EventPtr& e : var) in->Save(e);
  }
  w->U32(static_cast<uint32_t>(m.row.size()));
  for (const Value& v : m.row) SaveValue(w, v);
}

bool LoadMatch(EventUninterner* in, BinReader* r, Match* out) {
  uint32_t num_vars = 0;
  if (!r->U64(&out->id) || !r->U64(&out->last_sequence) ||
      !r->I64(&out->first_ts) || !r->I64(&out->last_ts) ||
      !r->F64(&out->score) ||
      !LoadCount(r, /*min_bytes=*/4, &num_vars)) {  // each var's u32 count
    return false;
  }
  out->bindings.clear();
  out->bindings.resize(num_vars);
  for (uint32_t v = 0; v < num_vars; ++v) {
    uint32_t n = 0;
    if (!LoadCount(r, /*min_bytes=*/4, &n)) return false;  // u32 event refs
    out->bindings[v].reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      EventPtr e;
      if (!in->Load(&e)) return false;
      out->bindings[v].push_back(std::move(e));
    }
  }
  uint32_t num_row = 0;
  if (!LoadCount(r, /*min_bytes=*/1, &num_row)) return false;
  out->row.clear();
  out->row.reserve(num_row);
  for (uint32_t i = 0; i < num_row; ++i) {
    Value v;
    if (!LoadValue(r, &v)) return false;
    out->row.push_back(std::move(v));
  }
  return true;
}

Result<SchemaPtr> LoadSchema(BinReader* r) {
  std::string name;
  uint32_t n = 0;
  // An attribute is at least its name length, type and range flag.
  if (!r->Str(&name) || !LoadCount(r, /*min_bytes=*/6, &n)) {
    return r->ToStatus("schema");
  }
  std::vector<Attribute> attrs;
  attrs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Attribute a;
    uint8_t type = 0;
    bool has_range = false;
    if (!r->Str(&a.name) || !r->U8(&type) || !r->Bool(&has_range)) {
      return r->ToStatus("schema attribute");
    }
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      r->Fail();
      return r->ToStatus("schema attribute type");
    }
    a.type = static_cast<ValueType>(type);
    if (has_range) {
      AttributeRange range;
      if (!r->F64(&range.lo) || !r->F64(&range.hi)) {
        return r->ToStatus("schema attribute range");
      }
      a.range = range;
    }
    attrs.push_back(std::move(a));
  }
  return Schema::Make(std::move(name), std::move(attrs));
}

void SaveQueryOptions(BinWriter* w, const QueryOptions& o) {
  w->U8(static_cast<uint8_t>(o.ranker));
  w->U64(static_cast<uint64_t>(o.matcher.max_active_runs));
  w->U64(static_cast<uint64_t>(o.matcher.max_total_runs));
  w->U8(static_cast<uint8_t>(o.matcher.shed_policy));
  w->U8(static_cast<uint8_t>(o.matcher.fault_policy));
}

bool LoadQueryOptions(BinReader* r, QueryOptions* o) {
  uint8_t ranker = 0, shed = 0, fault = 0;
  uint64_t max_active = 0, max_total = 0;
  if (!r->U8(&ranker) || !r->U64(&max_active) || !r->U64(&max_total) ||
      !r->U8(&shed) || !r->U8(&fault)) {
    return false;
  }
  if (ranker > static_cast<uint8_t>(RankerPolicy::kPruned) ||
      shed > static_cast<uint8_t>(ShedPolicy::kShedLowestScoreBound) ||
      fault > static_cast<uint8_t>(FaultPolicy::kSkipAndCount)) {
    r->Fail();
    return false;
  }
  o->ranker = static_cast<RankerPolicy>(ranker);
  o->matcher.max_active_runs = static_cast<size_t>(max_active);
  o->matcher.max_total_runs = static_cast<size_t>(max_total);
  o->matcher.shed_policy = static_cast<ShedPolicy>(shed);
  o->matcher.fault_policy = static_cast<FaultPolicy>(fault);
  return true;
}

}  // namespace cepr
