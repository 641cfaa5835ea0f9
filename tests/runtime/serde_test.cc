// Snapshot/WAL body decoders against hostile element counts: a short,
// well-formed prefix that claims 2^32-1 entries must fail the reader
// before anything is allocated for them (no std::bad_alloc, no gigabyte
// resize), exactly like a truncated body.

#include "runtime/serde.h"

#include <gtest/gtest.h>

#include <string>

#include "engine/run.h"

namespace cepr {
namespace {

constexpr uint32_t kHugeCount = 0xFFFFFFFFu;

// The fixed fields of a Match up to (not including) its binding count.
void MatchHeader(BinWriter* w) {
  w->U64(1);    // id
  w->U64(2);    // last_sequence
  w->I64(3);    // first_ts
  w->I64(4);    // last_ts
  w->F64(0.5);  // score
}

bool DecodeMatch(BinReader* r) {
  EventUninterner in(r, nullptr);
  Match m;
  bool ok = false;
  EXPECT_NO_THROW(ok = LoadMatch(&in, r, &m));
  return ok;
}

TEST(SerdeCountTest, EventValueCountBeyondBytesFails) {
  BinWriter w;
  w.I64(0);
  w.U64(0);
  w.Str("");
  w.U32(kHugeCount);
  const std::string bytes = w.Take();
  BinReader r(bytes);
  Event e;
  bool ok = true;
  EXPECT_NO_THROW(ok = LoadEventBody(&r, nullptr, &e));
  EXPECT_FALSE(ok);
  EXPECT_FALSE(r.ok());
}

TEST(SerdeCountTest, MatchBindingVarCountBeyondBytesFails) {
  BinWriter w;
  MatchHeader(&w);
  w.U32(kHugeCount);
  const std::string bytes = w.Take();
  BinReader r(bytes);
  EXPECT_FALSE(DecodeMatch(&r));
  EXPECT_FALSE(r.ok());
}

TEST(SerdeCountTest, MatchBoundEventCountBeyondBytesFails) {
  BinWriter w;
  MatchHeader(&w);
  w.U32(1);
  w.U32(kHugeCount);
  const std::string bytes = w.Take();
  BinReader r(bytes);
  EXPECT_FALSE(DecodeMatch(&r));
  EXPECT_FALSE(r.ok());
}

TEST(SerdeCountTest, MatchRowCountBeyondBytesFails) {
  BinWriter w;
  MatchHeader(&w);
  w.U32(0);
  w.U32(kHugeCount);
  const std::string bytes = w.Take();
  BinReader r(bytes);
  EXPECT_FALSE(DecodeMatch(&r));
  EXPECT_FALSE(r.ok());
}

TEST(SerdeCountTest, SchemaAttributeCountBeyondBytesFails) {
  BinWriter w;
  w.Str("Stock");
  w.U32(kHugeCount);
  const std::string bytes = w.Take();
  BinReader r(bytes);
  bool ok = true;
  EXPECT_NO_THROW(ok = LoadSchema(&r).ok());
  EXPECT_FALSE(ok);
  EXPECT_FALSE(r.ok());
}

TEST(SerdeCountTest, CountsThatFitStillDecode) {
  // The bound assumes each element's smallest encoding: a match made of
  // empty variables and null row values still round-trips.
  Match m;
  m.id = 7;
  m.bindings.resize(3);
  m.row = {Value::Null(), Value::Null()};
  BinWriter w;
  EventInterner interner(&w);
  SaveMatch(&interner, &w, m);
  const std::string bytes = w.Take();
  BinReader r(bytes);
  EventUninterner in(&r, nullptr);
  Match got;
  ASSERT_TRUE(LoadMatch(&in, &r, &got));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(got.id, 7u);
  EXPECT_EQ(got.bindings.size(), 3u);
  EXPECT_EQ(got.row.size(), 2u);
}

}  // namespace
}  // namespace cepr
