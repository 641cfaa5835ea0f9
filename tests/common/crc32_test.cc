#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/random.h"
#include "testing/reference_crc.h"

namespace cepr {
namespace {

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Every length 0..4096 from each of the 8 start offsets: covers the
  // eight-byte main loop, every tail length, and unaligned loads.
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kAlignments = 8;
  Random rng(20);
  std::vector<uint8_t> buf(kMaxLen + kAlignments);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < kAlignments; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, len), testing::ReferenceCrc32(p, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

}  // namespace
}  // namespace cepr
