#ifndef CEPR_TESTS_TESTING_REFERENCE_CRC_H_
#define CEPR_TESTS_TESTING_REFERENCE_CRC_H_

#include <cstddef>
#include <cstdint>

namespace cepr {
namespace testing {

/// The reference CRC-32 (IEEE 802.3 polynomial, zlib convention): one
/// table lookup per byte. The library computes it eight bytes per step
/// (common/binio.h Crc32); this plain form stays here as the oracle that
/// version is checked against, bit for bit.
uint32_t ReferenceCrc32(const void* data, size_t size);

}  // namespace testing
}  // namespace cepr

#endif  // CEPR_TESTS_TESTING_REFERENCE_CRC_H_
