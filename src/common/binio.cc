#include "common/binio.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

namespace cepr {
namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: kCrc[0] is the
/// classic byte-at-a-time table, and kCrc[k][b] is the CRC of byte b
/// followed by k zero bytes, so one step folds eight input bytes.
struct CrcTables {
  uint32_t t[8][256];
};

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrc = MakeCrcTables();

/// Little-endian load, independent of host byte order and alignment.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open directory '" + dir +
                           "' for fsync: " + ErrnoString(errno));
  }
  if (::fsync(fd) != 0) {
    // Some filesystems refuse fsync on directories; that is not a caller
    // error, there is simply no directory durability to be had.
    if (errno != EINVAL && errno != EROFS) {
      const Status s = Status::IoError("fsync of directory '" + dir +
                                       "' failed: " + ErrnoString(errno));
      ::close(fd);
      return s;
    }
  }
  ::close(fd);
  return Status::OK();
}

uint32_t Crc32(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kCrc.t[7][lo & 0xFFu] ^ kCrc.t[6][(lo >> 8) & 0xFFu] ^
          kCrc.t[5][(lo >> 16) & 0xFFu] ^ kCrc.t[4][lo >> 24] ^
          kCrc.t[3][hi & 0xFFu] ^ kCrc.t[2][(hi >> 8) & 0xFFu] ^
          kCrc.t[1][(hi >> 16) & 0xFFu] ^ kCrc.t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = kCrc.t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace cepr
