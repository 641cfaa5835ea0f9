#ifndef CEPR_COMMON_BINIO_H_
#define CEPR_COMMON_BINIO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"

namespace cepr {

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) over `size` bytes,
/// computed eight bytes per step (slicing-by-8). Used to frame every
/// checkpoint section, WAL record and wire frame, so torn or bit-flipped
/// bytes fail validation instead of deserializing garbage.
uint32_t Crc32(const void* data, size_t size);

/// Fsyncs the directory containing `path`. Creating a file (WAL O_CREAT)
/// or renaming one into place (snapshot publish) updates the *directory*,
/// and that update is not durable until the directory inode itself is
/// synced — a crash after an un-synced rename can lose the filename even
/// though the file's bytes were fsynced. POSIX allows fsync on a directory
/// fd opened O_RDONLY; filesystems that reject it (EINVAL) get a pass, as
/// there is nothing more we can do there.
Status FsyncParentDir(const std::string& path);

/// Little-endian append-only encoder for the checkpoint/WAL formats. All
/// multi-byte integers are written byte-by-byte, so the format is identical
/// across host endianness and free of alignment hazards.
class BinWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  /// Doubles travel as their IEEE-754 bit pattern — bit-identical recovery
  /// depends on never round-tripping scores through decimal text.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void Raw(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked decoder over a byte range. Failure is sticky: the first
/// out-of-bounds read marks the reader failed, every subsequent read returns
/// false/defaults, and `ToStatus()` reports the byte offset where decoding
/// ran off the rails. Callers may therefore decode a whole section and check
/// once at the end.
class BinReader {
 public:
  BinReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit BinReader(const std::string& s) : BinReader(s.data(), s.size()) {}

  bool U8(uint8_t* out) {
    if (!Need(1)) return false;
    *out = data_[pos_++];
    return true;
  }
  bool U32(uint32_t* out) {
    if (!Need(4)) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *out = v;
    return true;
  }
  bool U64(uint64_t* out) {
    if (!Need(8)) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *out = v;
    return true;
  }
  bool I64(int64_t* out) {
    uint64_t v = 0;
    if (!U64(&v)) return false;
    *out = static_cast<int64_t>(v);
    return true;
  }
  bool F64(double* out) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(bits));
    return true;
  }
  bool Bool(bool* out) {
    uint8_t v = 0;
    if (!U8(&v)) return false;
    *out = v != 0;
    return true;
  }
  bool Str(std::string* out) {
    uint32_t len = 0;
    if (!U32(&len) || !Need(len)) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  bool ok() const { return !failed_; }
  bool AtEnd() const { return !failed_ && pos_ == size_; }
  size_t offset() const { return pos_; }
  size_t remaining() const { return failed_ ? 0 : size_ - pos_; }

  /// Marks the reader failed (semantic validation error at the current
  /// offset, e.g. an enum value out of range).
  void Fail() { failed_ = true; }

  /// OK while healthy; kCorrupt naming the context and byte offset after a
  /// bounds overrun or an explicit Fail().
  Status ToStatus(const std::string& context) const {
    if (!failed_) return Status::OK();
    return Status::Corrupt(context + ": truncated or malformed at byte offset " +
                           std::to_string(pos_));
  }

 private:
  bool Need(size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace cepr

#endif  // CEPR_COMMON_BINIO_H_
