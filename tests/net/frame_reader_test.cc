// Buffered framing suite: FrameReader cuts many frames from one read,
// grows for a frame larger than its read chunk, and gives exactly
// ReadFrame's verdicts on every byte stream; AppendFrame + SendBytes put
// the same bytes on the wire as WriteFrame.

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

namespace cepr {
namespace net {
namespace {

/// Connected AF_UNIX stream pair; both ends close on destruction.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void CloseA() {
    ::close(a);
    a = -1;
  }
};

/// Every status the reader gives until its first error, as "code:message".
template <typename ReadFn>
std::vector<std::string> Verdicts(ReadFn read) {
  std::vector<std::string> out;
  while (true) {
    std::string payload;
    const Status s = read(&payload);
    out.push_back(s.ToString() + (s.ok() ? "|" + payload : ""));
    if (!s.ok()) return out;
  }
}

TEST(FrameReaderTest, CutsManyQueuedFramesInOrder) {
  SocketPair sp;
  std::string bytes;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(AppendFrame("result-" + std::to_string(i), &bytes).ok());
  }
  ASSERT_TRUE(SendBytes(sp.a, bytes).ok());
  FrameReader reader;
  reader.Reset(sp.b);
  EXPECT_FALSE(reader.HasFrame());
  for (int i = 0; i < 500; ++i) {
    std::string got;
    ASSERT_TRUE(reader.Next(&got).ok()) << i;
    EXPECT_EQ(got, "result-" + std::to_string(i));
    // The first read took everything queued; the rest come from the buffer.
    if (i < 499) {
      EXPECT_TRUE(reader.HasFrame()) << i;
    }
  }
  EXPECT_FALSE(reader.HasFrame());
}

TEST(FrameReaderTest, FramesLargerThanTheReadChunk) {
  SocketPair sp;
  const std::vector<std::string> payloads = {
      "head", std::string(300000, 'q'), "", "tail", std::string(70000, 'z')};
  std::thread writer([&] {
    for (const std::string& p : payloads) EXPECT_TRUE(WriteFrame(sp.a, p).ok());
  });
  FrameReader reader;
  reader.Reset(sp.b);
  for (const std::string& p : payloads) {
    std::string got;
    ASSERT_TRUE(reader.Next(&got).ok());
    EXPECT_EQ(got, p);
  }
  writer.join();
}

TEST(FrameReaderTest, AppendFrameBytesEqualWriteFrameBytes) {
  SocketPair sp;
  const std::string payload = std::string("\0\1\2\xff", 4) + "payload";
  ASSERT_TRUE(WriteFrame(sp.a, payload).ok());
  std::string wire(kFrameHeaderBytes + payload.size(), '\0');
  ASSERT_EQ(::read(sp.b, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  std::string appended = "prefix";
  ASSERT_TRUE(AppendFrame(payload, &appended).ok());
  EXPECT_EQ(appended, "prefix" + wire);

  std::string big;
  big.resize(kMaxFrameBytes + 1);
  std::string untouched = "x";
  EXPECT_EQ(AppendFrame(big, &untouched).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(untouched, "x");
}

TEST(FrameReaderTest, SameVerdictsAsReadFrameOnAnyByteStream) {
  // Valid frames, then a tail that is torn, corrupt, oversized, garbage or
  // absent: the buffered reader must report what ReadFrame reports, frame
  // for frame and error for error.
  Random rng(0xF4A3E);
  for (int round = 0; round < 300; ++round) {
    std::string bytes;
    const size_t frames = rng.Uniform(4);
    for (size_t i = 0; i < frames; ++i) {
      ASSERT_TRUE(
          AppendFrame(std::string(rng.Uniform(300), 'a' + i), &bytes).ok());
    }
    std::string tail;
    ASSERT_TRUE(AppendFrame(std::string(1 + rng.Uniform(200), 't'), &tail).ok());
    switch (round % 5) {
      case 0: tail.clear(); break;                                   // clean
      case 1: tail.resize(rng.Uniform(tail.size())); break;          // torn
      case 2: tail[kFrameHeaderBytes] ^= 0x1; break;                 // CRC
      case 3: tail[3] = '\x7f'; break;                               // length
      case 4:
        for (char& c : tail) c = static_cast<char>(rng.Uniform(256));
        break;
    }
    bytes += tail;

    SocketPair plain;
    ASSERT_TRUE(SendBytes(plain.a, bytes).ok());
    plain.CloseA();
    const auto expected = Verdicts(
        [&](std::string* p) { return ReadFrame(plain.b, p); });

    SocketPair buffered;
    ASSERT_TRUE(SendBytes(buffered.a, bytes).ok());
    buffered.CloseA();
    FrameReader reader;
    reader.Reset(buffered.b);
    EXPECT_EQ(Verdicts([&](std::string* p) { return reader.Next(p); }),
              expected)
        << "round " << round;
  }
}

}  // namespace
}  // namespace net
}  // namespace cepr
