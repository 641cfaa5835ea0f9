#ifndef CEPR_COMMON_SPSC_QUEUE_H_
#define CEPR_COMMON_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cepr {

/// Bounded lock-free single-producer / single-consumer ring buffer: the
/// ingest->shard channel of the sharded engine. Exactly one thread may call
/// TryPush and exactly one thread may call TryPop; either side may also
/// read size() (approximate under concurrency).
///
/// Capacity is rounded up to a power of two. A full queue rejects pushes
/// (the producer implements backpressure on top, see Engine::ShardBackend);
/// an empty queue rejects pops.
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(size_t min_capacity) {
    size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  size_t capacity() const { return slots_.size(); }

  /// Producer side. Returns false when the queue is full (item untouched).
  bool TryPush(T& item) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) >= slots_.size()) {
      return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the queue is empty.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Approximate occupancy (exact only when both sides are quiescent).
  size_t size() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  /// Producer and consumer cursors on separate cache lines so the hot
  /// stores don't false-share.
  alignas(64) std::atomic<uint64_t> tail_{0};  // next slot to write
  alignas(64) std::atomic<uint64_t> head_{0};  // next slot to read
};

}  // namespace cepr

#endif  // CEPR_COMMON_SPSC_QUEUE_H_
