#ifndef CEPR_COMMON_ARENA_H_
#define CEPR_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace cepr {

/// Chunked fixed-size object pool with an intrusive freelist. New() returns
/// a constructed T from recycled or chunk storage; Delete() destroys it and
/// recycles the slot. Single-threaded by design (each matcher tree owns its
/// pool), which is what makes the freelist and the counters cheap.
///
/// All objects must be Delete()d before the pool dies: the destructor only
/// reclaims raw chunk storage and never runs destructors of live objects.
template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(size_t chunk_capacity = 1024)
      : chunk_capacity_(chunk_capacity) {}

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  template <typename... Args>
  T* New(Args&&... args) {
    ++constructed_;
    if (free_ == nullptr) Refill();
    Slot* slot = free_;
    free_ = slot->next_free;
    return new (slot->storage) T(std::forward<Args>(args)...);
  }

  void Delete(T* obj) {
    if (obj == nullptr) return;
    obj->~T();
    Slot* slot = reinterpret_cast<Slot*>(obj);
    slot->next_free = free_;
    free_ = slot;
  }

  /// Lifetime count of New() calls — the "objects allocated" metric.
  uint64_t constructed() const { return constructed_; }

  /// Constructions since the previous call (single-threaded metrics
  /// attribution: the matcher consumes the delta at the end of each event).
  uint64_t TakeConstructedDelta() {
    const uint64_t delta = constructed_ - consumed_;
    consumed_ = constructed_;
    return delta;
  }

 private:
  union Slot {
    Slot* next_free;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  void Refill() {
    chunks_.push_back(std::make_unique<Slot[]>(chunk_capacity_));
    Slot* chunk = chunks_.back().get();
    for (size_t i = chunk_capacity_; i > 0; --i) {
      chunk[i - 1].next_free = free_;
      free_ = &chunk[i - 1];
    }
  }

  size_t chunk_capacity_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Slot* free_ = nullptr;
  uint64_t constructed_ = 0;
  uint64_t consumed_ = 0;
};

}  // namespace cepr

#endif  // CEPR_COMMON_ARENA_H_
