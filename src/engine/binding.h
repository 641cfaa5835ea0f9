#ifndef CEPR_ENGINE_BINDING_H_
#define CEPR_ENGINE_BINDING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "event/event.h"

namespace cepr {

/// Events are shared immutably between the ingest path, active runs and
/// emitted matches; a run holding an EventPtr keeps that event alive, so no
/// separate window buffer eviction is needed.
using EventPtr = std::shared_ptr<const Event>;

/// One cell of a persistent (immutable-once-written) binding list: the
/// event bound by one append, a pointer to the previous cell, and a count
/// of direct owners (list heads plus successor cells). Appends never mutate
/// existing cells, so any number of runs may share a common prefix — the
/// copy-on-write structure that makes run forking O(components).
struct BindingNode {
  BindingNode(const EventPtr& e, BindingNode* p) : event(e), prev(p) {}

  EventPtr event;
  BindingNode* prev;
  /// Non-atomic by design: every node lives and dies inside one matcher
  /// tree, which is driven by a single thread (serial engine) or pinned to
  /// one shard thread (sharded engine). Emitted matches materialize plain
  /// EventPtr vectors, so nodes never cross threads.
  uint32_t refs = 1;
};

/// Allocator for binding nodes, shared by every partition matcher of one
/// query (one per shard under sharded execution — same thread as the
/// matchers it serves).
using BindingArena = ObjectPool<BindingNode>;

/// The events bound to one pattern variable, as a persistent cons list:
/// O(1) append, O(1) shared copy (bump the head's refcount), O(1)
/// first/last/count access, O(n) materialization at emission time only.
class BindingList {
 public:
  BindingList() = default;
  ~BindingList() { Clear(); }

  BindingList(BindingList&& other) noexcept
      : arena_(other.arena_),
        head_(other.head_),
        first_(other.first_),
        count_(other.count_) {
    other.head_ = nullptr;
    other.first_ = nullptr;
    other.count_ = 0;
  }
  BindingList& operator=(BindingList&& other) noexcept {
    if (this != &other) {
      Clear();
      arena_ = other.arena_;
      head_ = other.head_;
      first_ = other.first_;
      count_ = other.count_;
      other.head_ = nullptr;
      other.first_ = nullptr;
      other.count_ = 0;
    }
    return *this;
  }
  BindingList(const BindingList&) = delete;
  BindingList& operator=(const BindingList&) = delete;

  /// Must be called once before any append; the arena outlives the list.
  void InitArena(BindingArena* arena) { arena_ = arena; }

  void Append(const EventPtr& event) {
    // The new node takes over the list's reference on the old head.
    head_ = arena_->New(event, head_);
    if (first_ == nullptr) first_ = head_;
    ++count_;
  }

  /// O(1) copy-on-write fork: shares `src`'s whole chain. The list must be
  /// empty (freshly cleared).
  void CopySharedFrom(const BindingList& src) {
    head_ = src.head_;
    first_ = src.first_;
    count_ = src.count_;
    if (head_ != nullptr) ++head_->refs;
  }

  /// Drops this list's reference on the chain, releasing every node whose
  /// refcount hits zero (stops at the first cell still shared by a fork).
  void Clear() {
    BindingNode* n = head_;
    while (n != nullptr && --n->refs == 0) {
      BindingNode* prev = n->prev;
      arena_->Delete(n);
      n = prev;
    }
    head_ = nullptr;
    first_ = nullptr;
    count_ = 0;
  }

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  const Event* front_event() const {
    return first_ != nullptr ? first_->event.get() : nullptr;
  }
  const Event* back_event() const {
    return head_ != nullptr ? head_->event.get() : nullptr;
  }

  /// Appends the bound events in binding order to `out` (emission-time
  /// materialization into a plain, thread-crossing-safe vector).
  void AppendTo(std::vector<EventPtr>* out) const {
    size_t i = out->size() + count_;
    out->resize(i);
    for (const BindingNode* n = head_; n != nullptr; n = n->prev) {
      (*out)[--i] = n->event;
    }
  }

 private:
  BindingArena* arena_ = nullptr;  // not owned; outlives the list
  BindingNode* head_ = nullptr;    // most recently appended
  BindingNode* first_ = nullptr;   // earliest cell (stable: chain is immutable)
  size_t count_ = 0;
};

}  // namespace cepr

#endif  // CEPR_ENGINE_BINDING_H_
