// Move-only callable wrapper with small-buffer optimization, used where
// std::function's copy requirement and 16-byte inline budget cost real
// throughput: event-queue callbacks and hypercall undo records, both of
// which capture a handful of pointers/words and are invoked exactly once
// per schedule on the simulation hot path.
//
// Callables up to kInlineSize bytes (and with a no-throw move) live inside
// the wrapper; larger ones fall back to a single heap allocation. The
// wrapper is relocated with the target's move constructor via a static
// ops table (invoke / relocate / destroy), so moving a SmallFn never
// allocates and invoking it is one indirect call. Trivially copyable
// callables (lambdas capturing pointers and integers: nearly every event
// the simulator schedules) and heap-stored ones have no relocate or
// destroy op: they move by copying the buffer bytes and need no
// destructor call, so moving and destroying them makes no indirect call.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace nlh::sim {

class SmallFn {
 public:
  // Large enough for a lambda capturing six pointer-sized words, which
  // covers every callback the simulator schedules (verified by the
  // static_assert idiom at hot call sites growing past this: they simply
  // spill to the heap, they do not fail to compile).
  static constexpr std::size_t kInlineSize = 48;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { MoveFrom(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Deep copy of the wrapped callable (snapshot/restore support: an event
  // queue image clones every pending callback so one capture can seed many
  // restores). Only valid when the callable is copy-constructible; every
  // callback the simulator schedules captures pointers and values, which
  // are. A non-copyable capture aborts loudly rather than corrupting state.
  SmallFn Clone() const {
    SmallFn out;
    if (ops_ != nullptr) {
      if (ops_->clone == nullptr) std::abort();
      ops_->clone(out.buf_, buf_);
      out.ops_ = ops_;
    }
    return out;
  }

  void Reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct dst, destroy src; null when a byte copy does both.
    void (*relocate)(void* dst, void* src);
    // Null when the stored object is trivially destructible.
    void (*destroy)(void* storage);
    // Copy-construct a clone of src's callable into dst; null when the
    // callable is not copy-constructible (such a SmallFn cannot be cloned).
    void (*clone)(void* dst, const void* src);
  };

  template <typename Fn, bool Heap>
  static constexpr auto CloneOp() -> void (*)(void*, const void*) {
    if constexpr (!std::is_copy_constructible_v<Fn>) {
      return nullptr;
    } else if constexpr (Heap) {
      return [](void* dst, const void* src) {
        ::new (dst) Fn*(new Fn(**static_cast<Fn* const*>(src)));
      };
    } else {
      return [](void* dst, const void* src) {
        ::new (dst) Fn(*static_cast<const Fn*>(src));
      };
    }
  }

  template <typename Fn>
  static constexpr auto RelocateOp() -> void (*)(void*, void*) {
    if constexpr (std::is_trivially_copyable_v<Fn>) {
      return nullptr;
    } else {
      return [](void* dst, void* src) {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      };
    }
  }

  template <typename Fn>
  static constexpr auto DestroyOp() -> void (*)(void*) {
    if constexpr (std::is_trivially_destructible_v<Fn>) {
      return nullptr;
    } else {
      return [](void* s) { static_cast<Fn*>(s)->~Fn(); };
    }
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      /*invoke=*/[](void* s) { (*static_cast<Fn*>(s))(); },
      /*relocate=*/RelocateOp<Fn>(),
      /*destroy=*/DestroyOp<Fn>(),
      /*clone=*/CloneOp<Fn, /*Heap=*/false>(),
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      /*invoke=*/[](void* s) { (**static_cast<Fn**>(s))(); },
      /*relocate=*/nullptr,  // the buffer holds only the owning pointer
      /*destroy=*/[](void* s) { delete *static_cast<Fn**>(s); },
      /*clone=*/CloneOp<Fn, /*Heap=*/true>(),
  };

  void MoveFrom(SmallFn& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineSize);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace nlh::sim
