// A move-only callable with inline (small-buffer-only) storage.
//
// The event queue schedules millions of closures per run; std::function
// heap-allocates any capture larger than its tiny internal buffer, which
// made every DispatchRequest -> ArriveAtHost -> CompleteService hop a
// malloc/free pair. InplaceFunction stores the callable in an in-object
// buffer of fixed Capacity and refuses — at compile time — anything that
// does not fit, so scheduling never touches the heap and an accidentally
// fat capture is a build error, not a silent regression.
//
// Deliberate differences from std::function:
//   - move-only (events are scheduled once and consumed once),
//   - no allocation fallback: static_assert on sizeof/alignof,
//   - invoking an empty function is a RADAR_CHECK failure.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace radar::sim {

template <class Signature, std::size_t Capacity = 64>
class InplaceFunction;  // undefined; see the R(Args...) specialization

template <class R, class... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  static constexpr std::size_t kCapacity = Capacity;
  static constexpr std::size_t kAlignment = alignof(std::max_align_t);

  /// True when a callable of type F (after decay) fits the inline buffer;
  /// exposed so tests can pin the capacity gate without tripping the
  /// constructor's static_assert.
  template <class F>
  static constexpr bool can_hold =
      sizeof(std::decay_t<F>) <= Capacity &&
      alignof(std::decay_t<F>) <= kAlignment;

  InplaceFunction() = default;
  InplaceFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <class F,
            class = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, InplaceFunction>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  InplaceFunction(InplaceFunction&& other) noexcept {
    MoveFrom(std::move(other));
  }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  /// Assigning a callable constructs it directly in the inline buffer —
  /// no intermediate InplaceFunction, no extra move of the capture. This
  /// is what lets the event queue emplace a closure straight into its
  /// slot slab.
  template <class F,
            class = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, InplaceFunction>>>
  InplaceFunction& operator=(F&& f) {
    Reset();
    Emplace(std::forward<F>(f));
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    RADAR_CHECK_MSG(ops_ != nullptr, "invoking an empty InplaceFunction");
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  /// Destroys the held callable (if any), leaving the function empty.
  /// Closures over trivially destructible captures (every hot-path event:
  /// PODs and pointers only) carry a null destroy op, so releasing them
  /// is a branch, not an indirect call.
  void Reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  /// Per-callable-type operations table; one static instance per Fn, so
  /// the function object itself carries just a pointer and the buffer.
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*move_to)(void* from, void* to);  // move-construct + destroy src
    void (*destroy)(void*);  // null when ~Fn is trivial
  };

  template <class Fn>
  struct OpsFor {
    static R Invoke(void* storage, Args&&... args) {
      return (*static_cast<Fn*>(storage))(std::forward<Args>(args)...);
    }
    static void MoveTo(void* from, void* to) {
      Fn* src = static_cast<Fn*>(from);
      ::new (to) Fn(std::move(*src));
      src->~Fn();
    }
    static void Destroy(void* storage) { static_cast<Fn*>(storage)->~Fn(); }
    static constexpr Ops ops{
        &Invoke, &MoveTo,
        std::is_trivially_destructible_v<Fn> ? nullptr : &Destroy};
  };

  template <class F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "capture too large for InplaceFunction's inline buffer; "
                  "shrink the capture (capture pointers, not objects) or "
                  "widen the Capacity parameter at the declaration site");
    static_assert(alignof(Fn) <= kAlignment,
                  "capture over-aligned for InplaceFunction's buffer");
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                  "callable does not match the InplaceFunction signature");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "captures must be nothrow-movable: the event heap moves "
                  "entries while restoring its invariant");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::ops;
  }

  void MoveFrom(InplaceFunction&& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->move_to(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  // ops_ precedes the (16-aligned) buffer, so a function with a capture of
  // up to Capacity = 48 bytes occupies bytes [0, 64) — ops pointer and
  // capture on ONE cache line, provided the object starts on one. The
  // type is only 16-aligned, so that is the holder's job: the event
  // queue stores each EventFn in a 64-byte-aligned cell. With the buffer
  // first, the trailing ops pointer starts at offset Capacity and every
  // emplace/invoke/release touches a second line regardless of capture
  // size.
  const Ops* ops_ = nullptr;
  alignas(kAlignment) unsigned char storage_[Capacity];
};

}  // namespace radar::sim
