// Fixed-capacity, allocation-free `void()` callable.
//
// The DES hot path fires millions of callbacks per simulated second; a
// `std::function` per event costs a heap allocation whenever the capture
// exceeds its small-buffer size, and that allocation dominated the event
// loop profile.  InlineFunction stores the callable in place, always: a
// capture that does not fit the slot is a compile error (static_assert),
// never a silent fallback to the heap.  That keeps every event record in
// the queue's slab pool exactly one cache-line-friendly block with no
// pointer chasing to reach the closure state.
//
// Move-only.  The stored callable must be nothrow-move-constructible so
// records can be relocated without an exception path.  A trivially copyable
// capture (the common `[this]` / `[this, slot]` shapes) relocates by copying
// its sizeof bytes, without an indirect call.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace paradyn::des {

template <std::size_t Capacity>
class InlineFunction {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                            !std::is_same_v<std::remove_cvref_t<F>, std::nullptr_t>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  /// Construct a callable in place, destroying any previous one.
  template <typename F>
  void emplace(F&& f) {
    using D = std::remove_cvref_t<F>;
    static_assert(sizeof(D) <= Capacity,
                  "callback capture exceeds the inline slot: shrink the capture "
                  "(pool the state and capture an index) or grow the slot");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "callback capture is over-aligned for the inline slot");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "callback must be nothrow-move-constructible for slab relocation");
    reset();
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    vtable_ = &kVTable<D>;
  }

  /// Invoke the stored callable.  Undefined on an empty InlineFunction
  /// (same contract as dereferencing an empty std::function).
  void operator()() { vtable_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      if (vtable_->destroy != nullptr) vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  /// Bytes available for the capture (for static_asserts at call sites).
  static constexpr std::size_t capacity() noexcept { return Capacity; }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Null for trivially copyable captures: move_from copies `size` bytes.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    std::size_t size;  ///< Capture bytes; 0 for an empty (capture-less) one.
  };

  template <typename D>
  struct Ops {
    static void invoke(void* p) { (*static_cast<D*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
    static void destroy(void* p) noexcept { static_cast<D*>(p)->~D(); }
  };

  // A null destroy marks a trivially destructible capture, so the hot
  // recycle path (reset after every fired event) skips the indirect call;
  // a null relocate likewise marks a trivially copyable one.
  template <typename D>
  static inline const VTable kVTable{
      &Ops<D>::invoke,
      std::is_trivially_copyable_v<D> ? nullptr : &Ops<D>::relocate,
      std::is_trivially_destructible_v<D> ? nullptr : &Ops<D>::destroy,
      std::is_empty_v<D> ? 0 : sizeof(D)};

  void move_from(InlineFunction& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      // Only the capture's own bytes are initialized; copying the whole
      // slot would read (and warn about) uninitialized storage.
      if (vtable_->relocate == nullptr) {
        std::memcpy(storage_, other.storage_, vtable_->size);
      } else {
        vtable_->relocate(storage_, other.storage_);
      }
      other.vtable_ = nullptr;
    }
  }

  const VTable* vtable_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[Capacity];
};

}  // namespace paradyn::des
