#pragma once
// A move-only `void()` callable with inline storage, built for the event
// queue's slab: scheduling an event must not touch the heap.
//
// std::function's small-buffer optimization tops out at 16 bytes on
// libstdc++, and every move goes through an indirect "manager" call. Here
// the common case — a trivially-copyable closure of up to `Capacity`
// bytes (a this-pointer plus a couple of ids) — is stored inline, moved
// with a plain memcpy, and destroyed for free. Larger or non-trivial
// callables still work: non-trivial ones carry relocate/destroy thunks,
// and anything over `Capacity` bytes falls back to a heap box (rare; the
// allocation probe in perf builds would surface a regression).

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace hpcwhisk::sim {

template <std::size_t Capacity = 64>
class InplaceCallback {
 public:
  InplaceCallback() = default;
  InplaceCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InplaceCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InplaceCallback(InplaceCallback&& other) noexcept { move_from(other); }

  InplaceCallback& operator=(InplaceCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InplaceCallback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InplaceCallback& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  InplaceCallback(const InplaceCallback&) = delete;
  InplaceCallback& operator=(const InplaceCallback&) = delete;

  ~InplaceCallback() { reset(); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

  /// Destroys the stored callable (and its captures) immediately.
  void reset() {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(Slot)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](std::byte* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      if constexpr (!std::is_trivially_copyable_v<Fn> ||
                    !std::is_trivially_destructible_v<Fn>) {
        relocate_ = [](std::byte* dst, std::byte* src) {
          Fn* s = std::launder(reinterpret_cast<Fn*>(src));
          ::new (static_cast<void*>(dst)) Fn(std::move(*s));
          s->~Fn();
        };
        destroy_ = [](std::byte* p) {
          std::launder(reinterpret_cast<Fn*>(p))->~Fn();
        };
      } else if constexpr (std::is_empty_v<Fn>) {
        // An empty closure writes no byte, so a move's memcpy would copy
        // a wholly indeterminate buffer, which GCC reports as
        // -Wuninitialized. One defined byte is enough; zeroing the whole
        // tail instead costs every closure a store-forwarding stall.
        buf_[0] = std::byte{0};
      }
      // Trivially-copyable case: relocate_/destroy_ stay null — moves are
      // a memcpy of the buffer, destruction is free.
    } else {
      // Oversized or over-aligned callable: box it. The inline buffer
      // then holds only the pointer (itself trivially relocatable).
      Fn* boxed = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &boxed, sizeof boxed);
      invoke_ = [](std::byte* p) {
        Fn* b;
        std::memcpy(&b, p, sizeof b);
        (*b)();
      };
      destroy_ = [](std::byte* p) {
        Fn* b;
        std::memcpy(&b, p, sizeof b);
        delete b;
      };
      // relocate_ stays null: moving the box is moving the pointer.
    }
  }

  void move_from(InplaceCallback& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    if (invoke_ != nullptr) {
      if (relocate_ != nullptr) {
        relocate_(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, Capacity);
      }
    }
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  struct alignas(std::max_align_t) Slot {
    std::byte bytes[Capacity];
  };

  using Invoke = void (*)(std::byte*);
  using Relocate = void (*)(std::byte* dst, std::byte* src);
  using Destroy = void (*)(std::byte*);

  Invoke invoke_{nullptr};
  /// Null => the payload is trivially relocatable (memcpy moves it).
  Relocate relocate_{nullptr};
  /// Null => trivially destructible.
  Destroy destroy_{nullptr};
  alignas(Slot) std::byte buf_[Capacity];
};

}  // namespace hpcwhisk::sim
