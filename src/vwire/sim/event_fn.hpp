// EventFn — the move-only callable the simulation kernel runs.
//
// Every scheduled event and every Timer holds one.  A capture of up to
// kInlineSize bytes (with a noexcept move) is stored in the object itself,
// so scheduling the usual `[this, pkt = std::move(pkt), ...]` lambda costs
// no allocation; a larger capture falls back to one heap allocation.
// Being move-only is what lets a lambda own a net::Packet outright instead
// of sharing it through a shared_ptr.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace vwire::sim {

class EventFn {
 public:
  /// Captures up to this many bytes are stored inline.  Sized so that the
  /// largest hot capture (IpLayer's receive path: a Packet, its Ipv4Header
  /// and two scalars) fits.
  static constexpr std::size_t kInlineSize = 104;

  EventFn() noexcept = default;

  template <class F, class D = std::decay_t<F>>
    requires(!std::is_same_v<D, EventFn> && std::is_invocable_v<D&>)
  EventFn(F&& f) {  // implicit: any callable converts, as with std::function
    if constexpr (stored_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(buf_, o.buf_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Runs the callable; it must be non-empty.
  void operator()() { ops_->invoke(buf_); }

  /// True if a callable of type F would be stored without allocating.
  template <class F>
  static constexpr bool stored_inline() {
    return sizeof(F) <= kInlineSize &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <class F>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<F*>(self))(); },
      [](void* dst, void* src) noexcept {
        F* s = static_cast<F*>(src);
        ::new (dst) F(std::move(*s));
        s->~F();
      },
      [](void* self) noexcept { static_cast<F*>(self)->~F(); },
  };

  template <class F>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<F**>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) F*(*static_cast<F**>(src));
      },
      [](void* self) noexcept { delete *static_cast<F**>(self); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_{nullptr};
};

}  // namespace vwire::sim
