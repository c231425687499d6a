// Non-allocating small-buffer callable for hot scheduling paths.
//
// std::function type-erases through a heap allocation whenever the
// capture outgrows its tiny SSO buffer (16 bytes on libstdc++) — which is
// every real schedule site here, since a single 512-bit Key capture is
// already 64 bytes. InlineFunction fixes the capture budget at compile
// time instead: the closure is stored inline in the object, a
// static_assert rejects captures that don't fit, and the only per-call
// indirection is one function pointer.
//
// Captures must be trivially copyable and trivially destructible (raw
// pointers, Keys, integers, SimTimes — everything the simulator's event
// closures actually hold). That restriction is what makes InlineFunction
// itself trivially copyable, so containers of slots (the event queue's
// slab) move entries with memcpy and recycle them with no destructor
// bookkeeping. A closure that owns a resource (std::string, std::vector,
// std::function...) fails the static_assert by design: owning captures
// are exactly the allocations this type exists to forbid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace d2::common {

template <class Signature, std::size_t Capacity>
class InlineFunction;  // undefined; only the R(Args...) partial below

namespace detail {

template <class T>
inline constexpr bool kIsInlineFunction = false;
template <class Signature, std::size_t Capacity>
inline constexpr bool kIsInlineFunction<InlineFunction<Signature, Capacity>> =
    true;

/// The invoker stored for closure type D. One function per (D, signature),
/// shared by every capacity, so a widened copy keeps its target type.
template <class D, class R, class... Args>
R invoke_closure(const void* buf, Args... args) {
  // The closure object was placement-new'd (or copied bytewise, being
  // trivially copyable) into the buffer as a D; calling through a
  // launder'd pointer is the defined way back to it.
  return (*std::launder(static_cast<const D*>(buf)))(
      std::forward<Args>(args)...);
}

}  // namespace detail

template <class R, class... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  /// Empty (non-callable) function; `*this` is false until assigned.
  InlineFunction() = default;

  /// Wraps any callable whose capture state fits the inline budget.
  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<!detail::kIsInlineFunction<D> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    rebind(std::forward<F>(f));
  }

  /// Copies a function with a smaller budget: the same callable, its
  /// capture bytes copied (captures are trivially copyable).
  template <std::size_t Smaller,
            class = std::enable_if_t<(Smaller < Capacity)>>
  explicit InlineFunction(const InlineFunction<R(Args...), Smaller>& f)
      : invoke_(f.invoke_) {
    std::memcpy(buf_, f.buf_, Smaller);
  }

  /// Replaces the wrapped callable in place. Writes only the capture's
  /// actual footprint (sizeof the closure, not the whole Capacity), which
  /// is what keeps slab-resident instances — event queue slots — cheap to
  /// refill: a push with a pointer-sized capture touches 16 bytes, not
  /// the full budget.
  template <class F, class D = std::decay_t<F>>
  void rebind(F&& f) {
    static_assert(!detail::kIsInlineFunction<D>,
                  "rebind takes a raw callable, not another InlineFunction");
    static_assert(sizeof(D) <= Capacity,
                  "closure captures exceed the InlineFunction budget; "
                  "capture less or raise the capacity at the use site");
    static_assert(alignof(D) <= kAlign,
                  "closure alignment exceeds the InlineFunction buffer");
    static_assert(std::is_trivially_copyable_v<D> &&
                      std::is_trivially_destructible_v<D>,
                  "InlineFunction captures must be trivially copyable and "
                  "destructible (no owning captures on the hot path)");
    static_assert(std::is_invocable_r_v<R, const D&, Args...>,
                  "mutable closures are not supported by InlineFunction");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    invoke_ = &detail::invoke_closure<D, R, Args...>;
  }

  /// The wrapped callable when it is a `D`, else nullptr
  /// (std::function::target's contract; compares the stored invoker).
  template <class D>
  const D* target() const {
    if (invoke_ != &detail::invoke_closure<D, R, Args...>) return nullptr;
    return std::launder(reinterpret_cast<const D*>(buf_));
  }

  /// Calls the wrapped callable. Undefined when empty (the event queue
  /// guarantees only live slots are invoked).
  R operator()(Args... args) const {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// Back to the empty state (releases nothing: captures are trivial).
  void reset() { invoke_ = nullptr; }

  static constexpr std::size_t capacity() { return Capacity; }

 private:
  template <class, std::size_t>
  friend class InlineFunction;

  // 8-byte alignment, not max_align_t: event captures are pointers, Keys
  // (uint64 limbs), and SimTimes, so 16-byte alignment would only pad
  // every slab slot by 8 bytes. A capture needing more (long double,
  // explicit alignas) fails the alignment static_assert.
  static constexpr std::size_t kAlign = alignof(std::uint64_t);

  // Mutable closures are intentionally unsupported (operator() is const
  // and invokes through a const D&): an event callback that mutates its
  // own capture would make replaying a popped slot order-sensitive.
  alignas(kAlign) unsigned char buf_[Capacity];
  R (*invoke_)(const void*, Args...) = nullptr;
};

}  // namespace d2::common
