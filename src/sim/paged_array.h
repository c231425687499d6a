// Append-only array stored in fixed-size pages that never move.
//
// The event queue's per-slot arrays (closures, metadata words, merge
// keys, the timing wheel's links and times) grow to the most events ever
// pending at once and stay there. As std::vectors they doubled: growing
// past a power of two copied the whole array while the old copy was
// still resident, so a queue's peak memory was up to three times its
// slot count. A PagedArray allocates one page of kPageSlots slots when
// its size first reaches that page and never reallocates or copies a
// slot afterwards. Slot addresses are therefore stable for the array's
// lifetime, which is also what lets store::BlockMap hand out block
// handles into its slab of block states. Each slot is constructed when
// emplace_back hands it out, so a page's untouched tail costs address
// space, not resident memory, and a queue that never holds many events
// pays for one partly-touched page.
//
// Indexing is one extra load (the page pointer) over a vector's. Slots
// are destroyed, in index order, only when the array is.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace d2::sim {

template <class T>
class PagedArray {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "pages come from plain operator new");

 public:
  static constexpr std::size_t kPageSlots = 1024;

  PagedArray() = default;
  PagedArray(const PagedArray&) = delete;
  PagedArray& operator=(const PagedArray&) = delete;
  // A moved-from array keeps no slots, so its destructor destroys none.
  PagedArray(PagedArray&& o) noexcept
      : pages_(std::move(o.pages_)), size_(std::exchange(o.size_, 0)) {}
  PagedArray& operator=(PagedArray&& o) noexcept {
    if (this != &o) {
      destroy_slots();
      pages_ = std::move(o.pages_);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~PagedArray() { destroy_slots(); }

  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) {
    return pages_[i / kPageSlots].get()[i % kPageSlots];
  }
  const T& operator[](std::size_t i) const {
    return pages_[i / kPageSlots].get()[i % kPageSlots];
  }

  /// Constructs slot size() from `args`, allocating its page first when
  /// size() sits on a page boundary. Never moves an existing slot.
  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ % kPageSlots == 0) {
      std::unique_ptr<T, FreePage> page(
          static_cast<T*>(::operator new(kPageSlots * sizeof(T))));
      pages_.push_back(std::move(page));
    }
    T* slot = ::new (static_cast<void*>(&(*this)[size_]))
        T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Bytes of the pages allocated so far (touched or not).
  std::size_t allocated_bytes() const {
    return pages_.size() * kPageSlots * sizeof(T);
  }

 private:
  struct FreePage {
    void operator()(T* page) const { ::operator delete(page); }
  };
  void destroy_slots() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::size_t i = 0; i < size_; ++i) (*this)[i].~T();
    }
    size_ = 0;
  }
  std::vector<std::unique_ptr<T, FreePage>> pages_;
  std::size_t size_ = 0;
};

}  // namespace d2::sim
