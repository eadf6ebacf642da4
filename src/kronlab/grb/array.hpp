// kronlab/grb/array.hpp
//
// Storage for the arrays a product-sized matrix is made of.
//
// Array<T> is a std::vector whose allocator default-initialises: Array<T>(n)
// and resize(n) leave its elements (trivially constructible) unwritten, so
// the pass that fills the array — usually a parallel_for over product rows —
// is the first to touch its pages, and their faults are taken on every worker
// of the pool instead of in one serial zero-fill.  An element is zero only
// where a pass writes zero; Array<T>(n, T{}) still value-fills, serially.
//
// In builds with asserts on (NDEBUG undefined) fresh storage is filled
// with a poison byte instead, so a slot that a fill pass skips reads as
// the same garbage on every run rather than as a lucky zero.

#pragma once

#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace kronlab::grb {

/// The byte fresh Array storage holds when asserts are on.
inline constexpr unsigned char kArrayPoison = 0xA5;

template <typename T>
struct DefaultInit : std::allocator<T> {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = DefaultInit<U>;
  };

  DefaultInit() noexcept = default;
  template <typename U>
  DefaultInit(const DefaultInit<U>&) noexcept {}

  T* allocate(std::size_t n) {
    T* p = std::allocator<T>::allocate(n);
#ifndef NDEBUG
    std::memset(static_cast<void*>(p), kArrayPoison, n * sizeof(T));
#endif
    return p;
  }

  /// Default-initialisation of a trivial type writes nothing: storage
  /// from allocate() already holds its implicitly created objects.
  template <typename U>
  void construct(U*) noexcept {
    static_assert(std::is_trivially_default_constructible_v<U>,
                  "Array elements must be trivially default constructible");
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

template <typename T>
using Array = std::vector<T, DefaultInit<T>>;

} // namespace kronlab::grb
