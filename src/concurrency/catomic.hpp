// catomic<T>: the only atomic type allowed in STASH lock-free code.
//
// Two personalities, chosen at compile time:
//
//   * Normal builds — a zero-cost wrapper over std::atomic<T>.  Same
//     memory-order API, nothing added; the optimiser sees through it.
//   * -DSTASH_MODEL_CHECK — every load/store/CAS/fence routes through the
//     mc::ModelChecker scheduler hooks with its memory_order, so the
//     interleaving explorer (mc/model_checker.hpp) owns all values and can
//     exercise relaxed/acquire/release visibility systematically.
//
// var<T> is the companion for *non-atomic* shared data: plain storage in
// normal builds, happens-before-checked (data-race-detecting) accesses
// under the model checker.
//
// ODR safety: the two personalities live in different inline namespaces,
// so a binary that mixes instrumented and plain translation units gets a
// link-time/type-system separation instead of silent UB.  Headers that
// define types holding catomic members (mpmc_ring.hpp, rw_spinlock.hpp)
// must use STASH_CONCURRENCY_NS_BEGIN/END for the same reason.
//
// tools/stash_lint.py enforces the companion invariants: no raw
// std::atomic outside this shim, and no memory_order_relaxed outside
// src/concurrency/ + src/obs/.
//
// stash-lint: lock-free-file
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#ifdef STASH_MODEL_CHECK
#include "mc/hooks.hpp"
// Under the checker, hooks may throw the engine's bailout exception; RAII
// types whose destructors release locks must not be noexcept then.
#define STASH_MC_MAY_THROW noexcept(false)
#define STASH_CONCURRENCY_NS_BEGIN \
  namespace stash::concurrency {   \
  inline namespace model_checked {
#else
#define STASH_MC_MAY_THROW
#define STASH_CONCURRENCY_NS_BEGIN \
  namespace stash::concurrency {   \
  inline namespace plain {
#endif
#define STASH_CONCURRENCY_NS_END \
  }                              \
  }

STASH_CONCURRENCY_NS_BEGIN

namespace detail {

template <typename T>
inline constexpr bool catomic_eligible =
    std::is_trivially_copyable_v<T> && sizeof(T) <= 8 &&
    std::has_unique_object_representations_v<T>;

template <typename T>
[[nodiscard]] std::uint64_t to_bits(T v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(T));
  return bits;
}

template <typename T>
[[nodiscard]] T from_bits(std::uint64_t bits) {
  T v;
  std::memcpy(&v, &bits, sizeof(T));
  return v;
}

}  // namespace detail

#ifndef STASH_MODEL_CHECK

template <typename T>
class catomic {
  static_assert(detail::catomic_eligible<T>,
                "catomic<T> requires a padding-free trivially copyable T of "
                "at most 8 bytes");

 public:
  explicit catomic(T initial = T{}, const char* name = nullptr) noexcept
      : a_(initial) {
    (void)name;  // names only exist for model-checker traces
  }
  catomic(const catomic&) = delete;
  catomic& operator=(const catomic&) = delete;

  [[nodiscard]] T load(
      std::memory_order order = std::memory_order_seq_cst) const noexcept {
    return a_.load(order);
  }
  void store(T v,
             std::memory_order order = std::memory_order_seq_cst) noexcept {
    a_.store(v, order);
  }
  T exchange(T v,
             std::memory_order order = std::memory_order_seq_cst) noexcept {
    return a_.exchange(v, order);
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order success,
                             std::memory_order failure) noexcept {
    return a_.compare_exchange_weak(expected, desired, success, failure);
  }
  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order success,
                               std::memory_order failure) noexcept {
    return a_.compare_exchange_strong(expected, desired, success, failure);
  }
  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_add(T arg,
              std::memory_order order = std::memory_order_seq_cst) noexcept {
    return a_.fetch_add(arg, order);
  }
  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_sub(T arg,
              std::memory_order order = std::memory_order_seq_cst) noexcept {
    return a_.fetch_sub(arg, order);
  }

  /// Park until the value is observed to differ from `old` (C++20 futex
  /// wait).  May return spuriously; callers re-check their predicate.
  void wait(T old, std::memory_order order = std::memory_order_seq_cst)
      const noexcept {
    a_.wait(old, order);
  }
  void notify_one() noexcept { a_.notify_one(); }
  void notify_all() noexcept { a_.notify_all(); }

 private:
  std::atomic<T> a_;
};

/// Non-atomic shared data slot; plain storage in normal builds.
template <typename T>
class var {
 public:
  explicit var(T v = T{}, const char* name = nullptr) : value_(std::move(v)) {
    (void)name;
  }
  var(const var&) = delete;
  var& operator=(const var&) = delete;

  [[nodiscard]] const T& load() const { return value_; }
  void store(T v) { value_ = std::move(v); }
  /// Move the value out (counts as a write for race-checking purposes).
  [[nodiscard]] T take() { return std::move(value_); }

 private:
  T value_;
};

/// Manual-lifetime companion to var<T>: raw aligned storage whose payload
/// exists only between emplace() and take()/destroy().  MpmcRing uses it so
/// a slot's payload lifetime tracks its sequence word exactly — T need not
/// be default-constructible, and ring teardown destroys precisely the
/// published-but-unconsumed payloads.  The owner is responsible for the
/// emplace/destroy pairing; the destructor deliberately does nothing.
template <typename T>
class slot {
 public:
  explicit slot(const char* name = nullptr) noexcept { (void)name; }
  slot(const slot&) = delete;
  slot& operator=(const slot&) = delete;

  template <typename... Args>
  void emplace(Args&&... args) {
    ::new (static_cast<void*>(storage_)) T(std::forward<Args>(args)...);
  }
  /// Move the payload out and end its lifetime.
  [[nodiscard]] T take() {
    T* p = std::launder(reinterpret_cast<T*>(storage_));
    T out = std::move(*p);
    p->~T();
    return out;
  }
  /// End the payload's lifetime without reading it (teardown drain).
  void destroy() { std::launder(reinterpret_cast<T*>(storage_))->~T(); }

 private:
  alignas(T) unsigned char storage_[sizeof(T)];
};

#if defined(__SANITIZE_THREAD__)
#define STASH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STASH_TSAN 1
#endif
#endif

#ifdef STASH_TSAN
namespace detail {
/// The one location every fence() read-modify-writes under TSan.
inline catomic<std::uint32_t> fence_word{0};
}  // namespace detail

/// ThreadSanitizer does not model std::atomic_thread_fence (GCC 12 even
/// rejects it under -Werror=tsan).  A seq_cst RMW on one shared word is
/// what it does model, and it orders a Dekker pair the way the fences
/// do: the RMWs are totally ordered, so the later one synchronizes with
/// the earlier and that thread's loads see the other's prior stores.
inline void fence(std::memory_order order) noexcept {
  (void)order;
  (void)detail::fence_word.fetch_add(0, std::memory_order_seq_cst);
}
#else
inline void fence(std::memory_order order) noexcept {
  std::atomic_thread_fence(order);
}
#endif

#else  // STASH_MODEL_CHECK

template <typename T>
class catomic {
  static_assert(detail::catomic_eligible<T>,
                "catomic<T> requires a padding-free trivially copyable T of "
                "at most 8 bytes");

 public:
  explicit catomic(T initial = T{}, const char* name = nullptr) {
    mc::hook_atomic_init(this, name, detail::to_bits(initial));
  }
  catomic(const catomic&) = delete;
  catomic& operator=(const catomic&) = delete;

  [[nodiscard]] T load(
      std::memory_order order = std::memory_order_seq_cst) const {
    return detail::from_bits<T>(mc::hook_atomic_load(this, order));
  }
  void store(T v, std::memory_order order = std::memory_order_seq_cst) {
    mc::hook_atomic_store(this, detail::to_bits(v), order);
  }
  T exchange(T v, std::memory_order order = std::memory_order_seq_cst) {
    const std::uint64_t old = mc::hook_rmw_begin(this, order);
    mc::hook_rmw_commit(this, detail::to_bits(v), order);
    return detail::from_bits<T>(old);
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order success,
                             std::memory_order failure) {
    // Note: modelled without spurious failure (DESIGN.md §12).
    return compare_exchange_strong(expected, desired, success, failure);
  }
  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order success,
                               std::memory_order failure) {
    const std::uint64_t cur = mc::hook_rmw_begin(this, success);
    if (cur == detail::to_bits(expected)) {
      mc::hook_rmw_commit(this, detail::to_bits(desired), success);
      return true;
    }
    mc::hook_rmw_fail(this, failure);
    expected = detail::from_bits<T>(cur);
    return false;
  }
  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_add(T arg, std::memory_order order = std::memory_order_seq_cst) {
    const T old = detail::from_bits<T>(mc::hook_rmw_begin(this, order));
    mc::hook_rmw_commit(this, detail::to_bits(static_cast<T>(old + arg)),
                        order);
    return old;
  }
  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_sub(T arg, std::memory_order order = std::memory_order_seq_cst) {
    const T old = detail::from_bits<T>(mc::hook_rmw_begin(this, order));
    mc::hook_rmw_commit(this, detail::to_bits(static_cast<T>(old - arg)),
                        order);
    return old;
  }

  /// Modelled as an immediate spurious return: the checker already owns
  /// the schedule, so blocking would hide interleavings instead of adding
  /// them.  The load keeps the memory-order edge a real wait() would have.
  void wait(T old, std::memory_order order = std::memory_order_seq_cst) const {
    (void)old;
    (void)mc::hook_atomic_load(this, order);
  }
  void notify_one() {}
  void notify_all() {}
};

/// Non-atomic shared data slot; every access is race-checked against the
/// happens-before order the model checker tracks.
template <typename T>
class var {
 public:
  explicit var(T v = T{}, const char* name = nullptr) : value_(std::move(v)) {
    mc::hook_var_init(this, name);
  }
  var(const var&) = delete;
  var& operator=(const var&) = delete;

  [[nodiscard]] const T& load() const {
    mc::hook_var_read(this);
    return value_;
  }
  void store(T v) {
    mc::hook_var_write(this);
    value_ = std::move(v);
  }
  [[nodiscard]] T take() {
    mc::hook_var_write(this);
    return std::move(value_);
  }

 private:
  T value_;
};

/// Manual-lifetime companion (see the plain personality above).  Every
/// lifetime transition counts as a write for race-checking purposes.
template <typename T>
class slot {
 public:
  explicit slot(const char* name = nullptr) { mc::hook_var_init(this, name); }
  slot(const slot&) = delete;
  slot& operator=(const slot&) = delete;

  template <typename... Args>
  void emplace(Args&&... args) {
    mc::hook_var_write(this);
    ::new (static_cast<void*>(storage_)) T(std::forward<Args>(args)...);
  }
  [[nodiscard]] T take() {
    mc::hook_var_write(this);
    T* p = std::launder(reinterpret_cast<T*>(storage_));
    T out = std::move(*p);
    p->~T();
    return out;
  }
  void destroy() {
    mc::hook_var_write(this);
    std::launder(reinterpret_cast<T*>(storage_))->~T();
  }

 private:
  alignas(T) unsigned char storage_[sizeof(T)];
};

inline void fence(std::memory_order order) { mc::hook_fence(order); }

#endif  // STASH_MODEL_CHECK

STASH_CONCURRENCY_NS_END
