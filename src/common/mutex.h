// Annotated mutex wrappers for Clang Thread Safety Analysis.
//
// libstdc++'s std::mutex/std::lock_guard carry no capability attributes,
// so code locking them is invisible to -Wthread-safety. d2::Mutex wraps
// std::mutex as a D2_CAPABILITY and d2::MutexLock replaces
// std::lock_guard as a D2_SCOPED_CAPABILITY; with members declared
// D2_GUARDED_BY(mu_), Clang then proves every access is covered by a
// lock (see common/thread_annotations.h and DESIGN.md §13). Zero
// overhead over the unwrapped types — everything inlines to the
// identical std calls.
#pragma once

#include <mutex>

#include "common/thread_annotations.h"

namespace d2 {

/// std::mutex with the `capability` attribute. Prefer MutexLock over
/// calling lock()/unlock() directly; the explicit calls exist for the
/// rare control flow RAII cannot express (and keep the analysis informed
/// through their acquire/release annotations).
class D2_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() D2_ACQUIRE() { mu_.lock(); }
  void unlock() D2_RELEASE() { mu_.unlock(); }
  bool try_lock() D2_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock (std::lock_guard equivalent) the analysis understands.
class D2_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) D2_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() D2_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace d2
