// Clang Thread Safety Analysis attribute macros (DESIGN.md §13).
//
// The d2 concurrency model shares state between threads only through
// mutex-guarded structures (the obs instruments, core::TrialRunner's
// pool). That is machine-checked at compile time by Clang's
// -Wthread-safety analysis through these macros: members carry
// D2_GUARDED_BY(mu_), private _locked() helpers carry D2_REQUIRES(mu_),
// and the d2::Mutex/d2::MutexLock wrappers (common/mutex.h) give the
// analysis the capability model std::mutex lacks. Each trial's
// simulation runs serially on one thread.
//
// Under GCC (the container toolchain) every macro expands to nothing, so
// tier-1 builds are unaffected; the thread-safety CI job builds with
// Clang and -Werror=thread-safety to make the annotations load-bearing.
#pragma once

#if defined(__clang__)
#define D2_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define D2_THREAD_ANNOTATION(x)  // GCC warns on unknown attributes; elide.
#endif

/// Declares a type to be a capability (lockable): d2::Mutex.
#define D2_CAPABILITY(x) D2_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose lifetime acquires/releases a capability:
/// d2::MutexLock.
#define D2_SCOPED_CAPABILITY D2_THREAD_ANNOTATION(scoped_lockable)

/// Data members readable/writable only while holding `x`.
#define D2_GUARDED_BY(x) D2_THREAD_ANNOTATION(guarded_by(x))

/// Pointer members whose *pointee* is guarded by `x`.
#define D2_PT_GUARDED_BY(x) D2_THREAD_ANNOTATION(pt_guarded_by(x))

/// Functions callable only while holding the listed capabilities — the
/// `_locked()` helper convention.
#define D2_REQUIRES(...) D2_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Functions that acquire (and do not release) the listed capabilities.
#define D2_ACQUIRE(...) D2_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Functions that release previously held capabilities.
#define D2_RELEASE(...) D2_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Functions that acquire the capability iff they return `val`.
#define D2_TRY_ACQUIRE(val, ...) \
  D2_THREAD_ANNOTATION(try_acquire_capability(val, __VA_ARGS__))

/// Functions that must NOT be entered holding the listed capabilities
/// (deadlock prevention for self-locking public APIs).
#define D2_EXCLUDES(...) D2_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Functions returning a reference to a capability.
#define D2_RETURN_CAPABILITY(x) D2_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch. Every use must carry a comment justifying why the
/// analysis cannot see the invariant (the thread-safety CI job greps for
/// bare uses); prefer restructuring over opting out.
#define D2_NO_THREAD_SAFETY_ANALYSIS \
  D2_THREAD_ANNOTATION(no_thread_safety_analysis)
