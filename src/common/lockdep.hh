/**
 * @file
 * Runtime lock-order validation ("lockdep") — the dynamic half of the
 * concurrency discipline whose static half lives in mmgpu-lint's
 * lock-order rule and the thread_safety.hh annotations.
 *
 * sync::Mutex is a drop-in std::mutex replacement. At
 * MMGPU_CONTRACTS=0 it IS std::mutex (a type alias — zero cost, no
 * behavior change). At contract level >= 1 it is an instrumented
 * wrapper that, on every acquisition, records the edge
 * (top of this thread's held stack) -> (this mutex) into a global
 * lock-order graph and checks that the new edge closes no cycle.
 * A cycle means two code paths acquire the same pair of mutexes in
 * opposite orders — a deadlock waiting for the right interleaving,
 * reported *deterministically* on the first inconsistent nesting
 * even when the schedule never actually deadlocks:
 *
 *   level 1   warn() once per offending edge and count it
 *             (lockdepCycleCount() — tests assert on this)
 *   level 2   mmgpu_panic with both sides of the cycle — a death in
 *             tests, or a supervised shard crash inside a
 *             PanicScope (serve tier)
 *
 * Graph nodes are mutex *instances* (monotonic ids, never reused);
 * a destroyed mutex removes its edges so short-lived locks (one per
 * connection, one per batch line) cannot grow the graph without
 * bound. Recording is O(1) amortized: each thread keeps a cache of
 * edges it has already published and takes the global registry mutex
 * only for a pair it has never seen.
 *
 * sync::ConditionVariable pairs with sync::Mutex: at level 0 it is
 * std::condition_variable; instrumented builds use
 * std::condition_variable_any, whose wait() releases and reacquires
 * through Mutex::unlock()/lock() so the held stack stays truthful
 * across blocking waits.
 *
 * The serve tier's mutexes live on these types, so every tier-2
 * serve/chaos run — including the TSan tree in scripts/ci.sh — is a
 * lockdep run too (the default contract level is 1).
 */

#ifndef MMGPU_COMMON_LOCKDEP_HH
#define MMGPU_COMMON_LOCKDEP_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/contract.hh"
#include "common/thread_safety.hh"

#if defined(__SANITIZE_THREAD__)
#define MMGPU_LOCKDEP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MMGPU_LOCKDEP_TSAN 1
#endif
#endif
#ifdef MMGPU_LOCKDEP_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace mmgpu::sync
{

/** Inconsistent lock-order edges observed since start (or the last
 *  lockdepReset()). Always 0 when lockdep is compiled out. */
std::uint64_t lockdepCycleCount();

/** Forget recorded ordering and the cycle count (tests only: the
 *  graph spans every live sync::Mutex in the process). */
void lockdepReset();

#if MMGPU_CONTRACT_LEVEL == 0

/** Contracts off: sync::Mutex is std::mutex, not a wrapper. */
using Mutex = std::mutex;
using ConditionVariable = std::condition_variable;

inline constexpr bool lockdepEnabled = false;

#else

inline constexpr bool lockdepEnabled = true;

namespace detail
{
/** Acquisition bookkeeping behind Mutex; see lockdep.cc. */
std::uint32_t lockdepRegister();
void lockdepUnregister(std::uint32_t id);
void lockdepAcquired(std::uint32_t id);
void lockdepAcquiredNoOrder(std::uint32_t id);
void lockdepReleased(std::uint32_t id);
} // namespace detail

/**
 * Instrumented mutex: std::mutex semantics plus lock-order
 * recording. Satisfies Lockable, so std::lock_guard, std::unique_lock
 * and std::scoped_lock work unchanged.
 */
class MMGPU_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() : id_(detail::lockdepRegister()) {}
    ~Mutex()
    {
        detail::lockdepUnregister(id_);
#ifdef MMGPU_LOCKDEP_TSAN
        // std::mutex's destructor is trivial, so TSan never learns
        // the mutex died: a later mutex at the same address would
        // inherit this one's lock-order edges and TSan would report
        // cycles between mutexes that never coexisted.
        __tsan_mutex_destroy(&m_, 0);
#endif
    }

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() MMGPU_ACQUIRE()
    {
        m_.lock();
        detail::lockdepAcquired(id_);
    }

    bool try_lock() MMGPU_TRY_ACQUIRE(true)
    {
        if (!m_.try_lock())
            return false;
        // A try_lock cannot block, so it cannot deadlock and
        // contributes no ordering edge — but it is held, so the
        // stack must know about it for the *next* acquisition.
        detail::lockdepAcquiredNoOrder(id_);
        return true;
    }

    void unlock() MMGPU_RELEASE()
    {
        detail::lockdepReleased(id_);
        m_.unlock();
    }

  private:
    std::mutex m_;
    std::uint32_t id_;
};

using ConditionVariable = std::condition_variable_any;

#endif // MMGPU_CONTRACT_LEVEL == 0

} // namespace mmgpu::sync

#endif // MMGPU_COMMON_LOCKDEP_HH
