/**
 * @file
 * Tests for the runtime lockdep (src/common/lockdep.hh): the ABBA
 * inversion a single thread can stage deterministically is detected
 * (counted at level 1, fatal at level 2), consistent nesting stays
 * quiet, the declared-order helpers (try_lock, early unlock) do not
 * poison the graph, and at contracts-off the instrumented types
 * compile away to their std aliases.
 *
 * Everything here is single-threaded ON PURPOSE: lockdep's whole
 * value is that it proves an inversion from one thread's lexical
 * nesting, without needing the two-thread schedule that would make
 * the deadlock (and the TSan report) actually happen.
 *
 * The staged inversions below are exactly what the static lock-order
 * rule exists to reject — suppressed file-wide, the runtime detector
 * needs real cycles to chew on.
 * mmgpu-lint: allow-file(lock-order)
 */

#include <mutex>
#include <optional>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/contract.hh"
#include "common/lockdep.hh"

namespace
{

using namespace mmgpu;

#if MMGPU_CONTRACT_LEVEL == 0

// Contracts off: sync::Mutex must BE std::mutex — zero overhead, no
// instrumentation, nothing to test but the identity itself.
static_assert(std::is_same_v<sync::Mutex, std::mutex>,
              "contracts-off sync::Mutex must alias std::mutex");
static_assert(
    std::is_same_v<sync::ConditionVariable, std::condition_variable>,
    "contracts-off ConditionVariable must alias the std type");
static_assert(!sync::lockdepEnabled);

TEST(Lockdep, DisabledBuildReportsNoCycles)
{
    EXPECT_EQ(sync::lockdepCycleCount(), 0u);
    sync::lockdepReset(); // must be callable and a no-op
}

#else // MMGPU_CONTRACT_LEVEL >= 1

static_assert(sync::lockdepEnabled);

TEST(Lockdep, ConsistentNestingIsQuiet)
{
    sync::lockdepReset();
    sync::Mutex a;
    sync::Mutex b;
    sync::Mutex c;
    for (int i = 0; i < 3; ++i) {
        std::lock_guard<sync::Mutex> la(a);
        std::lock_guard<sync::Mutex> lb(b);
        std::lock_guard<sync::Mutex> lc(c);
    }
    // A shorter prefix of the same order is also fine.
    {
        std::lock_guard<sync::Mutex> la(a);
        std::lock_guard<sync::Mutex> lc(c);
    }
    EXPECT_EQ(sync::lockdepCycleCount(), 0u);
}

TEST(Lockdep, MutexesAtReusedAddressesStartWithNoOrder)
{
    // Lock a -> b, destroy both, then build two new mutexes in the
    // same storage and lock them the other way round. The first pair
    // is dead, so there is no cycle: lockdep never reuses a mutex id,
    // and under TSan ~Mutex() tells TSan the old mutexes died.
    sync::lockdepReset();
    std::optional<sync::Mutex> a;
    std::optional<sync::Mutex> b;
    for (int round = 0; round < 2; ++round) {
        a.emplace();
        b.emplace();
        {
            std::lock_guard<sync::Mutex> first(round == 0 ? *a : *b);
            std::lock_guard<sync::Mutex> second(round == 0 ? *b : *a);
        }
        b.reset();
        a.reset();
    }
    EXPECT_EQ(sync::lockdepCycleCount(), 0u);
}

#if MMGPU_CONTRACT_LEVEL == 1
// Takes a then b, then b then a. TSan's own lock-order check reports
// this inversion too; tests/tsan_abba.supp suppresses it by this
// function's name, so no other test loses that check. Kept out of
// line so the name is a frame in every build type.
[[gnu::noinline]] void stageAbbaInversion(sync::Mutex &a, sync::Mutex &b)
{
    {
        std::lock_guard<sync::Mutex> la(a);
        std::lock_guard<sync::Mutex> lb(b); // publishes a -> b
    }
    {
        std::lock_guard<sync::Mutex> lb(b);
        std::lock_guard<sync::Mutex> la(a); // closes the cycle
    }
}

TEST(Lockdep, AbbaInversionIsCountedAtLevelOne)
{
    sync::lockdepReset();
    sync::Mutex a;
    sync::Mutex b;
    stageAbbaInversion(a, b);
    EXPECT_EQ(sync::lockdepCycleCount(), 1u);

    // The offending edge was NOT inserted: re-staging the same
    // inversion from a fresh edge-cache still reports, it does not
    // silently pass because the graph got corrupted.
    sync::lockdepReset();
    stageAbbaInversion(a, b);
    EXPECT_EQ(sync::lockdepCycleCount(), 1u);
}

TEST(Lockdep, TryLockDoesNotDeclareOrder)
{
    sync::lockdepReset();
    sync::Mutex a;
    sync::Mutex b;
    {
        std::lock_guard<sync::Mutex> la(a);
        ASSERT_TRUE(b.try_lock()); // opportunistic: no a -> b edge
        b.unlock();
    }
    {
        std::lock_guard<sync::Mutex> lb(b);
        std::lock_guard<sync::Mutex> la(a); // so b -> a is still fine
    }
    EXPECT_EQ(sync::lockdepCycleCount(), 0u);
}

TEST(Lockdep, EarlyUnlockReleasesTheHeldStack)
{
    sync::lockdepReset();
    sync::Mutex a;
    sync::Mutex b;
    {
        std::unique_lock<sync::Mutex> la(a);
        la.unlock(); // a no longer held...
        std::lock_guard<sync::Mutex> lb(b); // ...so no a -> b edge
    }
    {
        std::lock_guard<sync::Mutex> lb(b);
        std::lock_guard<sync::Mutex> la(a);
    }
    EXPECT_EQ(sync::lockdepCycleCount(), 0u);
}
#endif // MMGPU_CONTRACT_LEVEL == 1

#if MMGPU_CONTRACT_LEVEL >= 2
TEST(LockdepDeathTest, AbbaInversionIsFatalAtAuditLevel)
{
    sync::lockdepReset();
    sync::Mutex a;
    sync::Mutex b;
    {
        std::lock_guard<sync::Mutex> la(a);
        std::lock_guard<sync::Mutex> lb(b);
    }
    EXPECT_DEATH(
        {
            std::lock_guard<sync::Mutex> lb(b);
            std::lock_guard<sync::Mutex> la(a);
        },
        "lock-order inversion");
}
#endif // MMGPU_CONTRACT_LEVEL >= 2

#endif // MMGPU_CONTRACT_LEVEL
} // namespace
