/**
 * @file
 * Unit tests for the gem5-style logging facilities.
 */

#include <mutex>
#include <string>

#include <gtest/gtest.h>

#include "common/lockdep.hh"
#include "common/logging.hh"

namespace
{

using namespace mmgpu;

TEST(Logging, FoldConcatenatesHeterogeneousArguments)
{
    EXPECT_EQ(detail::fold("x=", 42, " y=", 2.5, " z"), "x=42 y=2.5 z");
    EXPECT_EQ(detail::fold(), "");
}

TEST(LoggingDeathTest, FatalExitsWithCodeOne)
{
    EXPECT_EXIT(mmgpu_fatal("user misconfigured ", 7),
                ::testing::ExitedWithCode(1), "user misconfigured 7");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(mmgpu_panic("internal bug"), "internal bug");
}

/** Counts its own destructions. */
struct CountsDestruction
{
    int *count;
    ~CountsDestruction() { ++*count; }
};

/** Panic from a frame of its own while it holds @p mutex and a
 *  destructor-counting local. */
[[noreturn]] void
panicHolding(sync::Mutex &mutex, int &destroyed)
{
    std::lock_guard<sync::Mutex> lock(mutex);
    CountsDestruction local{&destroyed};
    mmgpu_panic("panicked holding the lock");
}

TEST(LoggingDeathTest, PanicScopeUnwindsToItsCatch)
{
    // Inside a PanicScope a panic throws Panic, so every frame
    // between it and the catch unwinds: destructors run once and
    // lock guards release. An abandoned frame would leave the mutex
    // locked and the local undestroyed.
    sync::Mutex mutex;
    int destroyed = 0;
    std::string inner_message;
    std::string outer_message;
    try {
        PanicScope outer;
        try {
            PanicScope inner;
            mmgpu_panic("inner ", 1);
        } catch (const Panic &panic) {
            inner_message = panic.message;
        }
        // The inner catch leaves the outer scope armed.
        panicHolding(mutex, destroyed);
    } catch (const Panic &panic) {
        outer_message = panic.message;
    }
    EXPECT_EQ(inner_message, "inner 1");
    EXPECT_EQ(outer_message, "panicked holding the lock");
    EXPECT_EQ(destroyed, 1);
    ASSERT_TRUE(mutex.try_lock());
    mutex.unlock();
    // Both scopes are gone, so a panic aborts again.
    EXPECT_DEATH(mmgpu_panic("unsupervised"), "unsupervised");
}

TEST(LoggingDeathTest, AssertPassesOnTrue)
{
    mmgpu_assert(1 + 1 == 2, "arithmetic works");
    SUCCEED();
}

TEST(LoggingDeathTest, AssertAbortsOnFalseWithExpressionText)
{
    EXPECT_DEATH(mmgpu_assert(2 + 2 == 5, "message ", 99),
                 "2 \\+ 2 == 5");
}

TEST(Logging, WarnAndInformDoNotTerminate)
{
    warn("just a warning: ", 1);
    setInformEnabled(false);
    inform("suppressed");
    setInformEnabled(true);
    inform("visible");
    SUCCEED();
}

} // namespace
