/**
 * @file
 * Unit tests for the engine layer: the event calendar and its
 * simulation clock, the component reset/audit protocol behind
 * build-once machines, and the pluggable CTA scheduling policy.
 *
 * The calendar tests pin down the determinism contract the machine
 * depends on for bit-identical runs: event order is a pure function
 * of the schedule()/pop() call sequence (verified against the
 * std::priority_queue the seed implementation used, and the whole
 * heap array against std::push_heap/std::pop_heap after every
 * operation), and reset() restores a state indistinguishable from
 * freshly constructed.
 */

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/contract.hh"
#include "engine/calendar.hh"
#include "engine/component.hh"
#include "engine/cta_policy.hh"
#include "engine/pool.hh"
#include "sm/cta_scheduler.hh"

namespace
{

using namespace mmgpu;
using engine::Calendar;
using engine::Component;
using engine::ComponentRegistry;
using engine::Event;

// ------------------------------------------------------------- //
// Calendar: ordering and clock semantics.

TEST(Calendar, PopsEventsInTimeOrder)
{
    Calendar calendar;
    const double times[] = {7.0, 1.0, 9.0, 3.0, 3.5, 0.25, 8.0};
    std::uint32_t index = 0;
    for (double t : times)
        calendar.schedule(t, index++, false);
    ASSERT_EQ(calendar.pending(), 7u);
    double last = -1.0;
    while (!calendar.empty()) {
        const Event event = calendar.pop();
        EXPECT_GE(event.when, last);
        last = event.when;
    }
    EXPECT_DOUBLE_EQ(last, 9.0);
}

TEST(Calendar, PayloadAndLaneSurviveTheHeap)
{
    Calendar calendar;
    calendar.schedule(2.0, 42, true);
    calendar.schedule(1.0, 17, false);
    Event first = calendar.pop();
    EXPECT_EQ(first.index, 17u);
    EXPECT_FALSE(first.isMem);
    Event second = calendar.pop();
    EXPECT_EQ(second.index, 42u);
    EXPECT_TRUE(second.isMem);
}

/** Reference implementation: the std::priority_queue the machine
 *  used before the calendar was extracted. Bit-identity across the
 *  refactor requires the exact same pop sequence, including the
 *  (structural, unspecified-but-deterministic) order of ties. */
struct ReferenceQueue
{
    std::priority_queue<Event, std::vector<Event>,
                        std::greater<Event>>
        queue;

    void
    schedule(noc::Tick when, std::uint32_t index, bool is_mem)
    {
        queue.push({when, index, is_mem});
    }

    Event
    pop()
    {
        Event event = queue.top();
        queue.pop();
        return event;
    }
};

TEST(Calendar, TieOrderMatchesPriorityQueueExactly)
{
    // Interleave schedules and pops with many duplicate timestamps
    // and compare the full pop sequence against priority_queue.
    // A deterministic LCG drives the interleave (no std::rand in
    // tests either — the sequence must be reproducible).
    Calendar calendar;
    ReferenceQueue reference;
    std::uint64_t lcg = 12345;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(lcg >> 33);
    };
    std::uint32_t serial = 0;
    for (int round = 0; round < 2000; ++round) {
        const std::uint32_t roll = next();
        if (roll % 3 != 0 || calendar.empty()) {
            // Coarse times: only 8 distinct values, lots of ties.
            const double when = static_cast<double>(next() % 8);
            const bool is_mem = (next() & 1) != 0;
            calendar.schedule(when, serial, is_mem);
            reference.schedule(when, serial, is_mem);
            ++serial;
        } else {
            const Event ours = calendar.pop();
            const Event theirs = reference.pop();
            EXPECT_DOUBLE_EQ(ours.when, theirs.when);
            ASSERT_EQ(ours.index, theirs.index)
                << "tie-break diverged from priority_queue at round "
                << round;
            EXPECT_EQ(ours.isMem, theirs.isMem);
        }
    }
    while (!calendar.empty()) {
        ASSERT_EQ(calendar.pop().index, reference.pop().index);
    }
}

TEST(Calendar, ClockFollowsPopsAndNeverRunsBackward)
{
    Calendar calendar;
    EXPECT_DOUBLE_EQ(calendar.now(), 0.0);
    calendar.schedule(5.0, 0, false);
    calendar.schedule(2.0, 1, false);
    calendar.pop(); // t = 2
    EXPECT_DOUBLE_EQ(calendar.now(), 2.0);
    calendar.pop(); // t = 5
    EXPECT_DOUBLE_EQ(calendar.now(), 5.0);
    // An event scheduled in the past pops fine but cannot rewind
    // the clock.
    calendar.schedule(1.0, 2, false);
    calendar.pop();
    EXPECT_DOUBLE_EQ(calendar.now(), 5.0);
}

TEST(Calendar, AdvanceToClampsFromBelowOnly)
{
    Calendar calendar;
    calendar.advanceTo(10.0);
    EXPECT_DOUBLE_EQ(calendar.now(), 10.0);
    calendar.advanceTo(4.0); // earlier launch start: no rewind
    EXPECT_DOUBLE_EQ(calendar.now(), 10.0);
    // A launch with no events still ends no earlier than it began.
    calendar.advanceTo(12.5);
    EXPECT_DOUBLE_EQ(calendar.now(), 12.5);
}

TEST(Calendar, ResetRestoresFreshlyConstructedBehaviour)
{
    // Run the same schedule twice — once on a fresh calendar, once
    // on a reused one — and require identical pop sequences. This is
    // the micro version of the machine-level build-once bit-identity
    // test in test_gpu_sim.
    auto drive = [](Calendar &calendar) {
        const double times[] = {3.0, 3.0, 1.0, 4.0, 3.0, 1.0};
        std::uint32_t index = 0;
        for (double t : times) {
            calendar.schedule(t, index, (index & 1) != 0);
            ++index;
        }
        std::vector<Event> popped;
        while (!calendar.empty())
            popped.push_back(calendar.pop());
        return popped;
    };

    Calendar reused;
    reused.reserve(64);
    drive(reused); // dirty it
    reused.schedule(99.0, 7, true);
    reused.reset();
    EXPECT_TRUE(reused.empty());
    EXPECT_EQ(reused.pending(), 0u);
    EXPECT_DOUBLE_EQ(reused.now(), 0.0);

    Calendar fresh;
    const std::vector<Event> a = drive(fresh);
    const std::vector<Event> b = drive(reused);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].when, b[i].when);
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].isMem, b[i].isMem);
    }
}

TEST(Calendar, HeapArrayMatchesStdHeapAfterEveryOperation)
{
    // Differential test of the hand-written heap against the
    // standard heap algorithms on a plain vector: schedule() is
    // push_back + std::push_heap, pop() is std::pop_heap + pop_back,
    // reset() is clear. The whole
    // heap array — not only the pop order — must match after every
    // operation, under heavy same-tick ties and growth far past the
    // reserved capacity.
    Calendar calendar;
    calendar.reserve(8);
    std::vector<Event> reference;
    std::uint64_t lcg = 2024;
    auto next = [&lcg]() {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(lcg >> 33);
    };
    auto push_reference = [&reference](const Event &event) {
        reference.push_back(event);
        std::push_heap(reference.begin(), reference.end(),
                       std::greater<>{});
    };
    std::uint32_t serial = 0;
    // Six distinct ticks, a few with a half-tick offset: most
    // events tie with many others.
    auto when = [&next]() {
        return static_cast<double>(next() % 6) +
               (next() % 4 == 0 ? 0.5 : 0.0);
    };
    std::size_t peak = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint32_t roll = next() % 1000;
        if (roll < 400) {
            const Event event{when(), serial++, (next() & 1) != 0};
            calendar.schedule(event.when, event.index, event.isMem);
            push_reference(event);
        } else if (roll < 550) {
            // A burst of schedules, as CTA dispatch makes.
            const std::uint32_t burst = 1 + next() % 16;
            for (std::uint32_t k = 0; k < burst; ++k) {
                const Event event{when(), serial++, (next() & 1) != 0};
                calendar.schedule(event.when, event.index, event.isMem);
                push_reference(event);
            }
        } else if (roll < 998) {
            if (reference.empty())
                continue;
            const Event ours = calendar.pop();
            std::pop_heap(reference.begin(), reference.end(),
                          std::greater<>{});
            const Event theirs = reference.back();
            reference.pop_back();
            ASSERT_EQ(ours.index, theirs.index) << "step " << step;
            ASSERT_EQ(ours.when, theirs.when) << "step " << step;
        } else {
            calendar.reset();
            reference.clear();
        }
        peak = std::max(peak, reference.size());
        const auto heap = calendar.heap();
        ASSERT_EQ(heap.size(), reference.size()) << "step " << step;
        for (std::size_t i = 0; i < heap.size(); ++i) {
            ASSERT_EQ(heap[i].index, reference[i].index)
                << "heap slot " << i << " at step " << step;
            ASSERT_EQ(heap[i].when, reference[i].when);
            ASSERT_EQ(heap[i].isMem, reference[i].isMem);
        }
    }
    EXPECT_GT(peak, 1000u); // grew well past reserve()
}

// ------------------------------------------------------------- //
// GenPool: generation-checked bump allocation.

TEST(GenPool, HandlesRoundTripAndStorePayloads)
{
    engine::GenPool<int> pool;
    const std::uint32_t a = pool.alloc();
    const std::uint32_t b = pool.alloc();
    ASSERT_NE(a, b);
    pool.at(a) = 41;
    pool.at(b) = 42;
    EXPECT_EQ(pool.at(a), 41);
    EXPECT_EQ(pool.at(b), 42);
    EXPECT_EQ(pool.inFlight(), 2u);
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.inFlight(), 0u);
}

TEST(GenPool, ReleasedSlotIsReusedWithANewGeneration)
{
    engine::GenPool<int> pool;
    const std::uint32_t first = pool.alloc();
    pool.release(first);
    const std::uint32_t second = pool.alloc();
    // Free-list-first allocation: same slot index, bumped generation
    // — the stale handle and the live one must differ.
    EXPECT_EQ(first & engine::GenPool<int>::indexMask,
              second & engine::GenPool<int>::indexMask);
    EXPECT_NE(first, second);
    pool.at(second) = 7;
    EXPECT_EQ(pool.at(second), 7);
}

TEST(GenPool, HandleSequenceIsAPureFunctionOfTheCallSequence)
{
    // Two pools driven through the same alloc/release script hand
    // out identical handles — the property that keeps pool-indexed
    // calendar events bit-identical across fresh and reused machines.
    auto drive = [](engine::GenPool<int> &pool) {
        std::vector<std::uint32_t> handles;
        std::vector<std::uint32_t> live;
        std::uint64_t lcg = 777;
        for (int round = 0; round < 300; ++round) {
            lcg = lcg * 6364136223846793005ull +
                  1442695040888963407ull;
            const std::uint32_t roll =
                static_cast<std::uint32_t>(lcg >> 33);
            if (roll % 3 != 0 || live.empty()) {
                const std::uint32_t h = pool.alloc();
                handles.push_back(h);
                live.push_back(h);
            } else {
                const std::size_t pick = roll % live.size();
                pool.release(live[pick]);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(pick));
            }
        }
        return handles;
    };
    engine::GenPool<int> a;
    engine::GenPool<int> b;
    EXPECT_EQ(drive(a), drive(b));
}

TEST(GenPool, ResetRunRewindsButInvalidatesOldHandles)
{
    engine::GenPool<int> pool;
    const std::uint32_t before = pool.alloc();
    pool.at(before) = 1;
    pool.resetRun();
    EXPECT_EQ(pool.inFlight(), 0u);
    const std::uint32_t after = pool.alloc();
    // Bump allocation restarts at slot 0, but the generation moved:
    // a handle from the previous run can never alias the new one.
    EXPECT_EQ(after & engine::GenPool<int>::indexMask,
              before & engine::GenPool<int>::indexMask);
    EXPECT_NE(after, before);
    pool.release(after);
}

#if MMGPU_CONTRACT_LEVEL >= 2
TEST(GenPoolDeathTest, StaleHandleDereferenceDiesUnderAudits)
{
    // The index-pool version of use-after-free: an event carrying a
    // handle whose slot was recycled. With audits armed the
    // generation check must kill the process, not hand back an
    // unrelated task's storage.
    engine::GenPool<int> pool;
    const std::uint32_t stale = pool.alloc();
    pool.release(stale);
    const std::uint32_t fresh = pool.alloc(); // recycles the slot
    (void)fresh;
    EXPECT_DEATH(pool.at(stale), "stale pool handle");
}

TEST(GenPoolDeathTest, StaleHandleReleaseDiesUnderAudits)
{
    engine::GenPool<int> pool;
    const std::uint32_t handle = pool.alloc();
    pool.release(handle);
    EXPECT_DEATH(pool.release(handle), "stale pool handle");
}
#endif

// ------------------------------------------------------------- //
// Component protocol.

/** Scripted component: records protocol calls into a shared log. */
struct Probe : Component
{
    std::string id;
    std::vector<std::string> *log;
    std::string verdict; //!< what auditDrained reports

    Probe(std::string id_, std::vector<std::string> *log_)
        : id(std::move(id_)), log(log_)
    {
    }

    const char *componentName() const override { return id.c_str(); }

    void resetRun() override { log->push_back("reset:" + id); }

    std::string
    auditDrained() const override
    {
        log->push_back("audit:" + id);
        return verdict;
    }
};

TEST(ComponentRegistry, ResetsFireInRegistrationOrder)
{
    std::vector<std::string> log;
    Probe first("alpha", &log);
    Probe second("beta", &log);
    ComponentRegistry registry;
    registry.add(first);
    registry.add("adhoc", [&log]() { log.push_back("reset:adhoc"); });
    registry.add(second);
    registry.resetAll();
    std::vector<std::string> resets;
    for (const std::string &entry : log)
        if (entry.rfind("reset:", 0) == 0)
            resets.push_back(entry);
    const std::vector<std::string> expected = {
        "reset:alpha", "reset:adhoc", "reset:beta"};
    EXPECT_EQ(resets, expected);
}

TEST(ComponentRegistry, AuditAllReturnsFirstVerdictNamePrefixed)
{
    std::vector<std::string> log;
    Probe clean("clean", &log);
    Probe leaky("leaky", &log);
    leaky.verdict = "3 tasks still in flight";
    Probe also_leaky("later", &log);
    also_leaky.verdict = "unreached";
    ComponentRegistry registry;
    registry.add(clean);
    registry.add(leaky);
    registry.add(also_leaky);
    const std::string verdict = registry.auditAll();
    EXPECT_EQ(verdict, "leaky: 3 tasks still in flight");
}

TEST(ComponentRegistry, QuiescentMachineAuditsEmpty)
{
    std::vector<std::string> log;
    Probe quiet("quiet", &log);
    ComponentRegistry registry;
    registry.add(quiet);
    registry.add("no-audit", []() {}); // null audit: vacuously drained
    EXPECT_EQ(registry.auditAll(), "");
    registry.resetAll(); // must not fire any invariant
}

#if MMGPU_CONTRACT_LEVEL >= 2
TEST(ComponentRegistryDeathTest, ReusingNonQuiescentMachinePanics)
{
    // resetAll on a machine still holding in-flight work is the
    // exact hazard build-once introduces; with audits armed it must
    // die rather than silently leak state into the next run.
    std::vector<std::string> log;
    Probe stuck("mem-pipeline", &log);
    stuck.verdict = "leaked memory tasks: 2 of 64 still in flight";
    ComponentRegistry registry;
    registry.add(stuck);
    EXPECT_DEATH(registry.resetAll(),
                 "machine reused while not quiescent");
}
#endif

// ------------------------------------------------------------- //
// CTA scheduling policy.

TEST(CtaPolicy, BuiltinPoliciesMatchAssignCtas)
{
    const sm::CtaSchedPolicy policies[] = {
        sm::CtaSchedPolicy::Distributed,
        sm::CtaSchedPolicy::RoundRobin};
    const unsigned shapes[][2] = {
        {64, 4}, {65, 4}, {7, 8}, {1, 1}, {0, 4}, {1024, 16}};
    for (sm::CtaSchedPolicy policy : policies) {
        const auto plug = engine::makeCtaPolicy(policy);
        ASSERT_NE(plug, nullptr);
        for (const auto &shape : shapes) {
            SCOPED_TRACE(std::string(plug->name()) + " " +
                         std::to_string(shape[0]) + "x" +
                         std::to_string(shape[1]));
            EXPECT_EQ(plug->assign(shape[0], shape[1]),
                      sm::assignCtas(shape[0], shape[1], policy));
        }
    }
}

TEST(CtaPolicy, NamesIdentifyThePolicy)
{
    EXPECT_STREQ(
        engine::makeCtaPolicy(sm::CtaSchedPolicy::Distributed)->name(),
        "distributed");
    EXPECT_STREQ(
        engine::makeCtaPolicy(sm::CtaSchedPolicy::RoundRobin)->name(),
        "round-robin");
}

TEST(CtaPolicy, AssignmentIsDeterministic)
{
    const auto policy =
        engine::makeCtaPolicy(sm::CtaSchedPolicy::Distributed);
    const auto once = policy->assign(333, 8);
    const auto again = policy->assign(333, 8);
    EXPECT_EQ(once, again);
    // Every CTA appears exactly once across the per-GPM lists.
    std::vector<bool> seen(333, false);
    for (const auto &list : once) {
        for (unsigned cta : list) {
            ASSERT_LT(cta, 333u);
            EXPECT_FALSE(seen[cta]) << "CTA " << cta << " duplicated";
            seen[cta] = true;
        }
    }
    for (unsigned cta = 0; cta < 333; ++cta)
        EXPECT_TRUE(seen[cta]) << "CTA " << cta << " never assigned";
}

} // namespace
