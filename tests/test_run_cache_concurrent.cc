/**
 * @file
 * Concurrency tests for the persistent run cache's flush/merge path:
 * sibling caches flushing into the same runs.json while another
 * thread keeps truncating and corrupting the file must never crash,
 * and once the vandalism stops, a final flush round recovers every
 * sibling's entries. Carries the tier2 label: a TSan build tree
 * (`cmake -B build-tsan -DMMGPU_SANITIZE=thread`, `ctest -L tier2`)
 * runs it race-instrumented.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "harness/run_cache.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::harness;

namespace fs = std::filesystem;

/**
 * Per-process scratch directory: ctest runs this binary's tier2
 * whole-binary entry concurrently with its per-test entries, and
 * they must not share files.
 */
std::string
scratchDir(const std::string &name)
{
    return name + "." + std::to_string(::getpid());
}

sim::PerfResult
perfFor(std::uint64_t key)
{
    sim::PerfResult perf;
    perf.configName = "cfg" + std::to_string(key);
    perf.workloadName = "wl";
    perf.execCycles = static_cast<double>(key) * 3.5;
    perf.execSeconds = static_cast<double>(key) * 1e-6;
    return perf;
}

joule::EnergyBreakdown
energyFor(std::uint64_t key)
{
    joule::EnergyBreakdown energy;
    energy.smBusy = static_cast<double>(key) + 0.25;
    return energy;
}

TEST(RunCacheConcurrent, SiblingMergeSurvivesConcurrentTruncation)
{
    const std::string dir = scratchDir("run_cache_concurrent_scratch");
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string path = dir + "/runs.json";

    constexpr std::uint64_t rounds = 24;
    RunCache a(path);
    RunCache b(path);

    std::atomic<bool> stop{false};
    // The vandal: truncate or scribble over the file between the
    // siblings' flushes — modeling a concurrently interrupted writer.
    std::thread vandal([&] {
        Rng chaos(0xc0ffee);
        while (!stop.load(std::memory_order_acquire)) {
            switch (chaos.below(3)) {
              case 0: { // truncate to a random prefix
                std::error_code ec;
                auto size = fs::file_size(path, ec);
                if (!ec && size > 0) {
                    std::ofstream os(
                        path, std::ios::binary | std::ios::trunc);
                    os << std::string(chaos.below(size), '{');
                }
                break;
              }
              case 1: { // replace with garbage
                std::ofstream os(path, std::ios::trunc);
                os << "{\"schema\": 2, \"entries\": [truncated";
                break;
              }
              default: { // delete outright
                std::error_code ec;
                fs::remove(path, ec);
              }
            }
            std::this_thread::yield();
        }
    });

    auto writer = [&](RunCache &cache, std::uint64_t base) {
        for (std::uint64_t i = 0; i < rounds; ++i) {
            cache.insert(base + i, perfFor(base + i),
                         energyFor(base + i));
            cache.flush(); // may race the vandal; must not crash
        }
    };
    std::thread ta(writer, std::ref(a), 1000);
    std::thread tb(writer, std::ref(b), 2000);
    ta.join();
    tb.join();

    stop.store(true, std::memory_order_release);
    vandal.join();

    // Quiescent recovery: flush a then b. b's merge pass reads a's
    // surviving file and unions it with b's own entries (ours win),
    // so the final file holds both siblings' full entry sets.
    a.insert(999, perfFor(999), energyFor(999)); // mark a dirty
    EXPECT_TRUE(a.flush());
    b.insert(1999, perfFor(1999), energyFor(1999));
    EXPECT_TRUE(b.flush());

    RunCache merged(path);
    EXPECT_GE(merged.size(), 2 * rounds + 2);
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    for (std::uint64_t i = 0; i < rounds; ++i) {
        EXPECT_TRUE(merged.lookup(1000 + i, perf, energy)) << i;
        EXPECT_TRUE(merged.lookup(2000 + i, perf, energy)) << i;
    }
    // Round-tripped payloads are exact, not merely present.
    ASSERT_TRUE(merged.lookup(1000, perf, energy));
    EXPECT_EQ(perf.execCycles, perfFor(1000).execCycles);
    EXPECT_EQ(energy.smBusy, energyFor(1000).smBusy);

    fs::remove_all(dir);
}

TEST(RunCacheConcurrent, ManySiblingsFlushingConcurrently)
{
    const std::string dir = scratchDir("run_cache_concurrent_scratch2");
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string path = dir + "/runs.json";

    constexpr unsigned siblings = 4;
    constexpr std::uint64_t perSibling = 16;
    std::vector<std::unique_ptr<RunCache>> caches;
    for (unsigned s = 0; s < siblings; ++s)
        caches.push_back(std::make_unique<RunCache>(path));

    std::vector<std::thread> threads;
    for (unsigned s = 0; s < siblings; ++s) {
        threads.emplace_back([&, s] {
            std::uint64_t base = (s + 1) * 10000;
            for (std::uint64_t i = 0; i < perSibling; ++i) {
                caches[s]->insert(base + i, perfFor(base + i),
                                  energyFor(base + i));
                caches[s]->flush();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    // One final serial merge round: afterwards the last flush's file
    // holds the union of every sibling's entries.
    for (unsigned s = 0; s < siblings; ++s) {
        std::uint64_t mark = (s + 1) * 10000 + perSibling;
        caches[s]->insert(mark, perfFor(mark), energyFor(mark));
        EXPECT_TRUE(caches[s]->flush());
    }

    RunCache merged(path);
    EXPECT_EQ(merged.size(), siblings * (perSibling + 1));
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    for (unsigned s = 0; s < siblings; ++s)
        for (std::uint64_t i = 0; i <= perSibling; ++i)
            EXPECT_TRUE(merged.lookup((s + 1) * 10000 + i, perf,
                                      energy));

    fs::remove_all(dir);
}

} // namespace
