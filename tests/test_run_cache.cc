/**
 * @file
 * Tests for the persistent on-disk run cache: bit-exact round-trips,
 * graceful handling of missing/corrupt/stale files, and the
 * fingerprint keying.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <sys/wait.h>
#include <unistd.h>

#include "common/wallclock.hh"

#include "harness/run_cache.hh"
#include "sim/gpu_config.hh"
#include "trace/workloads.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::harness;

namespace fs = std::filesystem;

/** Fresh scratch path per test (ctest runs tests concurrently). */
std::string
scratchPath(const char *name)
{
    fs::path dir = fs::path("run_cache_scratch") / name;
    fs::remove_all(dir);
    return (dir / "runs.json").string();
}

/** A PerfResult with every field set, using awkward doubles
 *  (non-terminating binary fractions, tiny magnitudes). */
sim::PerfResult
fussyPerf()
{
    sim::PerfResult perf;
    perf.configName = "cfg \"quoted\"";
    perf.workloadName = "wl\\backslash";
    perf.execCycles = 123456789.000000123;
    perf.execSeconds = 0.1; // not representable in binary
    for (std::size_t i = 0; i < perf.instrs.size(); ++i)
        perf.instrs[i] = 0x123456789abcdefull + i;
    for (std::size_t i = 0; i < perf.mem.txns.size(); ++i)
        perf.mem.txns[i] = 7 * i + 1;
    perf.mem.l1SectorMisses = 11;
    perf.mem.l2SectorMisses = 22;
    perf.mem.remoteSectors = 33;
    perf.mem.localSectors = 44;
    perf.mem.writebackSectors = 55;
    perf.link.byteHops = 66;
    perf.link.messageBytes = 77;
    perf.link.switchBytes = 88;
    perf.link.transfers = 99;
    perf.link.rerouted = 98;
    perf.link.arrivals = 97;
    perf.link.deliveredBytes = 0xfedcba9876543210ull;
    perf.link.reconfigs = 96;
    perf.smBusyCycles = 1.0 / 3.0;
    perf.smStallCycles = 2.0 / 7.0;
    perf.smOccupiedCycles = 1e-300; // subnormal-adjacent
    perf.l1Accesses = 101;
    perf.l1SectorHits = 102;
    perf.l2Accesses = 103;
    perf.l2SectorHits = 104;
    perf.dramQueueing = 3.141592653589793;
    perf.linkQueueing = 2.718281828459045;
    perf.linkBusy = 0x1.fffffffffffffp+100;
    perf.dramBusy = 5e-324; // smallest subnormal
    return perf;
}

joule::EnergyBreakdown
fussyEnergy()
{
    joule::EnergyBreakdown energy;
    energy.smBusy = 1.0 / 9.0;
    energy.smIdle = 1.0 / 11.0;
    energy.constant = 123.456e-5;
    energy.shmToReg = 0.0;
    energy.l1ToReg = 1e22;
    energy.l2ToL1 = 0.30000000000000004;
    energy.dramToL2 = 6.02214076e23;
    energy.interModule = 1.6021766e-19;
    return energy;
}

TEST(RunCache, RoundTripIsBitExact)
{
    std::string path = scratchPath("roundtrip");
    sim::PerfResult perf = fussyPerf();
    joule::EnergyBreakdown energy = fussyEnergy();

    {
        RunCache cache(path);
        EXPECT_EQ(cache.size(), 0u);
        cache.insert(0xdeadbeefcafef00dull, perf, energy);
        EXPECT_TRUE(cache.flush());
    }

    RunCache reloaded(path);
    ASSERT_EQ(reloaded.size(), 1u);
    sim::PerfResult perf2;
    joule::EnergyBreakdown energy2;
    ASSERT_TRUE(
        reloaded.lookup(0xdeadbeefcafef00dull, perf2, energy2));
    // Whole-struct equality: every field the codec's field lists
    // name must survive, with no hand-kept list of them here.
    EXPECT_TRUE(perf2 == perf);
    EXPECT_TRUE(energy2 == energy);
    EXPECT_FALSE(reloaded.lookup(0x1234ull, perf2, energy2));
    EXPECT_EQ(reloaded.hits(), 1u);
    EXPECT_EQ(reloaded.misses(), 1u);

    fs::remove_all("run_cache_scratch/roundtrip");
}

TEST(RunCache, CorruptFileIsAMissNotACrash)
{
    std::string path = scratchPath("corrupt");
    fs::create_directories(fs::path(path).parent_path());
    {
        std::ofstream os(path);
        os << "{\"schema\": 1, \"entries\": [this is not json";
    }

    RunCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    EXPECT_FALSE(cache.lookup(1, perf, energy));

    // The cache stays usable: inserts overwrite the corrupt file.
    cache.insert(1, fussyPerf(), fussyEnergy());
    EXPECT_TRUE(cache.flush());
    RunCache reloaded(path);
    EXPECT_EQ(reloaded.size(), 1u);

    fs::remove_all("run_cache_scratch/corrupt");
}

TEST(RunCache, StaleSchemaIsInvalidated)
{
    std::string path = scratchPath("schema");
    fs::create_directories(fs::path(path).parent_path());
    {
        std::ofstream os(path);
        os << "{\"schema\": 999, \"entries\": []}";
    }
    RunCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    fs::remove_all("run_cache_scratch/schema");
}

TEST(RunCache, MissingFileIsEmpty)
{
    RunCache cache("run_cache_scratch/missing/does_not_exist.json");
    EXPECT_EQ(cache.size(), 0u);
}

TEST(RunCache, FlushMergesSiblingEntries)
{
    std::string path = scratchPath("merge");
    RunCache a(path);
    RunCache b(path);
    a.insert(1, fussyPerf(), fussyEnergy());
    b.insert(2, fussyPerf(), fussyEnergy());
    EXPECT_TRUE(a.flush());
    EXPECT_TRUE(b.flush()); // must not drop key 1

    RunCache merged(path);
    EXPECT_EQ(merged.size(), 2u);
    fs::remove_all("run_cache_scratch/merge");
}

TEST(RunCache, FingerprintCoversEveryInput)
{
    auto config = sim::multiGpmConfig(4, sim::BwSetting::Bw2x);
    auto workloads = trace::scalingWorkloads();
    const trace::KernelProfile &profile = workloads.front();

    std::uint64_t base = runFingerprint(config, profile, 1.0, -1.0, 7);
    EXPECT_EQ(runFingerprint(config, profile, 1.0, -1.0, 7), base);

    // Any changed input must move the key.
    EXPECT_NE(runFingerprint(config, profile, 2.0, -1.0, 7), base);
    EXPECT_NE(runFingerprint(config, profile, 1.0, 0.5, 7), base);
    EXPECT_NE(runFingerprint(config, profile, 1.0, -1.0, 8), base);

    auto other_config = sim::multiGpmConfig(8, sim::BwSetting::Bw2x);
    EXPECT_NE(runFingerprint(other_config, profile, 1.0, -1.0, 7),
              base);

    trace::KernelProfile reseeded = profile;
    reseeded.seed += 1;
    EXPECT_NE(runFingerprint(config, reseeded, 1.0, -1.0, 7), base);

    trace::KernelProfile stretched = profile;
    stretched.iterations += 1;
    EXPECT_NE(runFingerprint(config, stretched, 1.0, -1.0, 7), base);
}

TEST(RunCache, CrashLosesNothingThanksToJournal)
{
    std::string path = scratchPath("crash");

    // The "crashing" process: entry 1 reaches the snapshot via an
    // explicit flush (which truncates the journal), entry 2 lives
    // only in memory + journal when the process dies without running
    // destructors or the atexit flush — the kill -9 model.
    pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        RunCache doomed(path);
        doomed.insert(1, fussyPerf(), fussyEnergy());
        bool flushed = doomed.flush();
        doomed.insert(2, fussyPerf(), fussyEnergy());
        _exit(flushed ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    // The survivor replays the journal: BOTH entries come back
    // bit-exactly — a crash loses zero completed simulations.
    RunCache survivor(path);
    EXPECT_EQ(survivor.size(), 2u);
    EXPECT_EQ(survivor.walReplayed(), 1u); // only the unflushed one
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    EXPECT_TRUE(survivor.lookup(1, perf, energy));
    EXPECT_TRUE(perf == fussyPerf());
    EXPECT_TRUE(survivor.lookup(2, perf, energy));
    EXPECT_TRUE(perf == fussyPerf());

    // And stays writable: post-crash work merges on top, and the
    // flush folds the replayed record into the snapshot and empties
    // the journal.
    survivor.insert(3, fussyPerf(), fussyEnergy());
    EXPECT_TRUE(survivor.flush());
    std::error_code ec;
    EXPECT_EQ(fs::file_size(survivor.walPath(), ec), 0u);
    RunCache merged(path);
    EXPECT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged.walReplayed(), 0u);

    fs::remove_all("run_cache_scratch/crash");
}

TEST(RunCache, CrashLosesUnflushedInsertsWithJournalDisabled)
{
    std::string path = scratchPath("crash_nowal");
    setenv("MMGPU_CACHE_WAL", "0", 1);

    pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        RunCache doomed(path);
        doomed.insert(1, fussyPerf(), fussyEnergy());
        bool flushed = doomed.flush();
        doomed.insert(2, fussyPerf(), fussyEnergy());
        _exit(flushed ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    // Flush-only durability: the survivor sees exactly the flushed
    // state — never a torn file (flush is write-tmp + rename), and
    // the lost insert is simply recomputed.
    RunCache survivor(path);
    EXPECT_FALSE(survivor.walEnabled());
    EXPECT_EQ(survivor.size(), 1u);
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    EXPECT_TRUE(survivor.lookup(1, perf, energy));
    EXPECT_FALSE(survivor.lookup(2, perf, energy));

    unsetenv("MMGPU_CACHE_WAL");
    fs::remove_all("run_cache_scratch/crash_nowal");
}

TEST(RunCache, TornJournalRecordIsDroppedNotContagious)
{
    std::string path = scratchPath("torn");
    {
        RunCache cache(path);
        cache.armWalTear(2); // the second append dies mid-payload
        cache.insert(1, fussyPerf(), fussyEnergy());
        cache.insert(2, fussyPerf(), fussyEnergy()); // torn
        cache.insert(3, fussyPerf(), fussyEnergy());
        // No flush: everything must come back from the journal.
    }

    // Replay drops exactly the torn record — its neighbours survive
    // because each append leads with the newline that terminates a
    // torn predecessor.
    RunCache reloaded(path);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.walReplayed(), 2u);
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    EXPECT_TRUE(reloaded.lookup(1, perf, energy));
    EXPECT_TRUE(perf == fussyPerf());
    EXPECT_FALSE(reloaded.lookup(2, perf, energy));
    EXPECT_TRUE(reloaded.lookup(3, perf, energy));

    fs::remove_all("run_cache_scratch/torn");
}

TEST(RunCache, StopAutoFlushPerformsFinalFlushAndTruncatesJournal)
{
    std::string path = scratchPath("finalflush");
    {
        RunCache cache(path);
        cache.startAutoFlush(3600.0); // never fires on its own
        cache.insert(7, fussyPerf(), fussyEnergy());
        cache.stopAutoFlush(); // must flush + truncate, not just join

        std::error_code ec;
        EXPECT_EQ(fs::file_size(cache.walPath(), ec), 0u);
    }

    // The snapshot alone (journal disabled) holds the entry.
    setenv("MMGPU_CACHE_WAL", "0", 1);
    RunCache probe(path);
    unsetenv("MMGPU_CACHE_WAL");
    EXPECT_EQ(probe.size(), 1u);

    fs::remove_all("run_cache_scratch/finalflush");
}

TEST(RunCache, AutoFlushPersistsEntriesInTheBackground)
{
    std::string path = scratchPath("autoflush");
    RunCache cache(path);
    cache.startAutoFlush(0.05);
    cache.insert(42, fussyPerf(), fussyEnergy());

    // No explicit flush(): the background thread must land it in the
    // snapshot (probes read with the journal disabled, so a WAL
    // append alone cannot satisfy them).
    std::int64_t deadline = wallclock::nowMs() + 10000;
    bool persisted = false;
    while (!persisted && wallclock::nowMs() < deadline) {
        setenv("MMGPU_CACHE_WAL", "0", 1);
        RunCache probe(path);
        unsetenv("MMGPU_CACHE_WAL");
        persisted = probe.size() == 1;
        if (!persisted)
            wallclock::sleepMs(20);
    }
    EXPECT_TRUE(persisted);
    EXPECT_GE(cache.autoFlushes(), 1u);

    cache.stopAutoFlush();
    std::uint64_t passes = cache.autoFlushes();
    wallclock::sleepMs(150);
    EXPECT_EQ(cache.autoFlushes(), passes); // stop means stopped

    fs::remove_all("run_cache_scratch/autoflush");
}

TEST(RunCache, AutoFlushEnvKnobParsesDefensively)
{
    unsetenv("MMGPU_CACHE_FLUSH_SEC");
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 0.0);
    setenv("MMGPU_CACHE_FLUSH_SEC", "", 1);
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 0.0);
    setenv("MMGPU_CACHE_FLUSH_SEC", "nonsense", 1);
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 0.0);
    setenv("MMGPU_CACHE_FLUSH_SEC", "-5", 1);
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 0.0);
    setenv("MMGPU_CACHE_FLUSH_SEC", "2.5x", 1);
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 0.0);
    setenv("MMGPU_CACHE_FLUSH_SEC", "2.5", 1);
    EXPECT_EQ(RunCache::autoFlushSecondsFromEnv(), 2.5);
    unsetenv("MMGPU_CACHE_FLUSH_SEC");
}

} // namespace
