/**
 * @file
 * Tests for the persistent on-disk run cache: bit-exact round-trips,
 * graceful handling of missing/corrupt/stale files, and the
 * fingerprint keying.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string_view>

#include <sys/wait.h>
#include <unistd.h>

#include "common/hash.hh"
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

/** fussyPerf() with negative doubles, one of them subnormal. */
sim::PerfResult
signedPerf()
{
    sim::PerfResult perf = fussyPerf();
    perf.smStallCycles = -2.0 / 7.0;
    perf.linkQueueing = -0x1.8p-1070; // negative subnormal
    perf.execSeconds = -0.0;
    return perf;
}

/** fussyEnergy() with negative doubles. */
joule::EnergyBreakdown
signedEnergy()
{
    joule::EnergyBreakdown energy = fussyEnergy();
    energy.constant = -123.456e-5;
    energy.interModule = -1.6021766e-19;
    return energy;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    fs::create_directories(fs::path(path).parent_path());
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

std::uint64_t
digestOf(std::string_view bytes)
{
    Fnv1a hash;
    hash.addBytes(bytes.data(), bytes.size());
    return hash.digest();
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

// ---------------------------------------------------------------- //
// The on-disk format, pinned: the bytes a journal append and a      //
// flush write, and what loading does with each kind of damage. The  //
// digests and verdicts were taken from the tree-based codec the     //
// streaming one replaced.                                           //
// ---------------------------------------------------------------- //

constexpr std::uint64_t keyA = 0x0123456789abcdefull;
constexpr std::uint64_t keyB = 0xfedcba9876543210ull;

TEST(RunCacheFormat, SnapshotAndJournalBytesArePinned)
{
    std::string path = scratchPath("pinned");
    RunCache cache(path);
    cache.insert(keyA, signedPerf(), signedEnergy());
    const std::string wal = readFile(cache.walPath());
    EXPECT_EQ(wal.size(), 1608u);
    EXPECT_EQ(digestOf(wal), 0x6af94e1fa42b1062ull) << wal;

    cache.insert(keyB, fussyPerf(), fussyEnergy());
    ASSERT_TRUE(cache.flush());
    const std::string snapshot = readFile(path);
    EXPECT_EQ(snapshot.size(), 4881u);
    EXPECT_EQ(digestOf(snapshot), 0x0d867f85643c7d93ull) << snapshot;

    // Those bytes load back to field-equal entries.
    RunCache reloaded(path);
    ASSERT_EQ(reloaded.size(), 2u);
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    ASSERT_TRUE(reloaded.lookup(keyA, perf, energy));
    EXPECT_TRUE(perf == signedPerf());
    EXPECT_TRUE(energy == signedEnergy());
    EXPECT_TRUE(std::signbit(perf.execSeconds));
    ASSERT_TRUE(reloaded.lookup(keyB, perf, energy));
    EXPECT_TRUE(perf == fussyPerf());
    EXPECT_TRUE(energy == fussyEnergy());

    fs::remove_all("run_cache_scratch/pinned");
}

/** A cache opened over hand-made files, and what it warned. */
struct Opened
{
    std::unique_ptr<RunCache> cache;
    std::string warnings;

    bool
    holds(std::uint64_t key, const sim::PerfResult &perf,
          const joule::EnergyBreakdown &energy) const
    {
        sim::PerfResult got_perf;
        joule::EnergyBreakdown got_energy;
        return cache->lookup(key, got_perf, got_energy) &&
               got_perf == perf && got_energy == energy;
    }
};

/** Open a cache at @p path over exactly @p snapshot and @p journal
 *  (an empty text leaves that file absent). */
Opened
openOver(const std::string &path, const std::string &snapshot,
         const std::string &journal)
{
    const std::string wal =
        fs::path(path).replace_extension(".wal").string();
    fs::remove(path);
    fs::remove(wal);
    if (!snapshot.empty())
        writeFile(path, snapshot);
    if (!journal.empty())
        writeFile(wal, journal);
    Opened opened;
    testing::internal::CaptureStderr();
    opened.cache = std::make_unique<RunCache>(path);
    opened.warnings = testing::internal::GetCapturedStderr();
    return opened;
}

/** Files written for keyA (signedPerf) and keyB (fussyPerf). */
struct Corpus
{
    std::string path;     //!< scratch path for openOver()
    std::string single;   //!< snapshot holding keyA alone
    std::string snapshot; //!< snapshot holding both, keyA first
    std::string journal;  //!< keyA's record, then keyB's
};

Corpus
makeCorpus(const char *name)
{
    Corpus corpus;
    corpus.path = scratchPath(name);
    RunCache cache(corpus.path);
    cache.insert(keyA, signedPerf(), signedEnergy());
    EXPECT_TRUE(cache.flush());
    corpus.single = readFile(corpus.path);
    cache.insert(keyA, signedPerf(), signedEnergy());
    cache.insert(keyB, fussyPerf(), fussyEnergy());
    corpus.journal = readFile(cache.walPath());
    EXPECT_TRUE(cache.flush());
    corpus.snapshot = readFile(corpus.path);
    return corpus;
}

/** Position just past the end of the first line holding @p needle. */
std::size_t
lineEnd(const std::string &text, std::string_view needle)
{
    std::size_t at = text.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    return at == std::string::npos ? text.size()
                                   : text.find('\n', at) + 1;
}

/** @p text without the first line holding @p needle. */
std::string
dropLine(const std::string &text, std::string_view needle)
{
    std::size_t end = lineEnd(text, needle);
    std::size_t begin = text.rfind('\n', end - 2) + 1;
    return text.substr(0, begin) + text.substr(end);
}

/** @p text with @p line inserted after the first line holding
 *  @p needle. */
std::string
insertAfter(const std::string &text, std::string_view needle,
            const std::string &line)
{
    std::size_t end = lineEnd(text, needle);
    return text.substr(0, end) + line + "\n" + text.substr(end);
}

/** @p text with the first @p from replaced by @p to. */
std::string
replaceFirst(const std::string &text, std::string_view from,
             std::string_view to)
{
    std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at == std::string::npos)
        return text;
    return text.substr(0, at) + std::string(to) +
           text.substr(at + from.size());
}

/** The value text of member @p name in its first occurrence. */
std::string
memberValue(const std::string &text, const std::string &name)
{
    std::size_t at = text.find("\"" + name + "\": ");
    EXPECT_NE(at, std::string::npos) << name;
    at += name.size() + 4;
    std::size_t end = text.find_first_of(",\n", at);
    return text.substr(at, end - at);
}

const char *const skippedOne = "skipped 1 undecodable entries";

TEST(RunCacheFormat, EveryTruncationOfASnapshotIsIgnoredWithAWarning)
{
    Corpus corpus = makeCorpus("truncated");
    const std::string &full = corpus.single;
    ASSERT_EQ(full.back(), '\n');
    // (An empty text leaves the file absent: a cold cache.)
    for (std::size_t len = 1; len + 1 < full.size(); ++len) {
        Opened opened =
            openOver(corpus.path, full.substr(0, len), "");
        ASSERT_EQ(opened.cache->size(), 0u) << len;
        ASSERT_NE(opened.warnings.find("is corrupt"), std::string::npos)
            << len << ": " << opened.warnings;
    }
    // Only the trailing newline may go.
    Opened opened =
        openOver(corpus.path, full.substr(0, full.size() - 1), "");
    EXPECT_TRUE(opened.holds(keyA, signedPerf(), signedEnergy()));
    EXPECT_EQ(opened.warnings, "");
    fs::remove_all("run_cache_scratch/truncated");
}

TEST(RunCacheFormat, DamagedEntriesAreSkippedAndTheirNeighboursKept)
{
    Corpus corpus = makeCorpus("damaged");
    const std::string &good = corpus.snapshot;
    // keyA's record comes first, so each first-match edit hits it.
    auto withValue = [&good](const std::string &name,
                             const std::string &text) {
        return replaceFirst(good,
                            "\"" + name + "\": " + memberValue(good, name),
                            "\"" + name + "\": " + text);
    };
    struct Case
    {
        const char *what;
        std::string snapshot;
        bool keptA;
        bool warned;
    };
    const Case cases[] = {
        {"missing key", dropLine(good, "\"dramToL2\""), false, true},
        {"unknown key",
         insertAfter(good, "\"dramToL2\"",
                     "\"zz\": {\"a\": [1, \"two\", null, true, {}]},"),
         true, false},
        {"duplicate key, the last one valid",
         insertAfter(good, "\"energy\": {",
                     "\"l1ToReg\": \"junk\","),
         true, false},
        {"duplicate key, the last one invalid",
         insertAfter(good, "\"l1ToReg\"", "\"l1ToReg\": \"junk\","),
         false, true},
        {"array one short", dropLine(good, "\"81985529216486895\""),
         false, true},
        {"array one long", insertAfter(good, "\"instrs\"", "\"0\","),
         false, true},
        {"out-of-range integer",
         withValue("l1Accesses", "\"18446744073709551616\""), false,
         true},
        {"negative unsigned integer", withValue("l1Accesses", "\"-1\""),
         false, true},
        {"integer as a JSON number", withValue("l1Accesses", "101"),
         false, true},
        {"malformed hexfloat", withValue("dramQueueing", "\"0x1.8p\""),
         false, true},
        {"hexfloat as a JSON number", withValue("dramQueueing", "3.25"),
         false, true},
        {"integer as an array",
         withValue("l1Accesses", "[\"101\", {\"x\": []}]"), false, true},
        {"hexfloat as an object",
         withValue("dramQueueing", "{\"v\": \"0x1p+0\"}"), false,
         true},
        {"key not hex", withValue("key", "\"0123456789abcdeg\""), false,
         true},
        {"key too short", withValue("key", "\"0123\""), false, true},
        {"non-object entry",
         replaceFirst(good, "\"entries\": [", "\"entries\": [7,"), true,
         true},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        Opened opened = openOver(corpus.path, c.snapshot, "");
        EXPECT_TRUE(opened.holds(keyB, fussyPerf(), fussyEnergy()));
        EXPECT_EQ(opened.holds(keyA, signedPerf(), signedEnergy()),
                  c.keptA);
        EXPECT_EQ(opened.cache->size(), c.keptA ? 2u : 1u);
        EXPECT_EQ(opened.warnings.find(skippedOne) != std::string::npos,
                  c.warned)
            << opened.warnings;
    }

    // A duplicate's last value wins over the first.
    Opened opened = openOver(
        corpus.path,
        insertAfter(good, "\"l1ToReg\"", "\"l1ToReg\": \"0x1p+0\","),
        "");
    joule::EnergyBreakdown energy = signedEnergy();
    energy.l1ToReg = 1.0;
    EXPECT_TRUE(opened.holds(keyA, signedPerf(), energy));
    EXPECT_EQ(opened.warnings, "");

    // Of two records under one key, the snapshot keeps the first.
    const std::size_t first = good.find("    {");
    const std::size_t second = good.find("    {", first + 1);
    std::string twice = good.substr(0, second) +
                        good.substr(first, second - first) +
                        good.substr(second);
    twice = replaceFirst(twice, "\"0x1.0f0cf064dd592p+73\"",
                         "\"0x1p+0\"");
    opened = openOver(corpus.path, twice, "");
    EXPECT_EQ(opened.cache->size(), 2u);
    EXPECT_TRUE(opened.holds(keyA, signedPerf(), energy));
    fs::remove_all("run_cache_scratch/damaged");
}

TEST(RunCacheFormat, WholeFileVerdicts)
{
    Corpus corpus = makeCorpus("whole");
    const std::string &good = corpus.snapshot;
    struct Case
    {
        const char *what;
        std::string snapshot;
        const char *warning; //!< nullptr: silently empty
    };
    const Case cases[] = {
        // "schema" sorts after "entries": the entries were read
        // before the version says to drop them.
        {"stale schema", replaceFirst(good, "\"schema\": 4", "\"schema\": 3"),
         nullptr},
        {"schema as a string",
         replaceFirst(good, "\"schema\": 4", "\"schema\": \"4\""), nullptr},
        {"no schema", "{\"entries\": []}", nullptr},
        {"stale schema, entries not an array",
         "{\"entries\": 7, \"schema\": 3}", nullptr},
        {"entries not an array", "{\"entries\": {\"a\": 1}, \"schema\": 4}",
         "has no entry table"},
        {"no entries", "{\"schema\": 4}", "has no entry table"},
        {"top level not an object", "[{\"schema\": 4}]", "is corrupt"},
        {"trailing garbage", good + "x", "is corrupt"},
        {"syntax error after the entries",
         replaceFirst(good, "\"schema\": 4", "\"schema\": 4,"),
         "is corrupt"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        Opened opened = openOver(corpus.path, c.snapshot, "");
        EXPECT_EQ(opened.cache->size(), 0u);
        if (c.warning == nullptr)
            EXPECT_EQ(opened.warnings, "");
        else
            EXPECT_NE(opened.warnings.find(c.warning), std::string::npos)
                << opened.warnings;
    }

    // A duplicated "schema" or "entries" member: the last one wins.
    Opened opened = openOver(
        corpus.path,
        replaceFirst(good, "\"schema\": 4", "\"schema\": 3, \"schema\": 4"),
        "");
    EXPECT_EQ(opened.cache->size(), 2u);
    opened = openOver(
        corpus.path,
        replaceFirst(good, "\"schema\": 4",
                     "\"entries\": [], \"schema\": 4"),
        "");
    EXPECT_EQ(opened.cache->size(), 0u);
    EXPECT_EQ(opened.warnings, "");
    fs::remove_all("run_cache_scratch/whole");
}

TEST(RunCacheFormat, JournalVerdicts)
{
    Corpus corpus = makeCorpus("journal");
    const std::string &journal = corpus.journal;
    const std::size_t second = journal.find('\n', 1);
    ASSERT_NE(second, std::string::npos);

    Opened whole = openOver(corpus.path, "", journal);
    EXPECT_EQ(whole.cache->walReplayed(), 2u);
    EXPECT_TRUE(whole.holds(keyA, signedPerf(), signedEnergy()));
    EXPECT_TRUE(whole.holds(keyB, fussyPerf(), fussyEnergy()));
    EXPECT_EQ(whole.warnings, "");

    // Every torn tail drops exactly the torn record.
    for (std::size_t len = second; len < journal.size(); ++len) {
        Opened opened =
            openOver(corpus.path, "", journal.substr(0, len));
        ASSERT_EQ(opened.cache->size(), 1u) << len;
        ASSERT_TRUE(opened.holds(keyA, signedPerf(), signedEnergy()))
            << len;
        const bool torn = len > second + 1;
        ASSERT_EQ(opened.warnings.find("dropped 1 torn") !=
                      std::string::npos,
                  torn)
            << len << ": " << opened.warnings;
    }

    // A record whose checksum matches but whose payload does not
    // decode is dropped like a torn one.
    std::string payload = journal.substr(20, second - 20);
    payload = replaceFirst(payload, "\"l1Accesses\":\"101\"",
                           "\"l1Accesses\":\"x\"");
    char sum[17];
    std::snprintf(sum, sizeof(sum), "%016llx",
                  static_cast<unsigned long long>(
                      Fnv1a().add(payload).digest()));
    Opened opened = openOver(
        corpus.path, "",
        "\nR " + std::string(sum) + " " + payload +
            journal.substr(second));
    EXPECT_EQ(opened.cache->size(), 1u);
    EXPECT_TRUE(opened.holds(keyB, fussyPerf(), fussyEnergy()));
    EXPECT_NE(opened.warnings.find("dropped 1 torn"), std::string::npos);

    // Journal records win over the snapshot.
    joule::EnergyBreakdown energy = signedEnergy();
    energy.smBusy = 2.0;
    std::string newer;
    {
        Opened empty = openOver(corpus.path, "", "");
        empty.cache->insert(keyA, signedPerf(), energy);
        newer = readFile(empty.cache->walPath());
    }
    opened = openOver(corpus.path, corpus.single, newer);
    EXPECT_TRUE(opened.holds(keyA, signedPerf(), energy));
    fs::remove_all("run_cache_scratch/journal");
}

} // namespace
