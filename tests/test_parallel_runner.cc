/**
 * @file
 * Concurrency tests for the parallel sweep executor and the
 * thread-safe ScalingRunner memo cache. These carry the tier2 ctest
 * label as well as tier1: a TSan build tree
 * (`cmake -B build-tsan -DMMGPU_SANITIZE=thread` then
 * `ctest -L tier2`) runs them race-instrumented.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/parallel_runner.hh"
#include "harness/run_cache.hh"
#include "harness/study.hh"
#include "trace/workloads.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::harness;

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

/** Shared context: calibration runs once for the whole suite. */
StudyContext &
context()
{
    static StudyContext instance;
    return instance;
}

trace::KernelProfile
tinyWorkload(const char *name, unsigned seed,
             trace::WorkloadClass cls = trace::WorkloadClass::Compute)
{
    trace::KernelProfile profile;
    profile.name = name;
    profile.cls = cls;
    profile.ctaCount = 64;
    profile.warpsPerCta = 2;
    profile.iterations = 3;
    profile.seed = seed;
    profile.segments.push_back({"seg", 1 * units::MiB});
    trace::SegmentAccess access;
    access.segment = 0;
    access.pattern = trace::AccessPattern::Stencil;
    access.haloFraction = 0.1;
    access.perIteration = 2;
    profile.loads.push_back(access);
    profile.compute.push_back({isa::Opcode::FFMA32, 4});
    return profile;
}

std::vector<trace::KernelProfile>
sweepWorkloads()
{
    return {
        tinyWorkload("pw1", 11),
        tinyWorkload("pw2", 12, trace::WorkloadClass::Memory),
        tinyWorkload("pw3", 13),
    };
}

std::vector<sim::GpuConfig>
sweepConfigs()
{
    return {
        sim::multiGpmConfig(2, sim::BwSetting::Bw2x),
        sim::multiGpmConfig(4, sim::BwSetting::Bw1x,
                            noc::Topology::Ring,
                            sim::IntegrationDomain::OnBoard),
    };
}

void
expectIdentical(const RunOutcome &a, const RunOutcome &b)
{
    // Bit-exact equality of every field, not tolerance: parallel
    // execution must not perturb results at all.
    EXPECT_TRUE(a.perf == b.perf);
    EXPECT_TRUE(a.energy == b.energy);
}

/** Run the whole sweep at @p workers and copy out every outcome. */
std::vector<RunOutcome>
runSweep(unsigned workers, RunCache *disk = nullptr)
{
    ScalingRunner runner(context());
    runner.attachPersistentCache(disk);
    ParallelRunner pool(runner, workers);
    auto configs = sweepConfigs();
    auto workloads = sweepWorkloads();
    for (const auto &config : configs)
        pool.enqueueStudy(config, workloads);
    EXPECT_EQ(pool.workers(), workers);
    pool.drain();
    EXPECT_EQ(pool.pending(), 0u);

    std::vector<RunOutcome> outcomes;
    for (const auto &profile : workloads)
        outcomes.push_back(runner.run(sim::baselineConfig(), profile));
    for (const auto &config : configs)
        for (const auto &profile : workloads)
            outcomes.push_back(runner.run(config, profile));
    return outcomes;
}

TEST(ParallelRunner, BitIdenticalAcrossWorkerCounts)
{
    auto serial = runSweep(1);
    auto two = runSweep(2);
    auto eight = runSweep(8);
    ASSERT_EQ(serial.size(), two.size());
    ASSERT_EQ(serial.size(), eight.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectIdentical(serial[i], two[i]);
        expectIdentical(serial[i], eight[i]);
    }
}

TEST(ParallelRunner, FigureSweepBitIdenticalAcrossWorkersAndReuse)
{
    // The figure sweeps (fig2/fig6) run real catalog workloads over
    // the module-count axis through pooled, reused machines and a
    // worker fleet. Pin the hot-path optimizations down against both
    // hazards at once: a sweep executed with 1, 2, and 8 workers
    // must be bit-identical, and every point must equal the same
    // point computed on a fresh single-purpose runner (fresh
    // machine, no reuse). One light catalog workload keeps this
    // affordable in tier1/tier2; the full sweeps are compared
    // hexfloat-exactly by the bench gate (scripts/ci.sh).
    auto workload = trace::findWorkload("Stream");
    ASSERT_TRUE(workload.has_value());
    const std::vector<sim::GpuConfig> configs = {
        sim::multiGpmConfig(2, sim::BwSetting::Bw2x),
        sim::multiGpmConfig(8, sim::BwSetting::Bw2x),
    };

    auto sweep = [&](unsigned workers) {
        ScalingRunner runner(context());
        ParallelRunner pool(runner, workers);
        pool.enqueueStudy(configs[0], {*workload});
        pool.enqueueStudy(configs[1], {*workload});
        pool.drain();
        std::vector<RunOutcome> outcomes;
        for (const auto &config : configs)
            outcomes.push_back(runner.run(config, *workload));
        return outcomes;
    };

    const auto serial = sweep(1);
    const auto two = sweep(2);
    const auto eight = sweep(8);
    ASSERT_EQ(serial.size(), configs.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectIdentical(serial[i], two[i]);
        expectIdentical(serial[i], eight[i]);
        // Fresh runner, fresh machine: no pool, no reuse.
        ScalingRunner fresh(context());
        expectIdentical(serial[i], fresh.run(configs[i], *workload));
    }
}

TEST(ParallelRunner, ReferencesStayValidUnderInsertion)
{
    // The memo cache hands out references into its map; inserting
    // many further keys (splitting across every shard) must not
    // invalidate them. Backed by the static_assert on map node
    // stability in study.cc.
    ScalingRunner runner(context());
    auto first_workload = tinyWorkload("stable", 1);
    const RunOutcome &first =
        runner.run(sim::baselineConfig(), first_workload);
    const RunOutcome copy = first;

    for (unsigned i = 0; i < 24; ++i) {
        std::string name = "churn" + std::to_string(i);
        runner.run(sim::baselineConfig(),
                   tinyWorkload(name.c_str(), 100 + i));
    }

    const RunOutcome &again =
        runner.run(sim::baselineConfig(), first_workload);
    EXPECT_EQ(&first, &again); // same node, untouched
    expectIdentical(copy, first);
}

TEST(ParallelRunner, PersistentCacheRoundTripsBitExactly)
{
    namespace fs = std::filesystem;
    const std::string dir = scratchDir("parallel_runner_scratch");
    fs::remove_all(dir);
    std::string path = dir + "/runs.json";

    std::vector<RunOutcome> computed;
    {
        RunCache disk(path);
        computed = runSweep(2, &disk);
        EXPECT_TRUE(disk.flush());
        EXPECT_EQ(disk.hits(), 0u);
    }

    // A fresh runner against the flushed file must serve every
    // point from disk, bit-identically.
    RunCache reloaded(path);
    EXPECT_EQ(reloaded.size(), computed.size());
    auto warm = runSweep(4, &reloaded);
    EXPECT_EQ(reloaded.hits(), computed.size());
    ASSERT_EQ(warm.size(), computed.size());
    for (std::size_t i = 0; i < warm.size(); ++i)
        expectIdentical(computed[i], warm[i]);

    fs::remove_all(dir);
}

TEST(ParallelRunner, EnqueueDeduplicatesWork)
{
    ScalingRunner runner(context());
    ParallelRunner pool(runner, 1);
    auto config = sim::multiGpmConfig(2, sim::BwSetting::Bw2x);
    auto workload = tinyWorkload("dedup", 42);

    pool.enqueue(config, workload);
    pool.enqueue(config, workload); // duplicate in the same batch
    EXPECT_EQ(pool.pending(), 1u);
    pool.drain();

    pool.enqueue(config, workload); // already memoized
    EXPECT_EQ(pool.pending(), 0u);
    EXPECT_TRUE(runner.cached(config, workload));
}

TEST(ParallelRunner, DefaultWorkersHonorsEnvOverride)
{
    ::setenv("MMGPU_JOBS", "3", 1);
    EXPECT_EQ(ParallelRunner::defaultWorkers(), 3u);
    ::setenv("MMGPU_JOBS", "not-a-number", 1);
    EXPECT_GE(ParallelRunner::defaultWorkers(), 1u);
    ::unsetenv("MMGPU_JOBS");
    EXPECT_GE(ParallelRunner::defaultWorkers(), 1u);
}

} // namespace
