/**
 * @file
 * Unit tests for the deterministic fault-plan descriptions: the
 * fingerprint/stream derivations (the reproducibility contract), the
 * sweep-point matcher, and the environment loader.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/fields.hh"
#include "fault/fault_plan.hh"
#include "field_perturbation.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::fault;

TEST(SensorFaultSpec, EnabledWhenAnyRateIsSet)
{
    SensorFaultSpec spec;
    EXPECT_FALSE(spec.enabled());
    spec.dropoutRate = 0.01;
    EXPECT_TRUE(spec.enabled());

    spec = {};
    spec.jitterFraction = 0.1;
    EXPECT_TRUE(spec.enabled());
}

TEST(SensorFaultSpec, DefaultCampaignMeetsDocumentedFloor)
{
    // DESIGN.md states the calibration tolerance against this plan:
    // at least 5% dropout plus spikes.
    SensorFaultSpec spec = defaultSensorFaults();
    EXPECT_TRUE(spec.enabled());
    EXPECT_GE(spec.dropoutRate, 0.05);
    EXPECT_GT(spec.spikeRate, 0.0);
}

TEST(LinkFaultSpec, IdentityIsOrderSensitive)
{
    auto digest = [](const LinkFaultSpec &spec) {
        Fnv1a hash;
        hashFields(hash, spec);
        return hash.digest();
    };
    LinkFaultSpec empty;
    EXPECT_TRUE(empty.empty());

    LinkFaultSpec a;
    a.faults.push_back({0, 0, 0.0});
    a.faults.push_back({1, 1, 0.5});
    LinkFaultSpec b;
    b.faults.push_back({1, 1, 0.5});
    b.faults.push_back({0, 0, 0.0});
    EXPECT_NE(a, empty);
    EXPECT_NE(digest(a), digest(empty));
    EXPECT_EQ(digest(a), digest(LinkFaultSpec{a}));
    EXPECT_NE(a, b);
    EXPECT_NE(digest(a), digest(b));

    LinkFaultSpec derated = a;
    derated.faults[0].capacityScale = 0.25;
    EXPECT_NE(a, derated);
    EXPECT_NE(digest(a), digest(derated));
}

TEST(LinkFault, FailedMeansExactlyZeroCapacity)
{
    EXPECT_TRUE((LinkFault{0, 0, 0.0}.failed()));
    EXPECT_FALSE((LinkFault{0, 0, 0.5}.failed()));
    EXPECT_FALSE((LinkFault{0, 0, 1.0}.failed()));
}

TEST(HarnessFaultSpec, MatchesByWorkloadOrQualifiedName)
{
    std::vector<std::string> points = {"bfs", "8-GPM|stream"};
    EXPECT_TRUE(HarnessFaultSpec::matches(points, "any-cfg", "bfs"));
    EXPECT_TRUE(HarnessFaultSpec::matches(points, "8-GPM", "stream"));
    EXPECT_FALSE(
        HarnessFaultSpec::matches(points, "4-GPM", "stream"));
    EXPECT_FALSE(HarnessFaultSpec::matches(points, "any-cfg", "mst"));
    EXPECT_FALSE(HarnessFaultSpec::matches({}, "cfg", "bfs"));
}

TEST(FaultPlan, DisabledByDefault)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    plan.sensor.dropoutRate = 0.05;
    EXPECT_TRUE(plan.enabled());

    FaultPlan hangs;
    hangs.harness.hangPoints.push_back("bfs");
    EXPECT_TRUE(hangs.enabled());
}

TEST(FaultPlan, FingerprintCoversEveryKnob)
{
    // Every vector non-empty, so element leaves are perturbed too.
    FaultPlan base;
    base.sensor = defaultSensorFaults();
    base.harness.failPoints.push_back("bfs");
    base.harness.hangPoints.push_back("8-GPM|stream");
    base.serve.crashPoints.push_back("CoMD");
    const std::uint64_t fp = base.fingerprint();
    EXPECT_EQ(FaultPlan(base).fingerprint(), fp); // stable

    // seed, 6 sensor rates, 5 harness leaves (two lists with one
    // element and a length each, hangSeconds), 7 serve leaves.
    auto variants = test::perturbations(base);
    EXPECT_GE(variants.size(), 19u);
    for (const auto &[path, variant] : variants) {
        SCOPED_TRACE("FaultPlan" + path);
        EXPECT_NE(variant.fingerprint(), fp);
    }

    // The same point in a different list is a different plan.
    FaultPlan sabotaged;
    sabotaged.harness.failPoints.push_back("bfs");
    FaultPlan hung;
    hung.harness.hangPoints.push_back("bfs");
    EXPECT_NE(hung.fingerprint(), sabotaged.fingerprint());
}

TEST(FaultPlan, FingerprintDigestsArePinned)
{
    // Recorded with the hand-kept field list the visitor replaced. A
    // sensor-fault campaign salts its calibration fingerprint with
    // this digest (StudyContext), so a change here orphans that
    // campaign's persisted run-cache entries.
    EXPECT_EQ(FaultPlan{}.fingerprint(), 0x5fb6b087a6599883ull);

    FaultPlan plan;
    plan.seed = 0x123;
    plan.sensor = defaultSensorFaults();
    plan.harness.failPoints = {"bfs", "8-GPM|stream"};
    plan.harness.hangPoints = {"Hotspot"};
    plan.harness.hangSeconds = 0.5;
    plan.serve.shardCrashEveryJobs = 5;
    plan.serve.dispatcherStallAtJob = 3;
    plan.serve.dispatcherStallMs = 250;
    plan.serve.walTearAtAppend = 9;
    plan.serve.connResetEveryWrites = 7;
    plan.serve.crashPoints = {"CoMD"};
    EXPECT_EQ(plan.fingerprint(), 0xcb4e7f4e680fe3c2ull);
}

TEST(FaultPlan, StreamsAreStablePerConsumerAndDistinct)
{
    FaultPlan plan;
    EXPECT_EQ(plan.streamFor("sensor"), plan.streamFor("sensor"));
    EXPECT_NE(plan.streamFor("sensor"), plan.streamFor("calibration"));

    FaultPlan reseeded;
    reseeded.seed += 1;
    EXPECT_NE(reseeded.streamFor("sensor"), plan.streamFor("sensor"));
}

TEST(FaultPlan, FromEnvDisabledWithoutSeed)
{
    ::unsetenv("MMGPU_FAULT_SEED");
    FaultPlan plan = FaultPlan::fromEnv();
    EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlan, FromEnvEnablesDefaultCampaign)
{
    ::setenv("MMGPU_FAULT_SEED", "0x123", 1);
    ::unsetenv("MMGPU_FAULT_DROPOUT");
    ::unsetenv("MMGPU_FAULT_SPIKE");
    ::unsetenv("MMGPU_FAULT_GLITCH");
    ::unsetenv("MMGPU_FAULT_JITTER");
    FaultPlan plan = FaultPlan::fromEnv();
    EXPECT_TRUE(plan.sensor.enabled());
    EXPECT_EQ(plan.seed, 0x123u);
    EXPECT_DOUBLE_EQ(plan.sensor.dropoutRate,
                     defaultSensorFaults().dropoutRate);
    ::unsetenv("MMGPU_FAULT_SEED");
}

TEST(FaultPlan, FromEnvRateOverridesAndBadValues)
{
    ::setenv("MMGPU_FAULT_SEED", "7", 1);
    ::setenv("MMGPU_FAULT_DROPOUT", "0.5", 1);
    ::setenv("MMGPU_FAULT_SPIKE", "not-a-rate", 1); // ignored
    ::setenv("MMGPU_FAULT_GLITCH", "1.5", 1);       // out of range
    FaultPlan plan = FaultPlan::fromEnv();
    EXPECT_DOUBLE_EQ(plan.sensor.dropoutRate, 0.5);
    EXPECT_DOUBLE_EQ(plan.sensor.spikeRate,
                     defaultSensorFaults().spikeRate);
    EXPECT_DOUBLE_EQ(plan.sensor.glitchRate,
                     defaultSensorFaults().glitchRate);
    ::unsetenv("MMGPU_FAULT_SEED");
    ::unsetenv("MMGPU_FAULT_DROPOUT");
    ::unsetenv("MMGPU_FAULT_SPIKE");
    ::unsetenv("MMGPU_FAULT_GLITCH");
}

TEST(FaultPlan, FromEnvMalformedSeedStaysDisabled)
{
    ::setenv("MMGPU_FAULT_SEED", "not-a-seed", 1);
    FaultPlan plan = FaultPlan::fromEnv();
    EXPECT_FALSE(plan.enabled());
    ::unsetenv("MMGPU_FAULT_SEED");
}

TEST(ServeFaultSpec, EnabledWhenAnyKnobIsSet)
{
    ServeFaultSpec spec;
    EXPECT_FALSE(spec.enabled());
    spec.shardCrashEveryJobs = 5;
    EXPECT_TRUE(spec.enabled());

    spec = {};
    spec.walTearAtAppend = 3;
    EXPECT_TRUE(spec.enabled());

    spec = {};
    spec.connResetEveryWrites = 7;
    EXPECT_TRUE(spec.enabled());

    spec = {};
    spec.crashPoints.push_back("Stream");
    EXPECT_TRUE(spec.enabled());
}

TEST(ServeFaultSpec, FingerprintCoversServeKnobs)
{
    FaultPlan base;
    std::uint64_t fp = base.fingerprint();

    FaultPlan crashy;
    crashy.serve.shardCrashEveryJobs = 5;
    EXPECT_NE(crashy.fingerprint(), fp);

    FaultPlan torn;
    torn.serve.walTearAtAppend = 2;
    EXPECT_NE(torn.fingerprint(), fp);
    EXPECT_NE(torn.fingerprint(), crashy.fingerprint());

    FaultPlan pointed;
    pointed.serve.crashPoints.push_back("Stream");
    EXPECT_NE(pointed.fingerprint(), fp);

    FaultPlan pointed_twice = pointed;
    pointed_twice.serve.crashPoints.push_back("BFS");
    EXPECT_NE(pointed_twice.fingerprint(), pointed.fingerprint());
}

TEST(ServeFaultSpec, FromEnvReadsServeKnobs)
{
    ::unsetenv("MMGPU_FAULT_SEED");
    ::setenv("MMGPU_FAULT_SERVE_CRASH_EVERY", "5", 1);
    ::setenv("MMGPU_FAULT_SERVE_STALL_AT_JOB", "3", 1);
    ::setenv("MMGPU_FAULT_SERVE_STALL_MS", "250", 1);
    ::setenv("MMGPU_FAULT_SERVE_WAL_TEAR_AT", "2", 1);
    ::setenv("MMGPU_FAULT_SERVE_CONN_RESET_EVERY", "7", 1);
    ::setenv("MMGPU_FAULT_SERVE_CRASH_POINT", "Stream,8-GPM|BFS", 1);
    FaultPlan plan = FaultPlan::fromEnv();
    EXPECT_EQ(plan.serve.shardCrashEveryJobs, 5u);
    EXPECT_EQ(plan.serve.dispatcherStallAtJob, 3u);
    EXPECT_EQ(plan.serve.dispatcherStallMs, 250u);
    EXPECT_EQ(plan.serve.walTearAtAppend, 2u);
    EXPECT_EQ(plan.serve.connResetEveryWrites, 7u);
    ASSERT_EQ(plan.serve.crashPoints.size(), 2u);
    EXPECT_EQ(plan.serve.crashPoints[0], "Stream");
    EXPECT_EQ(plan.serve.crashPoints[1], "8-GPM|BFS");
    EXPECT_TRUE(plan.serve.enabled());
    // Serve chaos is counter-driven; no seed means no sensor faults.
    EXPECT_FALSE(plan.sensor.enabled());

    ::unsetenv("MMGPU_FAULT_SERVE_CRASH_EVERY");
    ::unsetenv("MMGPU_FAULT_SERVE_STALL_AT_JOB");
    ::unsetenv("MMGPU_FAULT_SERVE_STALL_MS");
    ::unsetenv("MMGPU_FAULT_SERVE_WAL_TEAR_AT");
    ::unsetenv("MMGPU_FAULT_SERVE_CONN_RESET_EVERY");
    ::unsetenv("MMGPU_FAULT_SERVE_CRASH_POINT");
}

TEST(ServeFaultSpec, FromEnvMalformedCountKeepsDefault)
{
    ::setenv("MMGPU_FAULT_SERVE_CRASH_EVERY", "sometimes", 1);
    FaultPlan plan = FaultPlan::fromEnv();
    EXPECT_EQ(plan.serve.shardCrashEveryJobs, 0u);
    EXPECT_FALSE(plan.serve.enabled());
    ::unsetenv("MMGPU_FAULT_SERVE_CRASH_EVERY");
}

} // namespace
