/**
 * @file
 * Design-point identity: every field of a configuration, a workload
 * profile and the energy knobs separates memo entries, pooled
 * machines, run-cache fingerprints and serve identities; and every
 * result field survives the run-cache codec.
 *
 * The perturbation tests walk each struct through its own
 * forEachField list and change one leaf at a time, so a field added
 * to any struct is covered without editing this file.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/fields.hh"
#include "field_perturbation.hh"
#include "harness/parallel_runner.hh"
#include "harness/run_cache.hh"
#include "harness/study.hh"
#include "serve/request.hh"
#include "trace/workloads.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::harness;
using mmgpu::test::perturbations;

namespace fs = std::filesystem;

StudyContext &
context()
{
    static StudyContext instance;
    return instance;
}

/** A 4-GPM ring with one derated link: every vector non-empty. */
sim::GpuConfig
degradedConfig()
{
    sim::GpuConfig config = sim::multiGpmConfig(
        4, sim::BwSetting::Bw2x, noc::Topology::Ring);
    config.linkFaults.faults.push_back({1, 0, 0.5});
    return config;
}

/** A small kernel with every profile vector populated. */
trace::KernelProfile
tinyWorkload()
{
    trace::KernelProfile profile;
    profile.name = "identity";
    profile.ctaCount = 32;
    profile.warpsPerCta = 2;
    profile.iterations = 2;
    profile.segments.push_back({"in", 256 * units::KiB});
    profile.segments.push_back({"out", 256 * units::KiB});
    trace::SegmentAccess load;
    load.segment = 0;
    load.pattern = trace::AccessPattern::Stencil;
    profile.loads.push_back(load);
    trace::SegmentAccess store;
    store.segment = 1;
    profile.stores.push_back(store);
    profile.compute.push_back({isa::Opcode::FFMA32, 4});
    return profile;
}

TEST(IdentityPerturbation, EveryFieldChangesEveryRunIdentity)
{
    const sim::GpuConfig config = degradedConfig();
    const trace::KernelProfile profile = tinyWorkload();
    const std::uint64_t calib = context().calibrationFingerprint();
    const std::uint64_t base =
        runFingerprint(config, profile, 1.0, -1.0, calib);

    ScalingRunner runner(context());
    runner.attachPersistentCache(nullptr);
    runner.run(config, profile);
    ASSERT_TRUE(runner.cached(config, profile));

    auto config_variants = perturbations(config);
    auto profile_variants = perturbations(profile);
    // Nested MemConfig, ClockDomain and LinkFault leaves included.
    EXPECT_GT(config_variants.size(), 30u);
    EXPECT_GT(profile_variants.size(), 30u);

    for (const auto &[path, variant] : config_variants) {
        SCOPED_TRACE("GpuConfig" + path);
        EXPECT_NE(runFingerprint(variant, profile, 1.0, -1.0, calib),
                  base);
        EXPECT_FALSE(runner.cached(variant, profile));
    }
    for (const auto &[path, variant] : profile_variants) {
        SCOPED_TRACE("KernelProfile" + path);
        EXPECT_NE(runFingerprint(config, variant, 1.0, -1.0, calib),
                  base);
        EXPECT_FALSE(runner.cached(config, variant));
    }
    for (auto [scale, growth] : {std::pair{2.0, -1.0},
                                 std::pair{1.0, -2.0}}) {
        SCOPED_TRACE(scale);
        EXPECT_NE(runFingerprint(config, profile, scale, growth, calib),
                  base);
        EXPECT_FALSE(runner.cached(config, profile, scale, growth));
    }
}

TEST(IdentityPerturbation, EverySpecFieldChangesServeIdentities)
{
    serve::Request base;
    base.type = serve::RequestType::Run;
    auto variants = perturbations(base.spec);
    EXPECT_EQ(variants.size(), 9u);
    for (const auto &[path, spec] : variants) {
        SCOPED_TRACE("RunSpec" + path);
        serve::Request request = base;
        request.spec = spec;
        EXPECT_NE(request.workIdentity(), base.workIdentity());
        // The machine identity moves exactly when the spec reaches
        // a different machine configuration.
        const bool same_machine = spec.config() == base.spec.config();
        EXPECT_EQ(spec.machineIdentity() == base.spec.machineIdentity(),
                  same_machine);
    }
}

/** The run-cache codec's text of @p value. */
template <typename T>
std::string
encoded(const T &value)
{
    std::string text;
    JsonWriter writer(text);
    fieldsToJson(writer, value);
    return text;
}

/** Whether the run-cache codec decodes all of @p text into @p out. */
template <typename T>
bool
decodes(const std::string &text, T &out)
{
    JsonReader reader(text);
    return fieldsFromJson(reader, out) && reader.atEnd();
}

/** JSON text round trip through the run-cache codec. */
template <typename T>
T
roundTrip(const T &value)
{
    T decoded{};
    EXPECT_TRUE(decodes(encoded(value), decoded));
    return decoded;
}

TEST(IdentityPerturbation, EveryResultFieldSurvivesTheCodec)
{
    const sim::PerfResult perf;
    const joule::EnergyBreakdown energy;
    auto perf_variants = perturbations(perf);
    EXPECT_GT(perf_variants.size(), 30u);
    for (const auto &[path, variant] : perf_variants) {
        SCOPED_TRACE("PerfResult" + path);
        ASSERT_FALSE(variant == perf);
        EXPECT_TRUE(roundTrip(variant) == variant);
    }
    for (const auto &[path, variant] : perturbations(energy)) {
        SCOPED_TRACE("EnergyBreakdown" + path);
        EXPECT_TRUE(roundTrip(variant) == variant);
    }
}

TEST(IdentityCodec, RejectsMalformedRecords)
{
    sim::PerfResult perf;
    JsonValue doc = *parseJson(encoded(perf));
    JsonValue wrong_length = doc;
    wrong_length.set("instrs", JsonValue::array());
    EXPECT_FALSE(decodes(wrong_length.dumpCompact(), perf));
    JsonValue missing = JsonValue::object();
    missing.set("configName", "x");
    EXPECT_FALSE(decodes(missing.dumpCompact(), perf));
    JsonValue negative = doc;
    negative.set("l1Accesses", "-1");
    EXPECT_FALSE(decodes(negative.dumpCompact(), perf));
    EXPECT_TRUE(decodes(doc.dumpCompact(), perf));
}

// ---------------------------------------------------------------- //
// Regressions: points that once shared another point's result      //
// ---------------------------------------------------------------- //

/** The 4-GPM ring and its same-name twin at 1/8 the link bandwidth. */
std::pair<sim::GpuConfig, sim::GpuConfig>
sameNameConfigs()
{
    sim::GpuConfig full = sim::multiGpmConfig(
        4, sim::BwSetting::Bw2x, noc::Topology::Ring,
        sim::IntegrationDomain::OnPackage);
    sim::GpuConfig narrow = full;
    narrow.interGpmBytesPerCycle /= 8;
    return {full, narrow};
}

RunOutcome
freshRun(const sim::GpuConfig &config,
         const trace::KernelProfile &profile,
         double link_energy_scale = 1.0)
{
    ScalingRunner fresh(context());
    fresh.attachPersistentCache(nullptr);
    return fresh.run(config, profile, link_energy_scale);
}

TEST(IdentityRegression, MemoSeparatesSameNameConfigs)
{
    auto [full, narrow] = sameNameConfigs();
    ASSERT_EQ(full.name, narrow.name);
    const trace::KernelProfile comd = *trace::findWorkload("CoMD");

    ScalingRunner shared(context());
    shared.attachPersistentCache(nullptr);
    shared.run(full, comd);
    EXPECT_FALSE(shared.cached(narrow, comd));
    const RunOutcome &got = shared.run(narrow, comd);

    RunOutcome expected = freshRun(narrow, comd);
    EXPECT_EQ(got.perf.execCycles, expected.perf.execCycles);
    EXPECT_TRUE(got.perf == expected.perf);
    EXPECT_TRUE(got.energy == expected.energy);
}

TEST(IdentityRegression, PoolNeverLendsAnotherConfigsMachine)
{
    auto [full, narrow] = sameNameConfigs();
    const trace::KernelProfile comd = *trace::findWorkload("CoMD");
    const trace::KernelProfile pathf = *trace::findWorkload("PathF");
    const fs::path dir = "identity_scratch/pool";
    fs::remove_all(dir);
    const std::string path = (dir / "runs.json").string();

    RunOutcome expected = freshRun(narrow, pathf);
    {
        RunCache cache(path);
        ScalingRunner shared(context());
        shared.attachPersistentCache(&cache);
        // CoMD leaves a full-bandwidth machine idle in the pool; the
        // narrow PathF run must build its own.
        shared.run(full, comd);
        const RunOutcome &got = shared.run(narrow, pathf);
        EXPECT_EQ(got.perf.execCycles, expected.perf.execCycles);
        EXPECT_TRUE(got.perf == expected.perf);
        ASSERT_TRUE(cache.flush());
    }

    // A later process reading the cache file gets the same answer.
    RunCache reopened(path);
    sim::PerfResult perf;
    joule::EnergyBreakdown energy;
    ASSERT_TRUE(reopened.lookup(
        runFingerprint(narrow, pathf, 1.0, -1.0,
                       context().calibrationFingerprint()),
        perf, energy));
    EXPECT_TRUE(perf == expected.perf);
    EXPECT_TRUE(energy == expected.energy);
    fs::remove_all(dir);
}

TEST(IdentityRegression, BatchKeepsPointsDifferingOnlyInLinkEnergy)
{
    const sim::GpuConfig full = sameNameConfigs().first;
    const trace::KernelProfile profile = tinyWorkload();
    ScalingRunner runner(context());
    runner.attachPersistentCache(nullptr);
    ParallelRunner batch(runner, 1);
    batch.enqueue(full, profile, 1.5);
    batch.enqueue(full, profile, 1.7);
    EXPECT_EQ(batch.pending(), 2u);
    batch.enqueue(full, profile, 1.5); // a true duplicate collapses
    EXPECT_EQ(batch.pending(), 2u);

    ASSERT_TRUE(batch.drain().ok());
    EXPECT_TRUE(runner.cached(full, profile, 1.5));
    EXPECT_TRUE(runner.cached(full, profile, 1.7));
    EXPECT_TRUE(runner.run(full, profile, 1.7).energy ==
                freshRun(full, profile, 1.7).energy);
}

} // namespace
