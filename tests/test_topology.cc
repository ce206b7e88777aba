/**
 * @file
 * Topology-layer tests: registry wiring, pre-refactor bit-identity
 * goldens for the ring and switch plugins, fullmesh and
 * circuit-scheduled fabric invariants, placement strategies, and
 * run/machine identity separation across topologies.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/placement/placement.hh"
#include "harness/parallel_runner.hh"
#include "harness/study.hh"
#include "noc/topologies/circuit.hh"
#include "noc/topologies/fullmesh.hh"
#include "noc/topology_registry.hh"
#include "serve/request.hh"
#include "sim/gpu_config.hh"
#include "trace/workloads.hh"

namespace
{

using namespace mmgpu;

/** One calibration for the whole binary (it is deterministic). */
harness::StudyContext &
sharedContext()
{
    static harness::StudyContext instance;
    return instance;
}

/** Exact bit pattern as text — failures print readable hexfloats. */
std::string
hexFloat(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

trace::KernelProfile
workload(const std::string &name)
{
    auto profile = trace::findWorkload(name);
    if (!profile)
        ADD_FAILURE() << "no workload named " << name;
    return *profile;
}

// ---------------------------------------------------------------- //
// Registry                                                         //
// ---------------------------------------------------------------- //

TEST(TopologyRegistry, DescribesEveryFabric)
{
    using noc::Topology;
    EXPECT_STREQ(noc::topologyDesc(Topology::None).name, "monolithic");
    EXPECT_STREQ(noc::topologyDesc(Topology::Ring).name, "ring");
    EXPECT_STREQ(noc::topologyDesc(Topology::Switch).name, "switch");
    EXPECT_STREQ(noc::topologyDesc(Topology::Fullmesh).name,
                 "fullmesh");
    EXPECT_STREQ(noc::topologyDesc(Topology::Circuit).name, "ocs");

    // The enum-keyed name helper forwards into the registry.
    EXPECT_STREQ(noc::topologyName(Topology::Fullmesh), "fullmesh");

    // Name -> descriptor round trip, for every registered fabric.
    for (const noc::TopologyDesc *desc : noc::allTopologies()) {
        const noc::TopologyDesc *found =
            noc::topologyFromName(desc->name);
        ASSERT_NE(found, nullptr) << desc->name;
        EXPECT_EQ(found->id, desc->id);
    }
    EXPECT_EQ(noc::topologyFromName("hypercube"), nullptr);
    EXPECT_EQ(noc::topologyNameList(), "ring, switch, fullmesh, ocs");
}

TEST(TopologyRegistry, GeometryAndEnergyHooks)
{
    using noc::Topology;
    EXPECT_EQ(noc::topologyDesc(Topology::Ring).linkCount(8), 16u);
    EXPECT_EQ(noc::topologyDesc(Topology::Switch).linkCount(8), 16u);
    EXPECT_EQ(noc::topologyDesc(Topology::Fullmesh).linkCount(8), 56u);
    EXPECT_EQ(noc::topologyDesc(Topology::Circuit).linkCount(8), 24u);

    EXPECT_FALSE(noc::topologyDesc(Topology::Ring).usesSwitchFabric);
    EXPECT_TRUE(noc::topologyDesc(Topology::Switch).usesSwitchFabric);
    EXPECT_FALSE(
        noc::topologyDesc(Topology::Fullmesh).usesSwitchFabric);
    EXPECT_TRUE(noc::topologyDesc(Topology::Circuit).usesSwitchFabric);

    for (const noc::TopologyDesc *desc : noc::allTopologies())
        EXPECT_EQ(desc->usesCircuitReconfig,
                  desc->id == Topology::Circuit)
            << desc->name;
}

TEST(TopologyRegistry, FaultValidationIsPerTopology)
{
    using noc::Topology;
    fault::LinkFaultSpec failed_pair;
    failed_pair.faults.push_back({0, 2, 0.0});

    // Channel 2 is out of range for a ring but names peer GPM 2 on a
    // fullmesh, where the 2-hop relay keeps the pair reachable.
    EXPECT_FALSE(noc::topologyDesc(Topology::Ring)
                     .checkFaults(4, failed_pair)
                     .ok());
    EXPECT_TRUE(noc::topologyDesc(Topology::Fullmesh)
                    .checkFaults(4, failed_pair)
                    .ok());

    // A 2-GPM mesh has no relay GPM: a failed pair is fatal.
    fault::LinkFaultSpec two_gpm_pair;
    two_gpm_pair.faults.push_back({0, 1, 0.0});
    EXPECT_FALSE(noc::topologyDesc(Topology::Fullmesh)
                     .checkFaults(2, two_gpm_pair)
                     .ok());

    // OCS: a failed circuit plane (channel 0) degrades; a failed
    // fallback port (channel 1) strands traffic.
    fault::LinkFaultSpec dark_plane;
    dark_plane.faults.push_back({1, 0, 0.0});
    EXPECT_TRUE(noc::topologyDesc(Topology::Circuit)
                    .checkFaults(4, dark_plane)
                    .ok());
    fault::LinkFaultSpec dead_fallback;
    dead_fallback.faults.push_back({1, 1, 0.0});
    EXPECT_FALSE(noc::topologyDesc(Topology::Circuit)
                     .checkFaults(4, dead_fallback)
                     .ok());

    // GpuConfig::check() consults the same hooks.
    sim::GpuConfig config = sim::multiGpmConfig(
        4, sim::BwSetting::Bw2x, noc::Topology::Fullmesh);
    config.linkFaults = failed_pair;
    EXPECT_TRUE(config.check().ok());
    config.topology = noc::Topology::Ring;
    EXPECT_FALSE(config.check().ok());
}

// ---------------------------------------------------------------- //
// Ring/switch bit-identity goldens                                 //
// ---------------------------------------------------------------- //

/**
 * Hexfloat goldens captured from the pre-refactor simulator (commit
 * eca5b4f) over the fig2/fig6/fig8/fig9 sweep axes: GPM counts
 * {2, 8, 32}, the paper's BW/domain pairings, both legacy
 * topologies, and workloads spanning both Table II classes. The
 * refactored ring/switch plugins must reproduce every figure
 * bit for bit.
 */
struct Golden
{
    unsigned gpms;
    sim::BwSetting bw;
    noc::Topology topo;
    const char *config;
    const char *workload;
    double execCycles;
    unsigned long long messageBytes;
    unsigned long long byteHops;
    unsigned long long switchBytes;
    double interModule;
    double total;
};

const Golden goldens[] = {
    {2, sim::BwSetting::Bw1x, noc::Topology::Ring,
     "2-GPM/1x-BW/ring/on-board", "CoMD", 0x1.c89c8p+16, 493000,
     493000, 0, 0x1.4ad8c14cbbf05p-15, 0x1.9f50ea9284ef8p-6},
    {2, sim::BwSetting::Bw1x, noc::Topology::Ring,
     "2-GPM/1x-BW/ring/on-board", "Hotspot", 0x1.3e5e7p+18, 2187016,
     2187016, 0, 0x1.6eeb9f38a887bp-13, 0x1.be2dfee67fabap-4},
    {2, sim::BwSetting::Bw1x, noc::Topology::Ring,
     "2-GPM/1x-BW/ring/on-board", "BFS", 0x1.2c96acp+19, 74297752,
     74297752, 0, 0x1.8588c1335453ep-8, 0x1.2dc162f7c1c1cp-3},
    {2, sim::BwSetting::Bw1x, noc::Topology::Ring,
     "2-GPM/1x-BW/ring/on-board", "Stream", 0x1.28fc8p+16, 525640,
     525640, 0, 0x1.60c043ae53db8p-15, 0x1.be174cbd2ecbp-6},
    {8, sim::BwSetting::Bw2x, noc::Topology::Ring,
     "8-GPM/2x-BW/ring/on-package", "CoMD", 0x1.d495cp+14, 995656,
     2255152, 0, 0x1.20a6a2d5d61ap-18, 0x1.3bbce06e54a14p-6},
    {8, sim::BwSetting::Bw2x, noc::Topology::Ring,
     "8-GPM/2x-BW/ring/on-package", "Hotspot", 0x1.74f14p+16, 4312288,
     8751056, 0, 0x1.388b4ea613ac8p-16, 0x1.74758b411ad1fp-4},
    {8, sim::BwSetting::Bw2x, noc::Topology::Ring,
     "8-GPM/2x-BW/ring/on-package", "BFS", 0x1.a9df1p+17, 134206160,
     306561272, 0, 0x1.2ff77e83a857bp-11, 0x1.0d8cf2a8fac7bp-3},
    {8, sim::BwSetting::Bw2x, noc::Topology::Ring,
     "8-GPM/2x-BW/ring/on-package", "Stream", 0x1.3268p+14, 925344,
     2105688, 0, 0x1.0c4449b513a1bp-18, 0x1.864ca95a0aa52p-6},
    {32, sim::BwSetting::Bw2x, noc::Topology::Ring,
     "32-GPM/2x-BW/ring/on-package", "CoMD", 0x1.14088p+13, 1204280,
     9338984, 0, 0x1.5d22173bfd5e5p-18, 0x1.4a9011e5d42ebp-6},
    {32, sim::BwSetting::Bw2x, noc::Topology::Ring,
     "32-GPM/2x-BW/ring/on-package", "Hotspot", 0x1.0cff2p+15,
     7298032, 35226312, 0, 0x1.0878c9746cb43p-15,
     0x1.925890454f3dp-4},
    {32, sim::BwSetting::Bw2x, noc::Topology::Ring,
     "32-GPM/2x-BW/ring/on-package", "BFS", 0x1.7d3bc8p+17,
     153569568, 1267781528, 0, 0x1.5bd2cbf7cbbc6p-11,
     0x1.4994bf60af172p-2},
    {32, sim::BwSetting::Bw2x, noc::Topology::Ring,
     "32-GPM/2x-BW/ring/on-package", "Stream", 0x1.86ep+12, 1026528,
     8413640, 0, 0x1.2999dd47bf8acp-18, 0x1.b767e8afb028dp-6},
    {2, sim::BwSetting::Bw1x, noc::Topology::Switch,
     "2-GPM/1x-BW/switch/on-board", "CoMD", 0x1.ca6aap+16, 493000,
     986000, 493000, 0x1.4ad8c14cbbf05p-14, 0x1.a0d953c9861ecp-6},
    {2, sim::BwSetting::Bw1x, noc::Topology::Switch,
     "2-GPM/1x-BW/switch/on-board", "Hotspot", 0x1.3f3f98p+18,
     2187016, 4374032, 2187016, 0x1.6eeb9f38a887bp-12,
     0x1.bf50727c5c034p-4},
    {2, sim::BwSetting::Bw1x, noc::Topology::Switch,
     "2-GPM/1x-BW/switch/on-board", "BFS", 0x1.44dcf4p+18, 74295304,
     148590608, 74295304, 0x1.85857812f8e37p-7,
     0x1.c59c95cc2c9ddp-4},
    {2, sim::BwSetting::Bw1x, noc::Topology::Switch,
     "2-GPM/1x-BW/switch/on-board", "Stream", 0x1.29808p+16, 525640,
     1051280, 525640, 0x1.60c043ae53db8p-14, 0x1.beeeefa5e7748p-6},
    {8, sim::BwSetting::Bw2x, noc::Topology::Switch,
     "8-GPM/2x-BW/switch/on-package", "CoMD", 0x1.d47e4p+14, 995656,
     1991312, 995656, 0x1.60209d2999eccp-14, 0x1.3d0e4e7e58c08p-6},
    {8, sim::BwSetting::Bw2x, noc::Topology::Switch,
     "8-GPM/2x-BW/switch/on-package", "Hotspot", 0x1.7656bp+16,
     4312288, 8624576, 4312288, 0x1.7d4662e83a5eep-12,
     0x1.762cee59aa6a7p-4},
    {8, sim::BwSetting::Bw2x, noc::Topology::Switch,
     "8-GPM/2x-BW/switch/on-package", "BFS", 0x1.9d494p+16,
     134204528, 268409056, 134204528, 0x1.72ce8b1dc408ep-7,
     0x1.96687e8d90919p-4},
    {8, sim::BwSetting::Bw2x, noc::Topology::Switch,
     "8-GPM/2x-BW/switch/on-package", "Stream", 0x1.3204p+14, 925344,
     1850688, 925344, 0x1.4742b65c4ddffp-14, 0x1.87043c719e48p-6},
    {32, sim::BwSetting::Bw2x, noc::Topology::Switch,
     "32-GPM/2x-BW/switch/on-package", "CoMD", 0x1.e808p+12, 1204280,
     2408560, 1204280, 0x1.a9e8feb6cfc0ap-14, 0x1.384d69d5944b8p-6},
    {32, sim::BwSetting::Bw2x, noc::Topology::Switch,
     "32-GPM/2x-BW/switch/on-package", "Hotspot", 0x1.e9f8cp+14,
     7298032, 14596064, 7298032, 0x1.42a192335c4fep-11,
     0x1.8597e753a0f0fp-4},
    {32, sim::BwSetting::Bw2x, noc::Topology::Switch,
     "32-GPM/2x-BW/switch/on-package", "BFS", 0x1.9b1c7p+15,
     153569568, 307139136, 153569568, 0x1.a84ff7a3075a8p-7,
     0x1.06c7c7e94b81cp-3},
    {32, sim::BwSetting::Bw2x, noc::Topology::Switch,
     "32-GPM/2x-BW/switch/on-package", "Stream", 0x1.4fb8p+12,
     1026528, 2053056, 1026528, 0x1.6b0bb346574b1p-14,
     0x1.a47aa8b80f49p-6},
};

TEST(TopologyGoldens, RingAndSwitchBitIdenticalToPreRefactor)
{
    harness::ScalingRunner runner(sharedContext());
    runner.attachPersistentCache(nullptr);

    harness::ParallelRunner batch(runner);
    for (const Golden &g : goldens) {
        sim::GpuConfig config = sim::multiGpmConfig(
            g.gpms, g.bw, g.topo, sim::defaultDomainFor(g.bw));
        ASSERT_EQ(config.name, g.config);
        batch.enqueue(config, workload(g.workload));
    }
    ASSERT_TRUE(batch.drain().ok());

    for (const Golden &g : goldens) {
        SCOPED_TRACE(std::string(g.config) + " " + g.workload);
        sim::GpuConfig config = sim::multiGpmConfig(
            g.gpms, g.bw, g.topo, sim::defaultDomainFor(g.bw));
        const harness::RunOutcome &out =
            runner.run(config, workload(g.workload));

        EXPECT_EQ(hexFloat(out.perf.execCycles),
                  hexFloat(g.execCycles));
        EXPECT_EQ(out.perf.link.messageBytes, g.messageBytes);
        EXPECT_EQ(out.perf.link.byteHops, g.byteHops);
        EXPECT_EQ(out.perf.link.switchBytes, g.switchBytes);
        EXPECT_EQ(out.perf.link.reconfigs, 0u);
        EXPECT_EQ(hexFloat(out.energy.interModule),
                  hexFloat(g.interModule));
        EXPECT_EQ(hexFloat(out.energy.total()), hexFloat(g.total));
    }
}

// ---------------------------------------------------------------- //
// Fullmesh invariants                                              //
// ---------------------------------------------------------------- //

TEST(Fullmesh, HealthyTransfersAreSingleHop)
{
    // 96 B/cycle I/O over 3 peers = 32 B/cycle per pairwise link.
    noc::FullmeshNetwork mesh(4, 96.0, 10);
    EXPECT_DOUBLE_EQ(mesh.transfer(0.0, 0, 3, 64.0), 12.0);
    EXPECT_DOUBLE_EQ(mesh.transfer(0.0, 1, 0, 64.0), 12.0);

    const noc::LinkTraffic &traffic = mesh.traffic();
    EXPECT_EQ(traffic.transfers, 2u);
    EXPECT_EQ(traffic.arrivals, 2u);
    EXPECT_EQ(traffic.byteHops, 128u);
    EXPECT_EQ(traffic.messageBytes, 128u);
    EXPECT_EQ(traffic.switchBytes, 0u);
    EXPECT_EQ(traffic.rerouted, 0u);
    EXPECT_EQ(mesh.pairBytes()[0 * 4 + 3], 64u);
    EXPECT_EQ(mesh.pairBytes()[1 * 4 + 0], 64u);
    EXPECT_TRUE(mesh.auditConservation().empty());
}

TEST(Fullmesh, PairwiseLinksContendIndependently)
{
    noc::FullmeshNetwork mesh(4, 96.0, 10);
    // Same source, different destinations: dedicated links, no
    // cross-pair contention.
    EXPECT_DOUBLE_EQ(mesh.transfer(0.0, 0, 1, 64.0), 12.0);
    EXPECT_DOUBLE_EQ(mesh.transfer(0.0, 0, 2, 64.0), 12.0);
    // Same pair again: queues behind the first 0->1 transfer.
    EXPECT_DOUBLE_EQ(mesh.transfer(0.0, 0, 1, 64.0), 14.0);
}

TEST(Fullmesh, FailedPairRelaysThroughLowestHealthyGpm)
{
    fault::LinkFaultSpec faults;
    faults.faults.push_back({0, 2, 0.0});
    noc::FullmeshNetwork mesh(4, 96.0, 10, faults);

    EXPECT_EQ(mesh.relayFor(0, 2), 1u);
    EXPECT_EQ(mesh.relayFor(0, 1), 0u); // healthy: no detour
    EXPECT_EQ(mesh.relayFor(2, 0), 2u); // reverse link is healthy

    // Two hops (0 -> 1 -> 2): 2 + 10 per hop.
    EXPECT_DOUBLE_EQ(mesh.transfer(0.0, 0, 2, 64.0), 24.0);
    const noc::LinkTraffic &traffic = mesh.traffic();
    EXPECT_EQ(traffic.rerouted, 1u);
    EXPECT_EQ(traffic.byteHops, 128u);
    EXPECT_EQ(traffic.messageBytes, 64u);
    EXPECT_EQ(mesh.pairBytes()[0 * 4 + 1], 64u);
    EXPECT_EQ(mesh.pairBytes()[1 * 4 + 2], 64u);
    EXPECT_EQ(mesh.pairBytes()[0 * 4 + 2], 0u);
    EXPECT_TRUE(mesh.auditConservation().empty());
}

TEST(Fullmesh, ResetClearsBooks)
{
    noc::FullmeshNetwork mesh(4, 96.0, 10);
    mesh.transfer(0.0, 0, 3, 64.0);
    mesh.reset();
    EXPECT_EQ(mesh.traffic().byteHops, 0u);
    for (mmgpu::Count c : mesh.pairBytes())
        EXPECT_EQ(c, 0u);
    EXPECT_DOUBLE_EQ(mesh.transfer(0.0, 0, 3, 64.0), 12.0);
}

// ---------------------------------------------------------------- //
// Circuit-scheduled fabric                                         //
// ---------------------------------------------------------------- //

TEST(Circuit, ColdStartRidesFallbackThenEstablishesCircuits)
{
    noc::CircuitSwitchedNetwork net(4, 128.0, 10, 20);

    // No circuits yet: the first transfer takes the two-hop
    // electrical fallback and registers demand.
    EXPECT_EQ(net.circuitOf(0), 4u);
    net.transfer(0.0, 0, 1, 64.0);
    EXPECT_EQ(net.traffic().switchBytes, 64u);
    EXPECT_EQ(net.traffic().byteHops, 128u);
    EXPECT_EQ(net.reconfigCount(), 0u);

    // Crossing the first epoch boundary reconfigures: 0 -> 1 was the
    // only demand, so it wins a circuit.
    net.transfer(noc::ocs::epochCycles + 1.0, 2, 3, 64.0);
    EXPECT_EQ(net.reconfigCount(), 1u);
    EXPECT_EQ(net.circuitOf(0), 1u);
    EXPECT_EQ(net.circuitOf(2), 4u);

    // After the dark window, matched traffic takes the single-hop
    // circuit: no new fallback bytes.
    mmgpu::Count fallback_before = net.traffic().switchBytes;
    noc::Tick ready = net.transfer(
        noc::ocs::epochCycles + noc::ocs::reconfigLatencyCycles + 1.0,
        0, 1, 64.0);
    EXPECT_EQ(net.traffic().switchBytes, fallback_before);
    // Single hop: 64 B at 128 B/cycle = 0.5 cycles + 10 hop cycles.
    EXPECT_DOUBLE_EQ(
        ready, noc::ocs::epochCycles +
                   noc::ocs::reconfigLatencyCycles + 1.0 + 10.5);

    EXPECT_TRUE(net.auditConservation().empty());
    EXPECT_EQ(net.traffic().byteHops,
              net.traffic().messageBytes + net.traffic().switchBytes);
}

TEST(Circuit, StableDemandDoesNotReconfigure)
{
    noc::CircuitSwitchedNetwork net(4, 128.0, 10, 20);
    // Epoch 0: demand 0 -> 1.
    net.transfer(0.0, 0, 1, 64.0);
    // Epoch 1: same demand, after the boundary reconfiguration.
    net.transfer(noc::ocs::epochCycles + 1500.0, 0, 1, 64.0);
    EXPECT_EQ(net.reconfigCount(), 1u);
    // Epoch 2: the matching recomputed from epoch 1's identical
    // demand is unchanged — no reconfiguration, circuits stay lit.
    net.transfer(2.0 * noc::ocs::epochCycles + 1.0, 0, 1, 64.0);
    EXPECT_EQ(net.reconfigCount(), 1u);
    EXPECT_EQ(net.circuitOf(0), 1u);
    EXPECT_TRUE(net.auditConservation().empty());
}

TEST(Circuit, CircuitsAreDarkDuringReconfiguration)
{
    noc::CircuitSwitchedNetwork net(4, 128.0, 10, 20);
    net.transfer(0.0, 0, 1, 64.0);
    // Just past the boundary the matching is established but the
    // circuits are still dark: traffic falls back.
    mmgpu::Count fallback_before = net.traffic().switchBytes;
    net.transfer(noc::ocs::epochCycles + 1.0, 0, 1, 64.0);
    EXPECT_EQ(net.reconfigCount(), 1u);
    EXPECT_GT(net.traffic().switchBytes, fallback_before);
    EXPECT_TRUE(net.auditConservation().empty());
}

TEST(Circuit, MatchingPicksHeaviestPairsDeterministically)
{
    noc::CircuitSwitchedNetwork net(4, 128.0, 10, 20);
    // Competing demands for GPM 1's receive port: 0 -> 1 is heavier.
    net.transfer(0.0, 0, 1, 128.0);
    net.transfer(0.0, 2, 1, 64.0);
    net.transfer(0.0, 3, 2, 64.0);
    net.transfer(noc::ocs::epochCycles + 1.0, 0, 1, 64.0);
    EXPECT_EQ(net.circuitOf(0), 1u);
    EXPECT_EQ(net.circuitOf(2), 4u); // lost the rx port to GPM 0
    EXPECT_EQ(net.circuitOf(3), 2u);
}

TEST(Circuit, DegradedPlaneDropsOutOfMatching)
{
    fault::LinkFaultSpec faults;
    faults.faults.push_back({0, 0, 0.0});
    noc::CircuitSwitchedNetwork net(4, 128.0, 10, 20, faults);
    net.transfer(0.0, 0, 1, 256.0);
    net.transfer(0.0, 2, 3, 64.0);
    net.transfer(noc::ocs::epochCycles + 1.0, 0, 1, 64.0);
    // GPM 0's circuit plane is dark: despite the heavier demand it
    // holds no circuit, while healthy pairs still match.
    EXPECT_EQ(net.circuitOf(0), 4u);
    EXPECT_EQ(net.circuitOf(2), 3u);
    EXPECT_TRUE(net.auditConservation().empty());
}

TEST(Circuit, ResetRestoresColdState)
{
    noc::CircuitSwitchedNetwork net(4, 128.0, 10, 20);
    net.transfer(0.0, 0, 1, 64.0);
    net.transfer(noc::ocs::epochCycles + 1.0, 0, 1, 64.0);
    ASSERT_EQ(net.reconfigCount(), 1u);
    net.reset();
    EXPECT_EQ(net.reconfigCount(), 0u);
    EXPECT_EQ(net.circuitOf(0), 4u);
    EXPECT_EQ(net.traffic().byteHops, 0u);
    // The replayed history is bit-identical to the first pass.
    net.transfer(0.0, 0, 1, 64.0);
    net.transfer(noc::ocs::epochCycles + 1.0, 0, 1, 64.0);
    EXPECT_EQ(net.reconfigCount(), 1u);
    EXPECT_EQ(net.circuitOf(0), 1u);
}

// ---------------------------------------------------------------- //
// Whole-machine determinism across worker counts                   //
// ---------------------------------------------------------------- //

TEST(TopologyDeterminism, OcsAndFullmeshIdenticalAcrossWorkerCounts)
{
    struct Point
    {
        noc::Topology topo;
        const char *workload;
    };
    const Point points[] = {
        {noc::Topology::Circuit, "Stream"},
        {noc::Topology::Circuit, "CoMD"},
        {noc::Topology::Fullmesh, "Stream"},
    };

    auto sweep = [&](unsigned workers) {
        harness::ScalingRunner runner(sharedContext());
        runner.attachPersistentCache(nullptr);
        harness::ParallelRunner batch(runner, workers);
        for (const Point &p : points)
            batch.enqueue(sim::multiGpmConfig(8, sim::BwSetting::Bw2x,
                                              p.topo),
                          workload(p.workload));
        EXPECT_TRUE(batch.drain().ok());
        std::vector<std::string> results;
        for (const Point &p : points) {
            const harness::RunOutcome &out = runner.run(
                sim::multiGpmConfig(8, sim::BwSetting::Bw2x, p.topo),
                workload(p.workload));
            results.push_back(
                hexFloat(out.perf.execCycles) + "|" +
                hexFloat(out.energy.total()) + "|" +
                std::to_string(out.perf.link.reconfigs) + "|" +
                std::to_string(out.perf.link.byteHops));
        }
        return results;
    };

    std::vector<std::string> one = sweep(1);
    EXPECT_EQ(sweep(2), one);
    EXPECT_EQ(sweep(8), one);
}

// ---------------------------------------------------------------- //
// Placement strategies                                             //
// ---------------------------------------------------------------- //

TEST(Placement, FirstTouchMatchesLegacyInlineLogic)
{
    trace::KernelProfile profile = workload("Hotspot");
    trace::SegmentLayout layout(profile);
    const unsigned gpms = 8;

    auto strategy = engine::makePlacementStrategy(
        engine::PlacementKind::FirstTouch,
        sm::CtaSchedPolicy::Distributed);
    EXPECT_STREQ(strategy->name(), "first-touch");

    // CTA assignment is exactly the built-in scheduler's.
    EXPECT_EQ(strategy->assign(profile.ctaCount, gpms),
              sm::assignCtas(profile.ctaCount, gpms,
                             sm::CtaSchedPolicy::Distributed));

    auto lists = strategy->assign(profile.ctaCount, gpms);
    std::vector<unsigned> cta_to_gpm(profile.ctaCount);
    for (unsigned g = 0; g < lists.size(); ++g)
        for (unsigned c : lists[g])
            cta_to_gpm[c] = g;
    engine::PageContext ctx{&profile, &layout, &cta_to_gpm, gpms};

    // Page homing is exactly owner-CTA homing (the legacy inline
    // FirstTouchOwner arm of GpuSim::prePlacePages).
    std::uint64_t page_index = 0;
    for (unsigned s = 0; s < profile.segments.size(); ++s) {
        std::uint64_t base = layout.base(s);
        for (std::uint64_t page = base;
             page < base + layout.size(s);
             page += trace::SegmentLayout::pageBytes, ++page_index) {
            unsigned want = cta_to_gpm[trace::chunkOwnerCta(
                profile, layout, s, page)];
            EXPECT_EQ(strategy->homePage(ctx, s, page, page_index),
                      want);
        }
    }
}

TEST(Placement, StripedRoundRobinsPages)
{
    trace::KernelProfile profile = workload("Stream");
    trace::SegmentLayout layout(profile);
    auto lists = engine::makePlacementStrategy(
                     engine::PlacementKind::Striped,
                     sm::CtaSchedPolicy::Distributed)
                     ->assign(profile.ctaCount, 4);
    std::vector<unsigned> cta_to_gpm(profile.ctaCount);
    for (unsigned g = 0; g < lists.size(); ++g)
        for (unsigned c : lists[g])
            cta_to_gpm[c] = g;
    engine::PageContext ctx{&profile, &layout, &cta_to_gpm, 4};

    auto strategy = engine::makePlacementStrategy(
        engine::PlacementKind::Striped,
        sm::CtaSchedPolicy::Distributed);
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(strategy->homePage(ctx, 0, layout.base(0), i),
                  i % 4);
}

TEST(Placement, LocalityIsDeterministicAndInRange)
{
    trace::KernelProfile profile = workload("Hotspot");
    trace::SegmentLayout layout(profile);
    const unsigned gpms = 8;

    auto strategy = engine::makePlacementStrategy(
        engine::PlacementKind::Locality,
        sm::CtaSchedPolicy::RoundRobin);
    EXPECT_STREQ(strategy->name(), "locality");

    // Locality always co-locates neighbouring CTAs in contiguous
    // chunks, whatever scheduling the config asked for.
    EXPECT_EQ(strategy->assign(profile.ctaCount, gpms),
              sm::assignCtas(profile.ctaCount, gpms,
                             sm::CtaSchedPolicy::Distributed));

    auto lists = strategy->assign(profile.ctaCount, gpms);
    std::vector<unsigned> cta_to_gpm(profile.ctaCount);
    for (unsigned g = 0; g < lists.size(); ++g)
        for (unsigned c : lists[g])
            cta_to_gpm[c] = g;
    engine::PageContext ctx{&profile, &layout, &cta_to_gpm, gpms};

    std::uint64_t page_index = 0;
    for (unsigned s = 0; s < profile.segments.size(); ++s) {
        std::uint64_t base = layout.base(s);
        for (std::uint64_t page = base;
             page < base + layout.size(s);
             page += trace::SegmentLayout::pageBytes, ++page_index) {
            unsigned home =
                strategy->homePage(ctx, s, page, page_index);
            ASSERT_LT(home, gpms);
            // Deterministic: a second query answers the same.
            EXPECT_EQ(strategy->homePage(ctx, s, page, page_index),
                      home);
        }
    }
}

TEST(Placement, BaselinePlacementEquivalentThroughTheMachine)
{
    // An end-to-end twin of the golden test's implicit claim: a
    // machine built with the strategy layer and FirstTouchOwner
    // produces the same books as the goldens — checked here on a
    // small point in-process against a striped sibling to prove the
    // policies actually steer placement.
    harness::ScalingRunner runner(sharedContext());
    runner.attachPersistentCache(nullptr);

    sim::GpuConfig first_touch = sim::multiGpmConfig(
        4, sim::BwSetting::Bw2x, noc::Topology::Ring);
    sim::GpuConfig striped = first_touch;
    striped.placement = sim::PlacementPolicy::Striped;

    const harness::RunOutcome &a =
        runner.run(first_touch, workload("Stream"));
    const harness::RunOutcome &b =
        runner.run(striped, workload("Stream"));
    // Striped placement sends most pages off-GPM: remote traffic
    // must rise relative to the locality-preserving baseline.
    EXPECT_GT(b.perf.link.messageBytes, a.perf.link.messageBytes);
}

// ---------------------------------------------------------------- //
// Identity separation                                              //
// ---------------------------------------------------------------- //

TEST(TopologyIdentity, RunKeysSeparateTopologies)
{
    harness::RunKey ring;
    ring.config.name = "8-GPM/custom";
    ring.profile.name = "Stream";
    ring.config.topology = noc::Topology::Ring;
    harness::RunKey mesh = ring;
    mesh.config.topology = noc::Topology::Fullmesh;
    EXPECT_TRUE(ring < mesh || mesh < ring);
}

TEST(TopologyIdentity, ServeIdentitiesSeparateTopologies)
{
    serve::Request request;
    request.type = serve::RequestType::Run;
    request.spec.gpms = 8;

    std::vector<std::uint64_t> machine_ids;
    std::vector<std::uint64_t> work_ids;
    for (noc::Topology topo :
         {noc::Topology::Ring, noc::Topology::Switch,
          noc::Topology::Fullmesh, noc::Topology::Circuit}) {
        request.spec.topology = topo;
        machine_ids.push_back(request.spec.machineIdentity());
        work_ids.push_back(request.workIdentity());
    }
    for (std::size_t i = 0; i < machine_ids.size(); ++i) {
        for (std::size_t j = i + 1; j < machine_ids.size(); ++j) {
            EXPECT_NE(machine_ids[i], machine_ids[j]);
            EXPECT_NE(work_ids[i], work_ids[j]);
        }
    }

    // Placement is machine identity too: a locality-placed machine
    // must never be pooled with a first-touch one.
    request.spec.topology = noc::Topology::Ring;
    std::uint64_t baseline = request.spec.machineIdentity();
    request.spec.placement = sim::PlacementPolicy::Locality;
    EXPECT_NE(request.spec.machineIdentity(), baseline);
}

TEST(TopologyIdentity, WireProtocolRoundTripsNewNames)
{
    auto parsed = serve::parseRequest(
        R"({"type":"run","workload":"Stream","gpms":8,)"
        R"("topology":"ocs","placement":"locality"})");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().spec.topology, noc::Topology::Circuit);
    EXPECT_EQ(parsed.value().spec.placement,
              sim::PlacementPolicy::Locality);

    // encode() -> parse() preserves the new enum values.
    auto reparsed = serve::parseRequest(parsed.value().encode());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.value().spec.topology, noc::Topology::Circuit);
    EXPECT_EQ(reparsed.value().spec.placement,
              sim::PlacementPolicy::Locality);

    EXPECT_FALSE(serve::parseRequest(
                     R"({"type":"run","topology":"hypercube"})")
                     .ok());
}

} // namespace
