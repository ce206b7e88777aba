/**
 * @file
 * Property-based tests: parameterized sweeps asserting invariants
 * over randomized inputs and over the cross product of model knobs.
 */

#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "metrics/edpse.hh"
#include "noc/bandwidth_server.hh"
#include "noc/interconnect.hh"
#include "noc/topologies/ring.hh"
#include "noc/topologies/switch.hh"
#include "sim/gpu_sim.hh"
#include "trace/warp_trace.hh"

namespace
{

using namespace mmgpu;

// ---------------------------------------------------------------
// Cache invariants over random access streams, across geometries.
// ---------------------------------------------------------------

struct CacheGeometry
{
    Bytes capacity;
    unsigned assoc;
};

class CacheProperty : public ::testing::TestWithParam<CacheGeometry>
{
};

TEST_P(CacheProperty, SectorAccountingExact)
{
    auto [capacity, assoc] = GetParam();
    mem::SectoredCache cache("p", capacity, assoc);
    Rng rng(capacity + assoc);
    Count requested_sectors = 0;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t addr =
            rng.below(4096) * isa::cacheLineBytes;
        auto mask = static_cast<mem::SectorMask>(rng.below(15) + 1);
        requested_sectors += std::popcount(mask);
        auto result = cache.access(addr, mask, rng.chance(0.3));
        // Hit and miss masks partition the request.
        ASSERT_EQ(result.hitMask & result.missMask, 0);
        ASSERT_EQ(result.hitMask | result.missMask, mask);
    }
    EXPECT_EQ(cache.sectorHits() + cache.sectorMisses(),
              requested_sectors);
}

TEST_P(CacheProperty, ImmediateReaccessAlwaysHits)
{
    auto [capacity, assoc] = GetParam();
    mem::SectoredCache cache("p", capacity, assoc);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t addr =
            rng.below(1 << 20) * isa::cacheLineBytes;
        cache.access(addr, mem::fullLineMask, false);
        auto again = cache.access(addr, mem::fullLineMask, false);
        ASSERT_EQ(again.missMask, 0) << "addr " << addr;
    }
}

TEST_P(CacheProperty, WritebacksOnlyFromWrites)
{
    auto [capacity, assoc] = GetParam();
    mem::SectoredCache cache("p", capacity, assoc);
    Rng rng(7);
    // Read-only stream: no writeback may ever be reported.
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t addr =
            rng.below(1 << 16) * isa::cacheLineBytes;
        auto result = cache.access(addr, mem::fullLineMask, false);
        ASSERT_EQ(result.writebackMask, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(CacheGeometry{4 * units::KiB, 1},
                      CacheGeometry{32 * units::KiB, 4},
                      CacheGeometry{64 * units::KiB, 8},
                      CacheGeometry{2 * units::MiB, 16}));

// ---------------------------------------------------------------
// Ring routing invariants across sizes.
// ---------------------------------------------------------------

class RingProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RingProperty, HopCountSymmetricAndBounded)
{
    unsigned n = GetParam();
    noc::RingNetwork ring(n, 64.0, 10);
    for (unsigned src = 0; src < n; ++src) {
        for (unsigned dst = 0; dst < n; ++dst) {
            unsigned hops = ring.hopCount(src, dst);
            ASSERT_EQ(hops, ring.hopCount(dst, src));
            ASSERT_LE(hops, n / 2);
            ASSERT_EQ(hops == 0, src == dst);
        }
    }
}

TEST_P(RingProperty, StepAlwaysReachesDestination)
{
    unsigned n = GetParam();
    noc::RingNetwork ring(n, 64.0, 10);
    Rng rng(n);
    for (int trial = 0; trial < 200; ++trial) {
        unsigned src = static_cast<unsigned>(rng.below(n));
        unsigned dst = static_cast<unsigned>(rng.below(n));
        if (src == dst)
            continue;
        unsigned node = src, steps = 0;
        double t = trial * 10.0;
        while (true) {
            auto hop = ring.step(node, dst, t, 32.0);
            ASSERT_GE(hop.ready, t);
            t = hop.ready;
            node = hop.next;
            ++steps;
            ASSERT_LE(steps, n) << "routing loop";
            if (hop.arrived)
                break;
        }
        ASSERT_EQ(node, dst);
        ASSERT_EQ(steps, ring.hopCount(src, dst));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingProperty,
                         ::testing::Values(2u, 3u, 4u, 8u, 16u, 32u));

// ---------------------------------------------------------------
// Bandwidth-server conservation under ordered arrivals.
// ---------------------------------------------------------------

TEST(BandwidthServerProperty, WorkConservation)
{
    Rng rng(5);
    noc::BandwidthServer server("p", 37.0);
    double t = 0.0, total_bytes = 0.0, last_done = 0.0;
    for (int i = 0; i < 10000; ++i) {
        t += rng.uniform() * 2.0;
        double bytes = 1.0 + rng.below(256);
        total_bytes += bytes;
        double done = server.acquire(t, bytes);
        ASSERT_GE(done, last_done); // FIFO completions are ordered
        ASSERT_GE(done, t);
        last_done = done;
    }
    EXPECT_NEAR(server.busyCycles(), total_bytes / 37.0, 1e-6);
    // The server can never finish before all work is served.
    EXPECT_GE(last_done, total_bytes / 37.0);
}

// ---------------------------------------------------------------
// EDPSE identity over random observations.
// ---------------------------------------------------------------

TEST(EdpseProperty, IdentityHoldsEverywhere)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        metrics::EnergyDelay one{1.0 + rng.uniform() * 100.0,
                                 1e-6 + rng.uniform()};
        metrics::EnergyDelay scaled{1.0 + rng.uniform() * 100.0,
                                    1e-6 + rng.uniform()};
        unsigned n = 1 + static_cast<unsigned>(rng.below(64));
        double direct = metrics::edpse(one, scaled, n);
        double via_identity = metrics::speedup(one.delay,
                                               scaled.delay) /
                              (n * (scaled.energy / one.energy)) *
                              100.0;
        ASSERT_NEAR(direct, via_identity, direct * 1e-9);
        ASSERT_GT(direct, 0.0);
    }
}

// ---------------------------------------------------------------
// Whole-simulator invariants across access patterns and GPM counts.
// ---------------------------------------------------------------

struct SimPoint
{
    trace::AccessPattern pattern;
    unsigned gpms;
};

/** Names the case after its point (e.g. Stencil_4gpm): gtest would
 *  print the raw bytes, padding included, giving unstable names. */
void
PrintTo(const SimPoint &point, std::ostream *os)
{
    // In AccessPattern's declaration order.
    static const char *const names[] = {"BlockStream", "Stencil",
                                        "Random", "Chase", "Broadcast"};
    *os << names[static_cast<unsigned>(point.pattern)] << '_'
        << point.gpms << "gpm";
}

class SimProperty : public ::testing::TestWithParam<SimPoint>
{
};

TEST_P(SimProperty, CountersConserveAndEnergyInputsFinite)
{
    auto [pattern, gpms] = GetParam();
    trace::KernelProfile profile;
    profile.name = "prop";
    profile.ctaCount = 128;
    profile.warpsPerCta = 2;
    profile.iterations = 3;
    profile.seed = 17;
    profile.segments.push_back({"seg", 2 * units::MiB});
    trace::SegmentAccess access;
    access.segment = 0;
    access.pattern = pattern;
    access.perIteration = 2;
    access.divergence = 0.2;
    profile.loads.push_back(access);
    profile.compute.push_back({isa::Opcode::FADD32, 3});

    auto config = gpms == 1
                      ? sim::baselineConfig()
                      : sim::multiGpmConfig(gpms, sim::BwSetting::Bw2x);
    sim::GpuSim machine(config);
    sim::PerfResult result = machine.run(profile);

    // Every warp retires: exact instruction counts.
    Count per_op =
        static_cast<Count>(profile.iterations) * profile.totalWarps();
    ASSERT_EQ(result.instrs[static_cast<std::size_t>(
                  isa::Opcode::LD_GLOBAL)],
              2 * per_op);

    // Remote + local sector counts partition DRAM traffic.
    ASSERT_EQ(result.mem.remoteSectors + result.mem.localSectors,
              result.mem.txns[static_cast<std::size_t>(
                  isa::TxnLevel::DramToL2)]);

    // Monolithic designs never touch the network.
    if (gpms == 1) {
        ASSERT_EQ(result.link.byteHops, 0u);
        ASSERT_EQ(result.mem.remoteSectors, 0u);
    }

    // Timing sanity.
    ASSERT_GT(result.execCycles, 0.0);
    ASSERT_GT(result.smBusyCycles, 0.0);
    ASSERT_LE(result.smBusyCycles,
              result.smOccupiedCycles + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PatternsByGpms, SimProperty,
    ::testing::Values(
        SimPoint{trace::AccessPattern::BlockStream, 1},
        SimPoint{trace::AccessPattern::BlockStream, 4},
        SimPoint{trace::AccessPattern::Stencil, 1},
        SimPoint{trace::AccessPattern::Stencil, 4},
        SimPoint{trace::AccessPattern::Random, 1},
        SimPoint{trace::AccessPattern::Random, 4},
        SimPoint{trace::AccessPattern::Broadcast, 4},
        SimPoint{trace::AccessPattern::Chase, 4},
        SimPoint{trace::AccessPattern::Random, 8}));

// ---------------------------------------------------------------
// Warp-trace determinism across every pattern.
// ---------------------------------------------------------------

class TracePatternProperty
    : public ::testing::TestWithParam<trace::AccessPattern>
{
};

TEST_P(TracePatternProperty, StreamsAreReplayable)
{
    trace::KernelProfile profile;
    profile.name = "replay";
    profile.ctaCount = 32;
    profile.warpsPerCta = 2;
    profile.iterations = 5;
    profile.seed = 23;
    profile.segments.push_back({"seg", 512 * units::KiB});
    trace::SegmentAccess access;
    access.segment = 0;
    access.pattern = GetParam();
    access.perIteration = 3;
    access.divergence = 0.3;
    access.irregular = 0.2;
    profile.loads.push_back(access);
    profile.compute.push_back({isa::Opcode::IADD32, 2});

    trace::SegmentLayout layout(profile);
    for (unsigned cta : {0u, 13u, 31u}) {
        trace::WarpTrace a(profile, layout, 1, cta, 1);
        trace::WarpTrace b(profile, layout, 1, cta, 1);
        while (true) {
            auto op_a = a.next();
            auto op_b = b.next();
            ASSERT_EQ(op_a.kind, op_b.kind);
            ASSERT_EQ(op_a.addr, op_b.addr);
            ASSERT_EQ(op_a.sectors, op_b.sectors);
            if (op_a.kind == isa::TraceOpKind::Exit)
                break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, TracePatternProperty,
    ::testing::Values(trace::AccessPattern::BlockStream,
                      trace::AccessPattern::Stencil,
                      trace::AccessPattern::Random,
                      trace::AccessPattern::Chase,
                      trace::AccessPattern::Broadcast));

} // namespace
