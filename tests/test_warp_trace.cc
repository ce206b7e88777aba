/**
 * @file
 * Unit tests for deterministic warp trace generation.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "trace/warp_trace.hh"
#include "trace/workloads.hh"

namespace
{

using namespace mmgpu;
using namespace mmgpu::trace;
using isa::TraceOp;
using isa::TraceOpKind;

KernelProfile
makeProfile(AccessPattern pattern, double divergence = 0.0,
            double irregular = 0.0)
{
    KernelProfile profile;
    profile.name = "wt";
    profile.ctaCount = 16;
    profile.warpsPerCta = 2;
    profile.iterations = 6;
    profile.seed = 77;
    profile.segments.push_back({"seg", 256 * units::KiB});
    SegmentAccess access;
    access.segment = 0;
    access.pattern = pattern;
    access.perIteration = 2;
    access.divergence = divergence;
    access.irregular = irregular;
    profile.loads.push_back(access);
    profile.compute.push_back({isa::Opcode::FFMA32, 4});
    SegmentAccess store = access;
    store.perIteration = 1;
    profile.stores.push_back(store);
    return profile;
}

std::vector<TraceOp>
drain(WarpTrace &trace)
{
    std::vector<TraceOp> ops;
    while (true) {
        TraceOp op = trace.next();
        ops.push_back(op);
        if (op.kind == TraceOpKind::Exit)
            break;
    }
    return ops;
}

TEST(WarpTrace, DeterministicForSameIdentity)
{
    KernelProfile profile = makeProfile(AccessPattern::Random, 0.3);
    SegmentLayout layout(profile);
    WarpTrace a(profile, layout, 0, 3, 1);
    WarpTrace b(profile, layout, 0, 3, 1);
    auto ops_a = drain(a);
    auto ops_b = drain(b);
    ASSERT_EQ(ops_a.size(), ops_b.size());
    for (std::size_t i = 0; i < ops_a.size(); ++i) {
        EXPECT_EQ(ops_a[i].kind, ops_b[i].kind);
        EXPECT_EQ(ops_a[i].addr, ops_b[i].addr);
        EXPECT_EQ(ops_a[i].sectors, ops_b[i].sectors);
    }
}

TEST(WarpTrace, DifferentWarpsDifferentAddresses)
{
    KernelProfile profile = makeProfile(AccessPattern::BlockStream);
    SegmentLayout layout(profile);
    WarpTrace a(profile, layout, 0, 0, 0);
    WarpTrace b(profile, layout, 0, 5, 1);
    auto ops_a = drain(a);
    auto ops_b = drain(b);
    bool any_diff = false;
    for (std::size_t i = 0; i < ops_a.size(); ++i) {
        if (ops_a[i].kind == TraceOpKind::Load &&
            ops_a[i].addr != ops_b[i].addr)
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(WarpTrace, EndsWithDrainSyncThenExit)
{
    KernelProfile profile = makeProfile(AccessPattern::BlockStream);
    SegmentLayout layout(profile);
    WarpTrace trace(profile, layout, 0, 0, 0);
    auto ops = drain(trace);
    ASSERT_GE(ops.size(), 2u);
    EXPECT_EQ(ops[ops.size() - 1].kind, TraceOpKind::Exit);
    EXPECT_EQ(ops[ops.size() - 2].kind, TraceOpKind::Sync);
    EXPECT_TRUE(trace.finished());
    // next() after Exit keeps returning Exit.
    EXPECT_EQ(trace.next().kind, TraceOpKind::Exit);
}

TEST(WarpTrace, OpCountsMatchProfile)
{
    KernelProfile profile = makeProfile(AccessPattern::Stencil);
    SegmentLayout layout(profile);
    WarpTrace trace(profile, layout, 0, 2, 1);
    auto ops = drain(trace);

    unsigned loads = 0, stores = 0, blocks = 0;
    for (const auto &op : ops) {
        loads += op.kind == TraceOpKind::Load;
        stores += op.kind == TraceOpKind::Store;
        blocks += op.kind == TraceOpKind::ComputeBlock;
    }
    EXPECT_EQ(loads, profile.iterations * 2);
    EXPECT_EQ(stores, profile.iterations * 1);
    EXPECT_EQ(blocks, profile.iterations);
}

TEST(WarpTrace, ComputeBlockAggregatesMix)
{
    KernelProfile profile = makeProfile(AccessPattern::BlockStream);
    SegmentLayout layout(profile);
    WarpTrace trace(profile, layout, 0, 0, 0);
    auto ops = drain(trace);
    for (const auto &op : ops) {
        if (op.kind == TraceOpKind::ComputeBlock) {
            EXPECT_EQ(op.blockSlots(),
                      4 * isa::issueCost(isa::Opcode::FFMA32));
            EXPECT_EQ(op.blockLatency(),
                      4 * isa::defaultLatency(isa::Opcode::FFMA32));
        }
    }
}

TEST(WarpTrace, AddressesStayInsideSegment)
{
    for (auto pattern :
         {AccessPattern::BlockStream, AccessPattern::Stencil,
          AccessPattern::Random, AccessPattern::Broadcast}) {
        KernelProfile profile = makeProfile(pattern, 0.4, 0.2);
        SegmentLayout layout(profile);
        for (unsigned cta : {0u, 7u, 15u}) {
            WarpTrace trace(profile, layout, 0, cta, 0);
            auto ops = drain(trace);
            for (const auto &op : ops) {
                if (op.kind != TraceOpKind::Load &&
                    op.kind != TraceOpKind::Store)
                    continue;
                ASSERT_GE(op.addr, layout.base(0));
                ASSERT_LE(op.addr + op.sectors * isa::sectorBytes,
                          layout.base(0) + layout.size(0));
                ASSERT_EQ(op.addr % isa::sectorBytes, 0u);
            }
        }
    }
}

TEST(WarpTrace, DivergenceProducesWideAccesses)
{
    KernelProfile profile = makeProfile(AccessPattern::Random, 1.0);
    SegmentLayout layout(profile);
    WarpTrace trace(profile, layout, 0, 0, 0);
    auto ops = drain(trace);
    for (const auto &op : ops) {
        if (op.kind == TraceOpKind::Load) {
            EXPECT_EQ(op.sectors, 8u);
        }
    }
}

TEST(WarpTrace, NoDivergenceMeansCoalescedLines)
{
    KernelProfile profile = makeProfile(AccessPattern::BlockStream, 0.0);
    SegmentLayout layout(profile);
    WarpTrace trace(profile, layout, 0, 0, 0);
    auto ops = drain(trace);
    for (const auto &op : ops) {
        if (op.kind == TraceOpKind::Load) {
            EXPECT_EQ(op.sectors, 4u);
        }
    }
}

TEST(WarpTrace, BlockStreamIsSequentialWithinWarpSlice)
{
    KernelProfile profile = makeProfile(AccessPattern::BlockStream);
    profile.stores.clear();
    SegmentLayout layout(profile);
    WarpTrace trace(profile, layout, 0, 4, 1);
    auto ops = drain(trace);
    std::vector<std::uint64_t> addrs;
    for (const auto &op : ops)
        if (op.kind == TraceOpKind::Load)
            addrs.push_back(op.addr);
    ASSERT_GE(addrs.size(), 2u);
    // Sequential 128 B strides (modulo wrap).
    unsigned sequential = 0;
    for (std::size_t i = 1; i < addrs.size(); ++i)
        sequential += addrs[i] == addrs[i - 1] + isa::cacheLineBytes;
    EXPECT_GE(sequential, addrs.size() / 2);
}

TEST(WarpTrace, LaunchAffectsRandomStreams)
{
    KernelProfile profile = makeProfile(AccessPattern::Random);
    SegmentLayout layout(profile);
    WarpTrace launch0(profile, layout, 0, 1, 0);
    WarpTrace launch1(profile, layout, 1, 1, 0);
    auto ops0 = drain(launch0);
    auto ops1 = drain(launch1);
    bool differ = false;
    for (std::size_t i = 0; i < ops0.size(); ++i)
        if (ops0[i].kind == TraceOpKind::Load &&
            ops0[i].addr != ops1[i].addr)
            differ = true;
    EXPECT_TRUE(differ);
}

TEST(WarpTrace, BlockStreamRepeatsAcrossLaunches)
{
    // Iterative apps re-touch the same bytes each launch: the
    // streaming addresses must be identical for every launch.
    KernelProfile profile = makeProfile(AccessPattern::BlockStream);
    SegmentLayout layout(profile);
    WarpTrace launch0(profile, layout, 0, 1, 0);
    WarpTrace launch1(profile, layout, 1, 1, 0);
    auto ops0 = drain(launch0);
    auto ops1 = drain(launch1);
    ASSERT_EQ(ops0.size(), ops1.size());
    for (std::size_t i = 0; i < ops0.size(); ++i) {
        if (ops0[i].kind == TraceOpKind::Load) {
            EXPECT_EQ(ops0[i].addr, ops1[i].addr);
        }
    }
}

// ------------------------------------------------------------- //
// Trace parity: the full op stream of a fixed set of warps of every
// catalog workload, pinned by digest. Trace generation feeds every
// simulated result, so any change to its draw order, address
// arithmetic or schedule shows here without running the simulator.

/** Fnv1a over every field of every op up to and including Exit. */
std::uint64_t
streamDigest(const KernelProfile &profile, const SegmentLayout &layout,
             unsigned launch, unsigned cta, unsigned warp)
{
    WarpTrace trace(profile, layout, launch, cta, warp);
    Fnv1a hash;
    std::uint64_t count = 0;
    for (;;) {
        const TraceOp op = trace.next();
        hash.add(static_cast<std::uint64_t>(op.kind))
            .add(static_cast<std::uint64_t>(op.op))
            .add(op.addr)
            .add(static_cast<std::uint64_t>(op.sectors));
        ++count;
        if (op.kind == TraceOpKind::Exit)
            break;
    }
    return hash.add(count).digest();
}

/** Digest of five (launch, cta, warp) triples of @p profile: both
 *  ends and the middle of the grid, at three launch indices. */
std::uint64_t
profileDigest(const KernelProfile &profile)
{
    const SegmentLayout layout(profile);
    const unsigned last_cta = profile.ctaCount - 1;
    const unsigned last_warp = profile.warpsPerCta - 1;
    const unsigned triples[][3] = {
        {0, 0, 0},
        {0, last_cta, last_warp},
        {1, profile.ctaCount / 2, last_warp},
        {2, 1 % profile.ctaCount, profile.warpsPerCta / 2},
        {1, profile.ctaCount > 1 ? last_cta - 1 : 0, 0},
    };
    Fnv1a hash;
    for (const auto &[launch, cta, warp] : triples)
        hash.add(streamDigest(profile, layout, launch, cta, warp));
    return hash.digest();
}

TEST(WarpTraceParity, CatalogStreamsMatchPinnedDigests)
{
    // Recorded from the generator before its state was split into a
    // shared per-launch plan and per-warp state; regenerate only for
    // a change that is meant to change the simulated application.
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"BPROP", 0x238552c58a607c07ull},
        {"BTREE", 0x018cbbd0ae54cadcull},
        {"CoMD", 0xea7ad4f89945608aull},
        {"Hotspot", 0xd1d19ed5c359e52bull},
        {"LuleshUns", 0xb10b012bc409f7e0ull},
        {"PathF", 0x48a6441c35ab3acaull},
        {"RSBench", 0x90e6e41526150f20ull},
        {"Srad-v1", 0xf80f4957eb9512c5ull},
        {"MiniAMR", 0xa7c0274cec6647c9ull},
        {"BFS", 0xa9028545651abb20ull},
        {"Kmeans", 0xf8e6c07ffa4f5986ull},
        {"Lulesh-150", 0xa9207cb2820c6e54ull},
        {"Lulesh-190", 0x46f6fc2901e44eefull},
        {"Nekbone-12", 0xcce5040c106f39b7ull},
        {"Nekbone-18", 0x42e1d7de50219453ull},
        {"MnCtct", 0xeacb2282356e542aull},
        {"Srad-v2", 0x45b4684ad8829f2cull},
        {"Stream", 0xe71e59817407ebffull},
    };
    const auto &catalog = allWorkloads();
    ASSERT_EQ(pinned.size(), catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        EXPECT_EQ(catalog[i].name, pinned[i].first);
        EXPECT_EQ(profileDigest(catalog[i]), pinned[i].second)
            << catalog[i].name;
    }
}

} // namespace
