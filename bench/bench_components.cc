/**
 * @file
 * google-benchmark microbenchmarks of the framework's hot components:
 * cache tag lookups, the event calendar (CTA-dispatch bursts and the
 * 32-GPM steady state), bandwidth-server arbitration, ring routing,
 * warp trace generation (standalone and through a shared launch
 * plan), and a small end-to-end simulation. These guard
 * the simulator's own performance (a full Figure 10 sweep is ~200
 * simulations, so the inner loops matter).
 */

#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "engine/calendar.hh"
#include "engine/pool.hh"
#include "mem/cache.hh"
#include "mem/page_table.hh"
#include "noc/bandwidth_server.hh"
#include "noc/interconnect.hh"
#include "noc/topologies/ring.hh"
#include "noc/topologies/switch.hh"
#include "sim/gpu_sim.hh"
#include "trace/warp_trace.hh"
#include "trace/workloads.hh"

namespace
{

using namespace mmgpu;

void
BM_CacheAccess(benchmark::State &state)
{
    mem::SectoredCache cache("bench", 2 * units::MiB, 16);
    Rng rng(1);
    std::uint64_t footprint = 8 * units::MiB / isa::cacheLineBytes;
    for (auto _ : state) {
        std::uint64_t addr =
            rng.below(footprint) * isa::cacheLineBytes;
        benchmark::DoNotOptimize(
            cache.access(addr, mem::fullLineMask, false));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_CalendarScheduleSequential(benchmark::State &state)
{
    // A CTA-dispatch-shaped load: bursts of 8 same-tick events
    // scheduled one by one, drained against a standing population.
    engine::Calendar calendar;
    Rng rng(3);
    double t = 0.0;
    for (unsigned i = 0; i < 1024; ++i)
        calendar.schedule(static_cast<double>(rng.below(64)), i,
                          false);
    for (auto _ : state) {
        t += 1.0;
        for (std::uint32_t w = 0; w < 8; ++w)
            calendar.schedule(t + static_cast<double>(rng.below(4)),
                              w, false);
        for (unsigned p = 0; p < 8; ++p)
            benchmark::DoNotOptimize(calendar.pop());
    }
}
BENCHMARK(BM_CalendarScheduleSequential);

void
BM_CalendarPopSchedule16K(benchmark::State &state)
{
    // The event loop's steady state at the 32-GPM warp population:
    // 16384 resident events, each pop rescheduling its event a few
    // cycles later, as a warp step does.
    constexpr unsigned population = 16384;
    engine::Calendar calendar;
    calendar.reserve(population);
    Rng rng(5);
    for (unsigned i = 0; i < population; ++i)
        calendar.schedule(static_cast<double>(rng.below(512)), i,
                          i % 2 == 1);
    std::uint32_t step = 0;
    for (auto _ : state) {
        const engine::Event event = calendar.pop();
        benchmark::DoNotOptimize(event);
        calendar.schedule(event.when + 1.0 + (step++ % 97),
                          event.index, event.isMem);
    }
}
BENCHMARK(BM_CalendarPopSchedule16K);

void
BM_GenPoolAllocRelease(benchmark::State &state)
{
    // The mem-pipeline task churn: allocate a small working set,
    // touch each slot through its handle, release in FIFO order.
    engine::GenPool<std::uint64_t> pool;
    std::uint32_t handles[16];
    for (auto _ : state) {
        for (unsigned i = 0; i < 16; ++i) {
            handles[i] = pool.alloc();
            pool.at(handles[i]) = i;
        }
        std::uint64_t sum = 0;
        for (unsigned i = 0; i < 16; ++i)
            sum += pool.at(handles[i]);
        benchmark::DoNotOptimize(sum);
        for (unsigned i = 0; i < 16; ++i)
            pool.release(handles[i]);
    }
}
BENCHMARK(BM_GenPoolAllocRelease);

void
BM_PageTableTouch(benchmark::State &state)
{
    // Line-granular touches over a block-streamed footprint: long
    // same-page runs (the one-entry cache's hit case) with a page
    // crossing every 32nd access.
    mem::PageTable table(8);
    Rng rng(4);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        addr += isa::cacheLineBytes;
        if (addr >= 64 * units::MiB)
            addr = rng.below(1024) * mem::PageTable::pageBytes;
        benchmark::DoNotOptimize(
            table.touch(addr, static_cast<unsigned>(addr >> 22) % 8));
    }
}
BENCHMARK(BM_PageTableTouch);

void
BM_BandwidthServer(benchmark::State &state)
{
    noc::BandwidthServer server("bench", 256.0);
    double t = 0.0;
    for (auto _ : state) {
        t += 0.5;
        benchmark::DoNotOptimize(server.acquire(t, 128.0));
    }
}
BENCHMARK(BM_BandwidthServer);

void
BM_RingTransfer(benchmark::State &state)
{
    noc::RingNetwork ring(32, 64.0, 40);
    Rng rng(2);
    double t = 0.0;
    for (auto _ : state) {
        unsigned src = static_cast<unsigned>(rng.below(32));
        unsigned dst = static_cast<unsigned>(rng.below(32));
        if (src == dst)
            dst = (dst + 1) % 32;
        t += 1.0;
        benchmark::DoNotOptimize(ring.transfer(t, src, dst, 128.0));
    }
}
BENCHMARK(BM_RingTransfer);

void
BM_WarpTraceGeneration(benchmark::State &state)
{
    const auto &profile = trace::scalingWorkloads().front();
    trace::SegmentLayout layout(profile);
    unsigned cta = 0;
    for (auto _ : state) {
        trace::WarpTrace trace(profile, layout, 0,
                               cta++ % profile.ctaCount, 0);
        while (trace.next().kind != isa::TraceOpKind::Exit) {
        }
    }
}
BENCHMARK(BM_WarpTraceGeneration);

void
BM_WarpStepSharedPlan(benchmark::State &state)
{
    // Op generation as the warp engine drives it: one plan for the
    // launch, 16384 resident warp states with one flat cursor array,
    // warps stepped round robin and rebound when they exit.
    const auto &profile = trace::scalingWorkloads().front();
    trace::SegmentLayout layout(profile);
    const trace::WarpTrace::Plan plan(profile, layout, 0);
    constexpr unsigned warps = 16384;
    const std::size_t stride = plan.accessCount();
    std::vector<trace::WarpTrace::State> states(warps);
    std::vector<trace::WarpTrace::Cursor> cursors(warps * stride);
    auto start = [&](unsigned w) {
        plan.start(states[w], &cursors[w * stride],
                   w / profile.warpsPerCta % profile.ctaCount,
                   w % profile.warpsPerCta);
    };
    for (unsigned w = 0; w < warps; ++w)
        start(w);
    unsigned w = 0;
    for (auto _ : state) {
        const isa::TraceOp op = plan.next(states[w], &cursors[w * stride]);
        if (op.kind == isa::TraceOpKind::Exit)
            start(w);
        benchmark::DoNotOptimize(op);
        w = w + 1 == warps ? 0 : w + 1;
    }
}
BENCHMARK(BM_WarpStepSharedPlan);

void
BM_SmallSimulation(benchmark::State &state)
{
    trace::KernelProfile profile;
    profile.name = "bench";
    profile.ctaCount = 64;
    profile.warpsPerCta = 2;
    profile.iterations = 4;
    profile.segments.push_back({"seg", 1 * units::MiB});
    trace::SegmentAccess access;
    access.segment = 0;
    access.pattern = trace::AccessPattern::BlockStream;
    access.perIteration = 2;
    profile.loads.push_back(access);
    profile.compute.push_back({isa::Opcode::FFMA32, 4});

    sim::GpuSim machine(sim::baselineConfig());
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.run(profile));
}
BENCHMARK(BM_SmallSimulation)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
