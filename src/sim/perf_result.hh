/**
 * @file
 * Performance-simulation output: everything GPUJoule's Eq. 4 needs,
 * plus locality/congestion diagnostics used by the analysis sections.
 */

#ifndef MMGPU_SIM_PERF_RESULT_HH
#define MMGPU_SIM_PERF_RESULT_HH

#include <array>

#include "common/fields.hh"
#include "common/units.hh"
#include "isa/instruction.hh"
#include "isa/opcode.hh"
#include "mem/mem_system.hh"
#include "noc/interconnect.hh"

namespace mmgpu::sim
{

/** Result of simulating one workload on one configuration. */
struct PerfResult
{
    /** Configuration name the run used. */
    std::string configName;

    /** Workload name. */
    std::string workloadName;

    /** End-to-end execution time (all launches + gaps), in cycles. */
    double execCycles = 0.0;

    /** End-to-end execution time in seconds. */
    Seconds execSeconds = 0.0;

    /** Warp-level instruction counts per opcode (compute + memory). */
    std::array<Count, isa::numOpcodes> instrs{};

    /** Memory transaction counters (EPT inputs). */
    mem::MemCounters mem;

    /** Inter-GPM traffic (link-energy inputs). */
    noc::LinkTraffic link;

    /** Aggregate SM issue-busy cycles across all SMs and launches. */
    double smBusyCycles = 0.0;

    /** Aggregate SM active-but-stalled cycles (EPStall input). */
    double smStallCycles = 0.0;

    /** Aggregate SM active-window cycles. */
    double smOccupiedCycles = 0.0;

    // ---- diagnostics ----

    Count l1Accesses = 0;
    Count l1SectorHits = 0;
    Count l2Accesses = 0;
    Count l2SectorHits = 0;

    /** Queueing cycles summed over all DRAM channels. */
    double dramQueueing = 0.0;

    /** Queueing cycles summed over all inter-GPM links. */
    double linkQueueing = 0.0;

    /** Busy cycles summed over all inter-GPM links. */
    double linkBusy = 0.0;

    /** Busy cycles summed over all DRAM channels. */
    double dramBusy = 0.0;

    /** Total warp-level instructions executed. */
    Count
    totalWarpInstrs() const
    {
        Count total = 0;
        for (Count c : instrs)
            total += c;
        return total;
    }

    /** Fraction of DRAM sectors served by a remote GPM. */
    double
    remoteFraction() const
    {
        Count total = mem.remoteSectors + mem.localSectors;
        return total ? static_cast<double>(mem.remoteSectors) / total
                     : 0.0;
    }

    /** Aggregate IPC in warp instructions per cycle. */
    double
    ipc() const
    {
        return execCycles > 0.0 ? totalWarpInstrs() / execCycles : 0.0;
    }

    auto operator<=>(const PerfResult &) const = default;
};

/** The result's one field list; the run cache persists exactly it. */
template <FieldsOf<PerfResult> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[configName, workloadName, execCycles, execSeconds, instrs, mem,
           link, smBusyCycles, smStallCycles, smOccupiedCycles,
           l1Accesses, l1SectorHits, l2Accesses, l2SectorHits,
           dramQueueing, linkQueueing, linkBusy, dramBusy] = self;
    visit("configName", configName);
    visit("workloadName", workloadName);
    visit("execCycles", execCycles);
    visit("execSeconds", execSeconds);
    visit("instrs", instrs);
    visit("mem", mem);
    visit("link", link);
    visit("smBusyCycles", smBusyCycles);
    visit("smStallCycles", smStallCycles);
    visit("smOccupiedCycles", smOccupiedCycles);
    visit("l1Accesses", l1Accesses);
    visit("l1SectorHits", l1SectorHits);
    visit("l2Accesses", l2Accesses);
    visit("l2SectorHits", l2SectorHits);
    visit("dramQueueing", dramQueueing);
    visit("linkQueueing", linkQueueing);
    visit("linkBusy", linkBusy);
    visit("dramBusy", dramBusy);
}

} // namespace mmgpu::sim

#endif // MMGPU_SIM_PERF_RESULT_HH
