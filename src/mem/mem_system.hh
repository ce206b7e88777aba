/**
 * @file
 * Passive memory-system resources of a multi-GPM GPU: per-SM L1s,
 * per-GPM module-side L2s, per-GPM HBM channels, the intra-GPM NoC,
 * and the first-touch page table.
 *
 * Timing orchestration lives in the simulation engine (sim::GpuSim),
 * which walks accesses through these resources as a staged event
 * pipeline so that every bandwidth server sees requests in
 * calendar-time order. MemSystem provides the functional state
 * (tag arrays, page table) and the per-resource bandwidth servers.
 *
 * Coherence follows the software-coherence scheme of the multi-module
 * GPU proposals the paper simulates: L1s are write-through/no-allocate
 * and invalidated at kernel boundaries; L2s are write-back
 * write-allocate caches of global DRAM, cleaned of dirty data and
 * purged of remote-homed lines at kernel boundaries.
 */

#ifndef MMGPU_MEM_MEM_SYSTEM_HH
#define MMGPU_MEM_MEM_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/fields.hh"
#include "common/units.hh"
#include "isa/instruction.hh"
#include "mem/cache.hh"
#include "mem/page_table.hh"
#include "noc/bandwidth_server.hh"
#include "noc/interconnect.hh"
#include "telemetry/telemetry.hh"

namespace mmgpu::mem
{

/** Memory-subsystem slice of the machine configuration. */
struct MemConfig
{
    unsigned gpmCount = 1;
    unsigned smsPerGpm = 16;

    Bytes l1BytesPerSm = 32 * units::KiB;
    unsigned l1Assoc = 4;

    Bytes l2BytesPerGpm = 2 * units::MiB;
    unsigned l2Assoc = 16;

    /** Per-GPM local HBM stack bandwidth (bytes/cycle). */
    double dramBytesPerCycle = 256.0;

    /** Per-GPM SM<->L2 crossbar aggregate bandwidth (bytes/cycle). */
    double nocBytesPerCycle = 1024.0;

    Cycles l1Latency = 28;
    Cycles l2Latency = 120;
    Cycles dramLatency = 350;
    Cycles nocLatency = 16;
    Cycles sharedLatency = 25;

    auto operator<=>(const MemConfig &) const = default;
};

template <FieldsOf<MemConfig> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[gpmCount, smsPerGpm, l1BytesPerSm, l1Assoc, l2BytesPerGpm,
           l2Assoc, dramBytesPerCycle, nocBytesPerCycle, l1Latency,
           l2Latency, dramLatency, nocLatency, sharedLatency] = self;
    visit("gpmCount", gpmCount);
    visit("smsPerGpm", smsPerGpm);
    visit("l1BytesPerSm", l1BytesPerSm);
    visit("l1Assoc", l1Assoc);
    visit("l2BytesPerGpm", l2BytesPerGpm);
    visit("l2Assoc", l2Assoc);
    visit("dramBytesPerCycle", dramBytesPerCycle);
    visit("nocBytesPerCycle", nocBytesPerCycle);
    visit("l1Latency", l1Latency);
    visit("l2Latency", l2Latency);
    visit("dramLatency", dramLatency);
    visit("nocLatency", nocLatency);
    visit("sharedLatency", sharedLatency);
}

/** Event counts the energy model consumes (Eq. 4 inputs). */
struct MemCounters
{
    /** Warp-level transactions per EPT level. */
    std::array<Count, isa::numTxnLevels> txns{};

    Count l1SectorMisses = 0;
    Count l2SectorMisses = 0;
    Count remoteSectors = 0; //!< sectors served by a remote GPM
    Count localSectors = 0;  //!< sectors served by the local GPM
    Count writebackSectors = 0;

    void reset() { *this = MemCounters{}; }

    auto operator<=>(const MemCounters &) const = default;
};

template <FieldsOf<MemCounters> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[txns, l1SectorMisses, l2SectorMisses, remoteSectors,
           localSectors, writebackSectors] = self;
    visit("txns", txns);
    visit("l1SectorMisses", l1SectorMisses);
    visit("l2SectorMisses", l2SectorMisses);
    visit("remoteSectors", remoteSectors);
    visit("localSectors", localSectors);
    visit("writebackSectors", writebackSectors);
}

/** The assembled (passive) memory hierarchy of one simulated GPU. */
class MemSystem
{
  public:
    /**
     * @param config Memory configuration.
     * @param network Inter-GPM network; nullptr for a monolithic GPU
     *        (gpmCount must then be 1). Not owned. Used here only
     *        for the synchronous kernel-boundary writeback drain.
     */
    MemSystem(const MemConfig &config, noc::InterGpmNetwork *network);

    /** Configuration this system was built from. */
    const MemConfig &config() const { return cfg; }

    /** Functional L1 lookup/fill for flat SM id @p sm. */
    CacheAccessResult
    l1Access(unsigned sm, std::uint64_t line_addr, SectorMask sectors,
             bool is_write)
    {
        mmgpu_assert(sm < l1s.size(), "bad SM id");
        CacheAccessResult result =
            l1s[sm].access(line_addr, sectors, is_write);
        telL1SectorHits_->add(sectorCount(result.hitMask));
        telL1SectorMisses_->add(sectorCount(result.missMask));
        return result;
    }

    /** Functional L2 lookup/fill for GPM @p gpm. */
    CacheAccessResult
    l2Access(unsigned gpm, std::uint64_t line_addr, SectorMask sectors,
             bool is_write)
    {
        mmgpu_assert(gpm < l2s.size(), "bad GPM id");
        CacheAccessResult result =
            l2s[gpm].access(line_addr, sectors, is_write);
        telL2SectorHits_->add(sectorCount(result.hitMask));
        telL2SectorMisses_->add(sectorCount(result.missMask));
        return result;
    }

    /** Serialize @p bytes on GPM @p gpm's SM<->L2 crossbar. */
    noc::Tick
    nocAcquire(unsigned gpm, noc::Tick t, double bytes)
    {
        return nocs[gpm].acquire(t, bytes);
    }

    /** Serialize @p bytes on GPM @p gpm's HBM channel. */
    noc::Tick
    dramAcquire(unsigned gpm, noc::Tick t, double bytes)
    {
        if (telDramQueueCycles_) {
            double wait = drams[gpm].nextFreeAt() - t;
            if (wait > 0.0)
                telDramQueueCycles_->add(wait);
        }
        return drams[gpm].acquire(t, bytes);
    }

    /** Resolve (and on first touch, establish) the home of a page. */
    unsigned
    pageTouch(std::uint64_t addr, unsigned gpm)
    {
        return pages.touch(addr, gpm);
    }

    /**
     * Pre-home the page containing @p addr on GPM @p gpm. Models
     * first-touch placement deterministically: the CTA owning a byte
     * range is its first toucher under distributed CTA scheduling,
     * so pages are homed up front instead of racing halo accesses in
     * simulation order (see DESIGN.md).
     */
    void prePlace(std::uint64_t addr, unsigned gpm)
    {
        pages.touch(addr, gpm);
    }

    /**
     * Software-coherence kernel boundary: invalidate L1s, write back
     * all dirty L2 data, purge remote-homed L2 lines. Writeback
     * traffic is charged synchronously starting at time @p t (the
     * pipeline is drained at a boundary), into @p counters.
     * @return the time the writeback drain completes (>= t).
     */
    noc::Tick kernelBoundary(noc::Tick t, MemCounters &counters);

    /** Page table (exposed for tests and locality diagnostics). */
    const PageTable &pageTable() const { return pages; }

    /** Aggregate L1 statistics across all SMs. */
    Count l1Accesses() const;
    Count l1SectorHits() const;

    /** Aggregate L2 statistics across all GPMs. */
    Count l2Accesses() const;
    Count l2SectorHits() const;

    /** Total queueing cycles on all DRAM channels (congestion probe). */
    double dramQueueing() const;

    /** Total busy cycles on all DRAM channels (utilization probe). */
    double dramBusy() const;

    /**
     * Register this hierarchy's telemetry: "mem/..." hit/miss and
     * DRAM-queueing counters, plus (when @p tel has an enabled
     * timeline) per-GPM "gpm<g>/hbm" and "gpm<g>/noc" utilization
     * tracks fed by the bandwidth servers. @p tel must outlive this
     * MemSystem (the engine builds a fresh one per run).
     */
    void attachTelemetry(telemetry::Telemetry &tel);

    /**
     * Null every telemetry handle and bandwidth-server sink. A
     * build-once machine must call this when it runs detached, so a
     * Telemetry object from an earlier run cannot dangle.
     */
    void detachTelemetry();

    /**
     * Restore the as-constructed state: page table emptied, every
     * cache invalidated with statistics zeroed, all bandwidth
     * servers rewound. Telemetry attachments are left as they are —
     * the owner re-resolves or detaches them per run.
     */
    void reset();

  private:
    MemConfig cfg;
    noc::InterGpmNetwork *network; //!< nullptr when monolithic
    PageTable pages;

    std::vector<SectoredCache> l1s;          //!< per flat SM id
    std::vector<SectoredCache> l2s;          //!< per GPM
    std::vector<noc::BandwidthServer> drams; //!< per GPM
    std::vector<noc::BandwidthServer> nocs;  //!< per GPM

    // Telemetry hook handles. Counter hooks point at a per-system
    // discard sink while detached so l1Access()/l2Access() — called
    // once per line per warp access — stay branch-free; the sampler
    // hook stays branch-on-null (addAt does real binning work). The
    // DRAM queue hook keeps its branch: it guards a nextFreeAt()
    // computation, not just the add.
    telemetry::ActivitySampler *telTxn_ = nullptr;
    telemetry::Counter nullCounter_;
    telemetry::Counter *telL1SectorHits_ = &nullCounter_;
    telemetry::Counter *telL1SectorMisses_ = &nullCounter_;
    telemetry::Counter *telL2SectorHits_ = &nullCounter_;
    telemetry::Counter *telL2SectorMisses_ = &nullCounter_;
    telemetry::Counter *telDramQueueCycles_ = nullptr;
};

} // namespace mmgpu::mem

#endif // MMGPU_MEM_MEM_SYSTEM_HH
