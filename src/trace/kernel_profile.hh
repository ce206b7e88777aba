/**
 * @file
 * Statistical kernel descriptions.
 *
 * The performance simulator is trace driven, but traces are not stored
 * on disk: each workload is described by a KernelProfile — data
 * segments, access patterns, per-iteration instruction mix — and
 * per-warp traces are generated on the fly, deterministically, from
 * (profile seed, CTA id, warp id). This reproduces the role of the
 * application traces used by the paper's proprietary simulator while
 * remaining fully self-contained (see DESIGN.md substitution table).
 */

#ifndef MMGPU_TRACE_KERNEL_PROFILE_HH
#define MMGPU_TRACE_KERNEL_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/units.hh"
#include "isa/opcode.hh"

namespace mmgpu::trace
{

/** Paper Table II workload category. */
enum class WorkloadClass : std::uint8_t
{
    Compute,  //!< "C" — compute intensive
    Memory,   //!< "M" — memory bandwidth intensive
};

/** @return "C" or "M". */
const char *workloadClassName(WorkloadClass cls);

/**
 * How a warp walks a data segment.
 *
 * The patterns are the minimal basis needed to reproduce the paper's
 * locality behaviours under first-touch page placement:
 *  - BlockStream: CTA-partitioned streaming; stays GPM-local.
 *  - Stencil:     BlockStream plus halo accesses into neighbouring
 *                 CTA chunks; halos become remote at GPM boundaries.
 *  - Random:      uniform over the segment; (N-1)/N remote at N GPMs.
 *  - Chase:       Random, but serially dependent (pointer chasing);
 *                 combined with mlp=1 this models latency-bound code.
 *  - Broadcast:   all CTAs walk the same small region (lookup tables);
 *                 caches absorb it after first touch.
 */
enum class AccessPattern : std::uint8_t
{
    BlockStream,
    Stencil,
    Random,
    Chase,
    Broadcast,
};

/** A named data array with a fixed byte footprint. */
struct DataSegment
{
    std::string name;
    Bytes bytes = 0;

    auto operator<=>(const DataSegment &) const = default;
};

template <FieldsOf<DataSegment> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[name, bytes] = self;
    visit("name", name);
    visit("bytes", bytes);
}

/** Per-iteration access behaviour against one segment. */
struct SegmentAccess
{
    /** Index into KernelProfile::segments. */
    unsigned segment = 0;

    AccessPattern pattern = AccessPattern::BlockStream;

    /** Warp-level accesses per loop iteration. */
    unsigned perIteration = 1;

    /**
     * Probability an access is memory divergent (touches 8 sectors
     * instead of a coalesced line's 4).
     */
    double divergence = 0.0;

    /**
     * Probability an access ignores the pattern and hits a uniformly
     * random line of the segment. Models the residual irregularity
     * real kernels carry even under first-touch placement and
     * distributed CTA scheduling — boundary/page sharing, indexed
     * reads, reductions, parameter tables — which the MCM-GPU
     * studies report as ~20% non-local traffic on average.
     */
    double irregular = 0.0;

    /** Stencil only: probability an access lands in a neighbour
     *  CTA's chunk. */
    double haloFraction = 0.1;

    /**
     * Stencil only: CTA-id distance to the halo neighbour. For a 2D
     * domain decomposed row-major into CTAs, the vertical neighbour
     * is a whole row of CTAs away — so halo traffic crosses GPM
     * boundaries once CTAs-per-GPM approaches this stride, which is
     * how surface-to-volume remote traffic grows with GPM count.
     */
    unsigned haloStride = 64;

    auto operator<=>(const SegmentAccess &) const = default;
};

template <FieldsOf<SegmentAccess> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[segment, pattern, perIteration, divergence, irregular,
           haloFraction, haloStride] = self;
    visit("segment", segment);
    visit("pattern", pattern);
    visit("perIteration", perIteration);
    visit("divergence", divergence);
    visit("irregular", irregular);
    visit("haloFraction", haloFraction);
    visit("haloStride", haloStride);
}

/** (opcode, count-per-iteration) pair of the compute mix. */
struct ComputeMix
{
    isa::Opcode op;
    unsigned perIteration;

    auto operator<=>(const ComputeMix &) const = default;
};

template <FieldsOf<ComputeMix> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[op, perIteration] = self;
    visit("op", op);
    visit("perIteration", perIteration);
}

/**
 * Full statistical description of one GPU kernel.
 *
 * Problem size (ctaCount, segment bytes) is *fixed* across GPM counts:
 * every scaling experiment in the paper is a strong-scaling
 * experiment.
 */
struct KernelProfile
{
    std::string name;
    WorkloadClass cls = WorkloadClass::Compute;

    /** Total thread blocks per launch (strong-scaling constant). */
    unsigned ctaCount = 2048;

    /** Warps per thread block. */
    unsigned warpsPerCta = 4;

    /** Main-loop iterations per warp. */
    unsigned iterations = 8;

    /** Sequential launches of this kernel (iterative apps). */
    unsigned launches = 1;

    /**
     * Maximum loads in flight per warp (memory-level parallelism /
     * per-warp MSHR budget). Streaming code keeps deep windows;
     * pointer-chasing code is expressed with small values.
     */
    unsigned mlp = 24;

    /** Compute instructions per iteration. */
    std::vector<ComputeMix> compute;

    /** Shared-memory loads per iteration. */
    unsigned sharedLoadsPerIter = 0;

    /** Global-load behaviour. */
    std::vector<SegmentAccess> loads;

    /** Global-store behaviour. */
    std::vector<SegmentAccess> stores;

    /** Data arrays. */
    std::vector<DataSegment> segments;

    /** Master seed; every warp derives its own stream from this. */
    std::uint64_t seed = 1;

    /**
     * Hardware-replay characteristics for energy validation: the
     * real application's typical kernel duration and inter-kernel
     * gap on the calibration GPU. Our simulated kernels are
     * miniatures; validation replays them at the real durations
     * (activity rates preserved) so the power sensor sees realistic
     * time scales. Applications with sub-refresh kernels (BFS,
     * MiniAMR) set hwKernelSeconds well below the sensor's 15 ms
     * period.
     */
    Seconds hwKernelSeconds = 0.05;
    Seconds hwGapSeconds = 2e-3;

    /** Total warps per launch. */
    unsigned totalWarps() const { return ctaCount * warpsPerCta; }

    /** Warp-level trace operations per warp per launch (approx.). */
    Count approxOpsPerWarp() const;

    /** Total byte footprint across segments. */
    Bytes footprint() const;

    /**
     * Validate internal consistency (segment indices in range,
     * non-zero shapes). Calls fatal() on user error per the logging
     * contract — a bad profile is a configuration mistake.
     */
    void validate() const;

    auto operator<=>(const KernelProfile &) const = default;
};

template <FieldsOf<KernelProfile> S, typename Visit>
constexpr void
forEachField(S &self, Visit &&visit)
{
    auto &[name, cls, ctaCount, warpsPerCta, iterations, launches, mlp,
           compute, sharedLoadsPerIter, loads, stores, segments, seed,
           hwKernelSeconds, hwGapSeconds] = self;
    visit("name", name);
    visit("cls", cls);
    visit("ctaCount", ctaCount);
    visit("warpsPerCta", warpsPerCta);
    visit("iterations", iterations);
    visit("launches", launches);
    visit("mlp", mlp);
    visit("compute", compute);
    visit("sharedLoadsPerIter", sharedLoadsPerIter);
    visit("loads", loads);
    visit("stores", stores);
    visit("segments", segments);
    visit("seed", seed);
    visit("hwKernelSeconds", hwKernelSeconds);
    visit("hwGapSeconds", hwGapSeconds);
}

} // namespace mmgpu::trace

#endif // MMGPU_TRACE_KERNEL_PROFILE_HH
