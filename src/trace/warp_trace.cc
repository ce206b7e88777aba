#include "trace/warp_trace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mmgpu::trace
{

namespace
{

/** Round @p v up to a multiple of @p align. */
std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) / align * align;
}

} // namespace

SegmentLayout::SegmentLayout(const KernelProfile &profile)
{
    // Start at one page so that address 0 is never a valid address.
    std::uint64_t cursor = pageBytes;
    for (const auto &segment : profile.segments) {
        bases.push_back(cursor);
        Bytes size = alignUp(segment.bytes, pageBytes);
        sizes.push_back(size);
        cursor += size;
    }
    end_ = cursor;
}

std::uint64_t
SegmentLayout::base(unsigned index) const
{
    mmgpu_assert(index < bases.size(), "segment index out of range");
    return bases[index];
}

Bytes
SegmentLayout::size(unsigned index) const
{
    mmgpu_assert(index < sizes.size(), "segment index out of range");
    return sizes[index];
}

unsigned
chunkOwnerCta(const KernelProfile &profile, const SegmentLayout &layout,
              unsigned seg, std::uint64_t addr)
{
    std::uint64_t base = layout.base(seg);
    Bytes size = layout.size(seg);
    mmgpu_assert(addr >= base && addr < base + size,
                 "address outside segment");
    Bytes chunk = alignUp(
        std::max<Bytes>(size / profile.ctaCount, isa::cacheLineBytes),
        isa::cacheLineBytes);
    std::uint64_t cta = (addr - base) / chunk;
    return static_cast<unsigned>(
        std::min<std::uint64_t>(cta, profile.ctaCount - 1));
}

WarpTrace::Plan::Plan(const KernelProfile &prof,
                      const SegmentLayout &layout, unsigned launch)
    : launchRng_(Rng(prof.seed).fork(0x1000003ull * launch + 1)),
      iterations_(prof.iterations), ctaCount_(prof.ctaCount),
      warpsPerCta_(prof.warpsPerCta)
{
    // Segment geometry of every access: loads, then stores.
    auto push_access = [&](const SegmentAccess &access) {
        Access a;
        a.segBase = layout.base(access.segment);
        a.segSize = layout.size(access.segment);
        // CTA-partitioned chunk, line aligned, and the warp slice
        // within it.
        a.chunk = alignUp(std::max<Bytes>(a.segSize / prof.ctaCount,
                                          isa::cacheLineBytes),
                          isa::cacheLineBytes);
        a.slice = alignUp(std::max<Bytes>(a.chunk / prof.warpsPerCta,
                                          isa::cacheLineBytes),
                          isa::cacheLineBytes);
        a.irregular = access.irregular;
        a.divergence = access.divergence;
        a.haloFraction = access.haloFraction;
        a.haloStride = std::max(1u, access.haloStride);
        a.pattern = access.pattern;
        accesses_.push_back(a);
    };
    for (const auto &access : prof.loads)
        push_access(access);
    for (const auto &access : prof.stores)
        push_access(access);

    // Build the per-iteration schedule: global loads (memory-level
    // parallelism is enforced by the simulator's per-warp outstanding
    // window, not by explicit syncs), shared loads, one aggregated
    // compute block, stores.
    const auto store_base = static_cast<std::uint32_t>(prof.loads.size());
    for (std::uint32_t i = 0; i < prof.loads.size(); ++i) {
        for (unsigned n = 0; n < prof.loads[i].perIteration; ++n)
            schedule_.push_back({SlotKind::GlobalLoad, i});
    }

    for (unsigned n = 0; n < prof.sharedLoadsPerIter; ++n)
        schedule_.push_back({SlotKind::SharedLoad, 0});

    // Aggregate the compute mix into one dependent-chain block: the
    // block charges the SM issue pipeline for every instruction and
    // delays the warp by the serial chain latency.
    std::uint32_t block_slots = 0;
    std::uint32_t block_latency = 0;
    for (const auto &mix : prof.compute) {
        block_slots += mix.perIteration * isa::issueCost(mix.op);
        block_latency += mix.perIteration * isa::defaultLatency(mix.op);
    }
    if (block_slots > 0) {
        schedule_.push_back({SlotKind::ComputeBlock, 0});
        blockOp_ = isa::TraceOp::computeBlock(block_slots, block_latency);
    }

    for (std::uint32_t i = 0; i < prof.stores.size(); ++i)
        for (unsigned n = 0; n < prof.stores[i].perIteration; ++n)
            schedule_.push_back({SlotKind::GlobalStore, store_base + i});

    mmgpu_assert(!schedule_.empty(),
                 "profile '", prof.name, "' generates empty warps");
}

void
WarpTrace::Plan::start(State &state, Cursor *cursors, unsigned cta,
                       unsigned warp) const
{
    mmgpu_assert(cta < ctaCount_ && warp < warpsPerCta_,
                 "warp identifiers out of range");
    state.rng = launchRng_.fork(0x9E370001ull * cta + 3)
                    .fork(0x85EBCA77ull * warp + 7);
    state.iteration = 0;
    state.cursor = 0;
    state.drained = false;
    state.finished = false;

    for (std::size_t i = 0; i < accesses_.size(); ++i) {
        const Access &a = accesses_[i];
        std::uint64_t cta_offset = static_cast<std::uint64_t>(cta) * a.chunk;
        cta_offset %= a.segSize; // wrap tiny segments
        unsigned up = (cta + a.haloStride) % ctaCount_;
        unsigned down =
            (cta + ctaCount_ - a.haloStride % ctaCount_) % ctaCount_;
        Cursor &c = cursors[i];
        c.ctaBase = a.segBase + cta_offset +
                    static_cast<std::uint64_t>(warp) * a.slice;
        // Iterative apps: every launch re-walks the same bytes, so
        // position restarts at 0 for all launches by construction.
        c.position = 0;
        c.haloUpBase =
            a.segBase + (static_cast<std::uint64_t>(up) * a.chunk) %
                            a.segSize;
        c.haloDownBase =
            a.segBase + (static_cast<std::uint64_t>(down) * a.chunk) %
                            a.segSize;
    }
}

namespace
{

/**
 * (pos + step) % limit for the streaming walks, where pos < limit
 * and step <= limit always hold — so the modulo is a single
 * compare-and-subtract instead of a hardware 64-bit division.
 */
inline std::uint64_t
wrapAdvance(std::uint64_t pos, std::uint64_t step, std::uint64_t limit)
{
    pos += step;
    return pos >= limit ? pos - limit : pos;
}

} // namespace

isa::TraceOp
WarpTrace::Plan::makeAccess(const Access &access, Cursor &cursor,
                            Rng &rng, bool is_store) const
{
    std::uint64_t addr = 0;
    std::uint8_t sectors = 4; // fully coalesced 128 B line

    const Bytes line = isa::cacheLineBytes;
    AccessPattern pattern = access.pattern;
    if (access.irregular > 0.0 && rng.chance(access.irregular))
        pattern = AccessPattern::Random;
    switch (pattern) {
      case AccessPattern::BlockStream:
        addr = cursor.ctaBase + cursor.position;
        cursor.position = wrapAdvance(cursor.position, line, access.slice);
        break;
      case AccessPattern::Stencil:
        if (rng.chance(access.haloFraction)) {
            std::uint64_t base = rng.chance(0.5) ? cursor.haloUpBase
                                                 : cursor.haloDownBase;
            addr = base + rng.below(access.slice / line) * line;
        } else {
            addr = cursor.ctaBase + cursor.position;
            cursor.position =
                wrapAdvance(cursor.position, line, access.slice);
        }
        break;
      case AccessPattern::Random:
      case AccessPattern::Chase:
        addr = access.segBase + rng.below(access.segSize / line) * line;
        break;
      case AccessPattern::Broadcast:
        addr = access.segBase + cursor.position;
        cursor.position =
            wrapAdvance(cursor.position, line, access.segSize);
        break;
      default:
        mmgpu_panic("bad access pattern");
    }

    if (access.divergence > 0.0 && rng.chance(access.divergence))
        sectors = 8;

    // Keep divergent footprints inside the segment.
    std::uint64_t span_end = access.segBase + access.segSize;
    if (addr + sectors * isa::sectorBytes > span_end)
        addr = span_end - sectors * isa::sectorBytes;

    if (is_store)
        return isa::TraceOp::storeGlobal(addr, sectors);
    return isa::TraceOp::loadGlobal(addr, sectors);
}

WarpTrace::WarpTrace(const KernelProfile &profile,
                     const SegmentLayout &layout, unsigned launch,
                     unsigned cta, unsigned warp)
    : plan_(profile, layout, launch), cursors_(plan_.accessCount())
{
    plan_.start(state_, cursors_.data(), cta, warp);
}

} // namespace mmgpu::trace
