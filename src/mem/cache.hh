/**
 * @file
 * Sectored, set-associative cache model with real tag arrays.
 *
 * Both cache levels use 128 B lines made of four 32 B sectors,
 * matching the transaction granularities GPUJoule measured on the
 * K40 (Table Ib: L1<->RF moves 128 B, L2/DRAM move 32 B sectors).
 * Sector valid bits mean a miss fetches only the sectors a warp
 * actually touched — the mechanism behind the paper's memory
 * divergence energy costs.
 *
 * The model is purely functional (hit/miss/eviction); timing and
 * bandwidth live in the memory system that drives it.
 *
 * Tags (line addresses) and LRU stamps are stored as 32-bit words,
 * which halves the bytes a probe touches. Two loud guards keep that
 * exact: access() panics on a line address at or above
 * maxLineAddress (512 GiB of byte address space; GpuSim::run()
 * checks a profile's whole address space once per run) and before
 * the LRU clock would wrap (about 2^32 accesses since reset()).
 */

#ifndef MMGPU_MEM_CACHE_HH
#define MMGPU_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "isa/instruction.hh"

namespace mmgpu::mem
{

/** Bit mask over the four 32 B sectors of a 128 B line. */
using SectorMask = std::uint8_t;

/** Number of sectors per line. */
inline constexpr unsigned sectorsPerLine =
    isa::cacheLineBytes / isa::sectorBytes;

/** All four sectors present. */
inline constexpr SectorMask fullLineMask = 0xF;

/**
 * Population count of a sector mask via a 16-entry table.
 * std::popcount on a generic x86-64 target lowers to a libgcc call
 * (the baseline ISA has no popcnt instruction), which is real
 * per-access overhead in the cache and pipeline hot paths; a nibble
 * table is one L1-resident load.
 */
inline unsigned
sectorCount(SectorMask mask)
{
    constexpr std::uint8_t bits[16] = {0, 1, 1, 2, 1, 2, 2, 3,
                                       1, 2, 2, 3, 2, 3, 3, 4};
    return bits[mask & 0xF];
}

/** Result of a cache access. */
struct CacheAccessResult
{
    /** Sectors that hit (were valid). */
    SectorMask hitMask = 0;

    /** Sectors that missed and must be fetched from below. */
    SectorMask missMask = 0;

    /** Dirty sectors of an evicted victim that must be written back. */
    SectorMask writebackMask = 0;

    /** Line byte address of the evicted victim (valid if
     *  writebackMask != 0). */
    std::uint64_t writebackAddr = 0;
};

/**
 * One cache instance (an L1 or an L2 slice).
 *
 * Write policy is chosen by the caller per access: GPU L1s are
 * write-through/no-allocate for global data, L2s are write-back
 * write-allocate; both behaviours are expressible through
 * access()'s parameters.
 */
class SectoredCache
{
  public:
    /** Tag/LRU-stamp lane word. */
    using Word = std::uint32_t;

    /** Tag value of an invalid line; no accepted address maps to it,
     *  so probes need no separate valid check. */
    static constexpr Word invalidTag = ~Word{0};

    /** Line addresses (byte address / 128) must stay below this. */
    static constexpr std::uint64_t maxLineAddress = invalidTag;

    /**
     * @param name Diagnostic name.
     * @param capacity_bytes Total data capacity; must be a multiple
     *        of associativity * 128 B.
     * @param associativity Ways per set.
     */
    SectoredCache(std::string name, Bytes capacity_bytes,
                  unsigned associativity);

    /**
     * Look up (and on a read, allocate) the sectors of one line.
     *
     * @param addr Any byte address inside the line.
     * @param sectors Sector mask being accessed.
     * @param is_write True for stores: hit sectors are marked dirty;
     *        missed sectors are allocated and marked dirty
     *        (write-allocate). Callers modelling write-through
     *        no-allocate simply don't call this for stores.
     * @return hit/miss masks plus any eviction writeback.
     */
    CacheAccessResult access(std::uint64_t addr, SectorMask sectors,
                             bool is_write);

    /**
     * Mark previously-missed sectors as now present (fill after the
     * lower level responded). The line is guaranteed to still be
     * resident because access() allocates before returning; fills
     * are applied immediately in this functional model, so this is
     * implicit — provided for documentation symmetry and asserts.
     */
    void assertResident(std::uint64_t addr) const;

    /**
     * Invalidate everything; dirty lines are reported through
     * @p writebacks as (line address, dirty mask) pairs.
     * Used for software coherence at kernel boundaries.
     */
    void flushAll(
        std::vector<std::pair<std::uint64_t, SectorMask>> *writebacks);

    /**
     * Invalidate only lines for which @p predicate(lineAddr) is true
     * (e.g. remote-homed lines at a kernel boundary). Dirty lines are
     * reported via @p writebacks.
     */
    template <typename Pred>
    void
    flushIf(Pred predicate,
            std::vector<std::pair<std::uint64_t, SectorMask>> *writebacks)
    {
        for (std::size_t set = 0; set < sets; ++set) {
            Word *tags = setTags(set);
            for (unsigned w = 0; w < ways; ++w) {
                if (tags[w] == invalidTag)
                    continue;
                std::uint64_t addr =
                    std::uint64_t{tags[w]} * isa::cacheLineBytes;
                if (!predicate(addr))
                    continue;
                Meta &meta = meta_[set * ways + w];
                if (meta.dirty && writebacks)
                    writebacks->emplace_back(addr, meta.dirty);
                tags[w] = invalidTag;
                meta = Meta{};
            }
        }
    }

    /**
     * Write back every dirty line without invalidating it (the line
     * stays resident, now clean). Dirty (line address, mask) pairs
     * are appended to @p writebacks.
     */
    void cleanDirty(
        std::vector<std::pair<std::uint64_t, SectorMask>> *writebacks);

    /** Number of sets. */
    unsigned numSets() const { return sets; }

    /** Accesses (line-level) since construction/reset. */
    Count accesses() const { return accesses_; }

    /** Accesses with all requested sectors valid. */
    Count hits() const { return hits_; }

    /** Sector-granular hit count. */
    Count sectorHits() const { return sectorHits_; }

    /** Sector-granular miss count. */
    Count sectorMisses() const { return sectorMisses_; }

    /** Reset statistics (contents untouched). */
    void resetStats();

    /**
     * Restore the as-constructed state: every line invalid, the LRU
     * clock rewound, statistics zeroed. A reset cache is
     * indistinguishable from a freshly built one, which is what lets
     * a build-once machine replay a run bit-identically.
     */
    void reset();

  private:
    /**
     * Set-blocked tag-array layout: each set owns one contiguous
     * block of 2 * ways 32-bit words — its tag lane followed by its
     * LRU-stamp lane. The probe loop — by far the hottest code in the
     * memory model — scans only the 4-byte tag lane (64 B for a
     * 16-way L2 instead of the 384 B an array-of-Line layout costs),
     * the valid bit is folded into the tag as a sentinel so a probe
     * is one integer compare per way, and because the LRU lane sits
     * right behind the tag lane, a miss's victim scan stays inside
     * the same already-fetched region — full struct-of-arrays lanes
     * measured *slower* here, since a random set index then costs
     * three distant memory regions per access instead of one.
     * Sector valid/dirty masks are cold (touched only on the matched
     * way) and live in a small separate line-indexed array.
     */
    struct Meta
    {
        SectorMask valid = 0;
        SectorMask dirty = 0;
    };

    /** Tag lane of @p set (its LRU lane starts @c ways behind it). */
    Word *
    setTags(std::size_t set)
    {
        return &tagLru_[set * 2 * ways];
    }
    const Word *
    setTags(std::size_t set) const
    {
        return &tagLru_[set * 2 * ways];
    }

    /** Victim way of the set with tag lane @p tags / LRU lane
     *  @p last — the first invalid way, else the least-recently-used
     *  one (earliest way on ties). */
    unsigned findVictim(const Word *tags, const Word *last) const;

    /** Set index of @p tag: single AND when the set count is a power
     *  of two (it always is for real L1/L2 geometries — a 64-bit
     *  divide per access is the alternative), modulo otherwise. */
    std::size_t
    setOf(std::uint64_t tag) const
    {
        return setMask_ ? static_cast<std::size_t>(tag & setMask_)
                        : static_cast<std::size_t>(tag % sets);
    }

    std::string name_;
    unsigned sets;
    unsigned ways;
    std::uint64_t setMask_ = 0; //!< sets - 1 if pow2, else 0 (use %)
    /** Tests move the LRU clock next to its limit. */
    friend struct SectoredCacheTestPeer;

    std::vector<Word> tagLru_; //!< per set: tags, LRU stamps
    std::vector<Meta> meta_;   //!< sector valid/dirty masks
    Word useClock = 1;
    Count accesses_ = 0;
    Count hits_ = 0;
    Count sectorHits_ = 0;
    Count sectorMisses_ = 0;
};

} // namespace mmgpu::mem

#endif // MMGPU_MEM_CACHE_HH
