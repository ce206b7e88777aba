#include "mem/cache.hh"

#include "common/logging.hh"

namespace mmgpu::mem
{

SectoredCache::SectoredCache(std::string name, Bytes capacity_bytes,
                             unsigned associativity)
    : name_(std::move(name)), ways(associativity)
{
    if (associativity == 0)
        mmgpu_fatal("cache '", name_, "': associativity must be >= 1");
    Bytes line_count = capacity_bytes / isa::cacheLineBytes;
    if (line_count == 0 || line_count % associativity != 0)
        mmgpu_fatal("cache '", name_, "': capacity ", capacity_bytes,
                    " not divisible into ", associativity, "-way sets");
    sets = static_cast<unsigned>(line_count / associativity);
    if ((sets & (sets - 1)) == 0)
        setMask_ = sets - 1;
    tagLru_.assign(line_count * 2, 0);
    for (std::size_t set = 0; set < sets; ++set) {
        Word *tags = setTags(set);
        for (unsigned w = 0; w < ways; ++w)
            tags[w] = invalidTag;
    }
    meta_.assign(line_count, Meta{});
}

unsigned
SectoredCache::findVictim(const Word *tags, const Word *last) const
{
    // Same selection as scanning an array of line structs: the first
    // invalid way short-circuits; otherwise the strictly smallest
    // LRU stamp wins, earliest way on ties. The stamp of an invalid
    // way is never read. The min scan carries (best, victim) through
    // ternaries so it compiles to conditional moves — a branchy scan
    // over LRU stamps is data-dependent and mispredicts constantly
    // in a miss-heavy set.
    unsigned victim = 0;
    Word best = last[0];
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[w] == invalidTag)
            return w; // free way
        bool better = last[w] < best;
        victim = better ? w : victim;
        best = better ? last[w] : best;
    }
    return victim;
}

CacheAccessResult
SectoredCache::access(std::uint64_t addr, SectorMask sectors,
                      bool is_write)
{
    mmgpu_assert(sectors != 0 && sectors <= fullLineMask,
                 "bad sector mask");

    const std::uint64_t line = addr / isa::cacheLineBytes;
    if (line >= maxLineAddress)
        mmgpu_panic("cache '", name_, "': address ", addr,
                    " beyond the 32-bit line-address space");
    if (useClock == invalidTag)
        mmgpu_panic("cache '", name_, "': LRU clock would wrap");
    const auto tag = static_cast<Word>(line);
    std::size_t set = setOf(tag);
    Word *tags = setTags(set);
    Word *last = tags + ways;

    CacheAccessResult result;
    ++accesses_;
    ++useClock;

    // Probe the set: tag lane only, invalid ways can never match.
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[w] == tag) {
            Meta &meta = meta_[set * ways + w];
            result.hitMask = sectors & meta.valid;
            result.missMask = sectors & ~meta.valid;
            meta.valid |= sectors; // fill missed sectors
            if (is_write)
                meta.dirty |= sectors;
            last[w] = useClock;
            if (result.missMask == 0)
                ++hits_;
            sectorHits_ += sectorCount(result.hitMask);
            sectorMisses_ += sectorCount(result.missMask);
            return result;
        }
    }

    // Full line miss: allocate via LRU.
    unsigned victim = findVictim(tags, last);
    Meta &meta = meta_[set * ways + victim];
    if (tags[victim] != invalidTag && meta.dirty) {
        result.writebackMask = meta.dirty;
        result.writebackAddr =
            std::uint64_t{tags[victim]} * isa::cacheLineBytes;
    }
    tags[victim] = tag;
    meta.valid = sectors;
    meta.dirty = is_write ? sectors : 0;
    last[victim] = useClock;

    result.hitMask = 0;
    result.missMask = sectors;
    sectorMisses_ += sectorCount(sectors);
    return result;
}

void
SectoredCache::assertResident(std::uint64_t addr) const
{
    std::uint64_t line = addr / isa::cacheLineBytes;
    const Word *tags = setTags(setOf(line));
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[w] == line)
            return;
    }
    mmgpu_panic("line ", addr, " not resident in ", name_);
}

void
SectoredCache::flushAll(
    std::vector<std::pair<std::uint64_t, SectorMask>> *writebacks)
{
    flushIf([](std::uint64_t) { return true; }, writebacks);
}

void
SectoredCache::cleanDirty(
    std::vector<std::pair<std::uint64_t, SectorMask>> *writebacks)
{
    for (std::size_t set = 0; set < sets; ++set) {
        const Word *tags = setTags(set);
        for (unsigned w = 0; w < ways; ++w) {
            if (tags[w] == invalidTag)
                continue;
            Meta &meta = meta_[set * ways + w];
            if (!meta.dirty)
                continue;
            if (writebacks)
                writebacks->emplace_back(
                    std::uint64_t{tags[w]} * isa::cacheLineBytes,
                    meta.dirty);
            meta.dirty = 0;
        }
    }
}

void
SectoredCache::resetStats()
{
    accesses_ = 0;
    hits_ = 0;
    sectorHits_ = 0;
    sectorMisses_ = 0;
}

void
SectoredCache::reset()
{
    // findVictim() never reads the LRU stamp of an invalid line, so
    // rewinding useClock while invalidating every line reproduces
    // the as-constructed replacement behaviour exactly.
    for (std::size_t set = 0; set < sets; ++set) {
        Word *tags = setTags(set);
        for (unsigned w = 0; w < ways; ++w) {
            tags[w] = invalidTag;
            tags[ways + w] = 0;
        }
    }
    std::fill(meta_.begin(), meta_.end(), Meta{});
    useClock = 1;
    resetStats();
}

} // namespace mmgpu::mem
