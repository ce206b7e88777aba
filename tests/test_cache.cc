/**
 * @file
 * Unit tests for the sectored set-associative cache.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace mmgpu::mem
{

/** Moves a cache's LRU clock next to its limit, which otherwise
 *  takes about 2^32 accesses to reach. */
struct SectoredCacheTestPeer
{
    static void
    setClock(SectoredCache &cache, SectoredCache::Word clock)
    {
        cache.useClock = clock;
    }
};

} // namespace mmgpu::mem

namespace
{

using namespace mmgpu;
using namespace mmgpu::mem;

TEST(Cache, ColdMissThenHit)
{
    SectoredCache cache("c", 4096, 2);
    auto miss = cache.access(0, fullLineMask, false);
    EXPECT_EQ(miss.hitMask, 0u);
    EXPECT_EQ(miss.missMask, fullLineMask);
    auto hit = cache.access(0, fullLineMask, false);
    EXPECT_EQ(hit.hitMask, fullLineMask);
    EXPECT_EQ(hit.missMask, 0u);
}

TEST(Cache, SectorGranularity)
{
    SectoredCache cache("c", 4096, 2);
    cache.access(0, 0x3, false); // sectors 0,1
    auto partial = cache.access(0, 0xF, false);
    EXPECT_EQ(partial.hitMask, 0x3u);
    EXPECT_EQ(partial.missMask, 0xCu);
    // After the implicit fill, everything hits.
    auto full = cache.access(0, 0xF, false);
    EXPECT_EQ(full.hitMask, 0xFu);
}

TEST(Cache, LruEviction)
{
    // 2 ways, 1 set per way-pair at this size: capacity 2 lines with
    // 4096/128/16... make a direct computation: capacity 256 B,
    // 2-way => 1 set of 2 lines.
    SectoredCache cache("c", 256, 2);
    EXPECT_EQ(cache.numSets(), 1u);
    cache.access(0 * 128, fullLineMask, false);
    cache.access(1 * 128, fullLineMask, false);
    cache.access(0 * 128, fullLineMask, false); // touch 0: now MRU
    cache.access(2 * 128, fullLineMask, false); // evicts line 1
    EXPECT_EQ(cache.access(0 * 128, fullLineMask, false).missMask, 0u);
    EXPECT_NE(cache.access(1 * 128, fullLineMask, false).missMask, 0u);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    SectoredCache cache("c", 256, 2);
    cache.access(0, 0x3, true); // dirty sectors 0,1
    cache.access(128, fullLineMask, false);
    auto evict = cache.access(256, fullLineMask, false); // evicts 0
    EXPECT_EQ(evict.writebackMask, 0x3u);
    EXPECT_EQ(evict.writebackAddr, 0u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    SectoredCache cache("c", 256, 2);
    cache.access(0, fullLineMask, false);
    cache.access(128, fullLineMask, false);
    auto evict = cache.access(256, fullLineMask, false);
    EXPECT_EQ(evict.writebackMask, 0u);
}

TEST(Cache, WriteMarksDirtyOnHitToo)
{
    SectoredCache cache("c", 256, 2);
    cache.access(0, fullLineMask, false); // clean
    cache.access(0, 0x1, true);           // dirty sector 0
    cache.access(128, fullLineMask, false);
    auto evict = cache.access(256, fullLineMask, false);
    EXPECT_EQ(evict.writebackMask, 0x1u);
}

TEST(Cache, FlushAllCollectsDirty)
{
    SectoredCache cache("c", 4096, 4);
    cache.access(0, 0xF, true);
    cache.access(512, 0x1, true);
    cache.access(1024, 0xF, false);
    std::vector<std::pair<std::uint64_t, SectorMask>> writebacks;
    cache.flushAll(&writebacks);
    EXPECT_EQ(writebacks.size(), 2u);
    // Everything misses after a flush.
    EXPECT_EQ(cache.access(1024, 0xF, false).hitMask, 0u);
}

TEST(Cache, FlushIfSelective)
{
    SectoredCache cache("c", 4096, 4);
    cache.access(0, 0xF, false);
    cache.access(128, 0xF, false);
    cache.flushIf([](std::uint64_t addr) { return addr >= 128; },
                  nullptr);
    EXPECT_EQ(cache.access(0, 0xF, false).missMask, 0u);
    EXPECT_EQ(cache.access(128, 0xF, false).hitMask, 0u);
}

TEST(Cache, CleanDirtyKeepsLinesResident)
{
    SectoredCache cache("c", 4096, 4);
    cache.access(0, 0xF, true);
    std::vector<std::pair<std::uint64_t, SectorMask>> writebacks;
    cache.cleanDirty(&writebacks);
    ASSERT_EQ(writebacks.size(), 1u);
    EXPECT_EQ(writebacks[0].second, 0xFu);
    // Still resident, now clean: re-clean finds nothing.
    EXPECT_EQ(cache.access(0, 0xF, false).missMask, 0u);
    writebacks.clear();
    cache.cleanDirty(&writebacks);
    EXPECT_TRUE(writebacks.empty());
}

TEST(Cache, StatsTrackSectorHitsAndMisses)
{
    SectoredCache cache("c", 4096, 4);
    cache.access(0, 0xF, false);
    cache.access(0, 0xF, false);
    EXPECT_EQ(cache.accesses(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.sectorMisses(), 4u);
    EXPECT_EQ(cache.sectorHits(), 4u);
    cache.resetStats();
    EXPECT_EQ(cache.accesses(), 0u);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    SectoredCache cache("c", 4096, 2); // 16 sets
    // Fill way beyond one set's capacity using set-stride addresses.
    for (unsigned i = 0; i < 16; ++i)
        cache.access(i * 128, fullLineMask, false);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(cache.access(i * 128, fullLineMask, false).missMask,
                  0u);
}

TEST(CacheDeathTest, RejectsIndivisibleCapacity)
{
    EXPECT_EXIT(SectoredCache("bad", 100, 3),
                ::testing::ExitedWithCode(1), "not divisible");
}

TEST(CacheDeathTest, LineAddressBeyondTheTagLaneFailsLoudly)
{
    // Tags are 32-bit line addresses: the last one below the
    // invalid-tag sentinel is accepted and round-trips as a
    // writeback address; the sentinel itself and anything above it
    // must not alias a smaller line.
    SectoredCache cache("c", 4096, 2);
    const std::uint64_t last_line =
        (SectoredCache::maxLineAddress - 1) * isa::cacheLineBytes;
    cache.access(last_line, fullLineMask, true);
    std::vector<std::pair<std::uint64_t, SectorMask>> writebacks;
    cache.flushAll(&writebacks);
    ASSERT_EQ(writebacks.size(), 1u);
    EXPECT_EQ(writebacks[0].first, last_line);

    EXPECT_DEATH(cache.access(last_line + isa::cacheLineBytes,
                              fullLineMask, false),
                 "32-bit line-address");
    EXPECT_DEATH(cache.access(std::uint64_t{1} << 48, fullLineMask,
                              false),
                 "32-bit line-address");
}

TEST(CacheDeathTest, LruClockThatWouldWrapFailsLoudly)
{
    SectoredCache cache("c", 4096, 2);
    SectoredCacheTestPeer::setClock(cache, SectoredCache::invalidTag - 1);
    cache.access(0, fullLineMask, false); // the last stamp it can give
    EXPECT_DEATH(cache.access(0, fullLineMask, false),
                 "LRU clock would wrap");
    // reset() rewinds the clock.
    cache.reset();
    EXPECT_EQ(cache.access(0, fullLineMask, false).missMask,
              fullLineMask);
}

} // namespace
