/**
 * @file
 * Unit tests for the cache hierarchy: hit/miss behaviour, MESI
 * transitions, inclusion, MSHR coalescing and exhaustion, LRU
 * replacement, and the PMU's back-invalidation / back-writeback
 * hooks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "mem/hmc.hh"

namespace pei
{
namespace
{

struct CacheFixture : public ::testing::Test
{
    CacheFixture()
    {
        hmc_cfg.num_cubes = 1;
        hmc_cfg.vaults_per_cube = 4;
        hmc = std::make_unique<HmcBackend>(eq, hmc_cfg, stats);

        cache_cfg.l1_bytes = 1 << 10;
        cache_cfg.l1_ways = 2;
        cache_cfg.l2_bytes = 4 << 10;
        cache_cfg.l2_ways = 4;
        cache_cfg.l3_bytes = 32 << 10;
        cache_cfg.l3_ways = 8;
        cache_cfg.core_mshrs = 4;
        cache_cfg.l3_mshrs = 8;
        caches = std::make_unique<CacheHierarchy>(eq, cache_cfg, 4, *hmc,
                                                  stats);
    }

    /** Run one access to completion; returns elapsed ticks. */
    Ticks
    doAccess(unsigned core, Addr paddr, bool write)
    {
        const Tick start = eq.now();
        bool done = false;
        caches->access(core, paddr, write, [&done] { done = true; });
        while (!done && eq.runOne()) {}
        EXPECT_TRUE(done);
        return eq.now() - start;
    }

    void
    settle()
    {
        while (eq.runOne()) {}
    }

    StatRegistry stats;
    EventQueue eq;
    HmcConfig hmc_cfg;
    CacheConfig cache_cfg;
    std::unique_ptr<HmcBackend> hmc;
    std::unique_ptr<CacheHierarchy> caches;
};

TEST_F(CacheFixture, ColdMissThenHit)
{
    const Ticks miss = doAccess(0, 0x1000, false);
    const Ticks hit = doAccess(0, 0x1000, false);
    EXPECT_GT(miss, hit);
    EXPECT_EQ(hit, cache_cfg.l1_latency);
    EXPECT_EQ(stats.get("cache.l1_hits"), 1u);
    EXPECT_EQ(stats.get("cache.l3_misses"), 1u);
}

TEST_F(CacheFixture, ReadFillsExclusive)
{
    doAccess(0, 0x2000, false);
    EXPECT_EQ(caches->l1State(0, 0x2000), MesiState::Exclusive);
    EXPECT_EQ(caches->l2State(0, 0x2000), MesiState::Exclusive);
    EXPECT_TRUE(caches->l3Contains(0x2000));
}

TEST_F(CacheFixture, SecondReaderDowngradesToShared)
{
    doAccess(0, 0x2000, false);
    doAccess(1, 0x2000, false);
    EXPECT_EQ(caches->l1State(0, 0x2000), MesiState::Shared);
    EXPECT_EQ(caches->l1State(1, 0x2000), MesiState::Shared);
    caches->checkInvariants();
}

TEST_F(CacheFixture, WriteInvalidatesRemoteCopies)
{
    doAccess(0, 0x3000, false);
    doAccess(1, 0x3000, false);
    doAccess(2, 0x3000, true);
    EXPECT_EQ(caches->l1State(0, 0x3000), MesiState::Invalid);
    EXPECT_EQ(caches->l1State(1, 0x3000), MesiState::Invalid);
    EXPECT_EQ(caches->l1State(2, 0x3000), MesiState::Modified);
    EXPECT_GE(stats.get("cache.invalidations"), 2u);
    caches->checkInvariants();
}

TEST_F(CacheFixture, WriteUpgradeOnSharedLine)
{
    doAccess(0, 0x3000, false);
    doAccess(1, 0x3000, false);
    // Core 0 upgrades its shared copy.
    doAccess(0, 0x3000, true);
    EXPECT_EQ(caches->l1State(0, 0x3000), MesiState::Modified);
    EXPECT_EQ(caches->l1State(1, 0x3000), MesiState::Invalid);
    caches->checkInvariants();
}

TEST_F(CacheFixture, DirtyRemoteCopyWritesBackOnRead)
{
    doAccess(0, 0x4000, true); // core 0 dirties the block
    doAccess(1, 0x4000, false);
    EXPECT_EQ(caches->l1State(0, 0x4000), MesiState::Shared);
    EXPECT_EQ(caches->l1State(1, 0x4000), MesiState::Shared);
    EXPECT_GE(stats.get("cache.writebacks_l3"), 1u);
    caches->checkInvariants();
}

TEST_F(CacheFixture, InclusionHoldsUnderCapacityPressure)
{
    // Touch far more blocks than L1/L2 can hold.
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        doAccess(i % 4, 0x10000 + 64 * rng.below(512), rng.chance(0.4));
    settle();
    caches->checkInvariants();
}

TEST_F(CacheFixture, L3EvictionBackInvalidatesPrivateCopies)
{
    // Fill one L3 set past associativity; the victim's private
    // copies must disappear (inclusive policy).
    const unsigned l3_sets = static_cast<unsigned>(
        cache_cfg.l3_bytes / 64 / cache_cfg.l3_ways);
    const Addr first = 0x100000;
    doAccess(0, first, false);
    for (unsigned w = 1; w <= cache_cfg.l3_ways; ++w)
        doAccess(1, first + (std::uint64_t{w} * l3_sets << 6), false);
    settle();
    EXPECT_FALSE(caches->l3Contains(first));
    EXPECT_EQ(caches->l1State(0, first), MesiState::Invalid);
    EXPECT_EQ(caches->l2State(0, first), MesiState::Invalid);
    caches->checkInvariants();
}

TEST_F(CacheFixture, MshrCoalescesSameBlock)
{
    int done = 0;
    for (int i = 0; i < 3; ++i)
        caches->access(0, 0x5000 + 8 * i, false, [&done] { ++done; });
    settle();
    EXPECT_EQ(done, 3);
    // One DRAM fetch serves all three word accesses.
    EXPECT_EQ(stats.get("hmc.reads"), 1u);
}

TEST_F(CacheFixture, MshrExhaustionStallsAndRecovers)
{
    int done = 0;
    // 8 distinct blocks > 4 core MSHRs: later ones must stall and
    // still complete.
    for (int i = 0; i < 8; ++i)
        caches->access(0, 0x8000 + 64 * i, false, [&done] { ++done; });
    settle();
    EXPECT_EQ(done, 8);
    caches->checkInvariants();
}

TEST_F(CacheFixture, MshrSlotsAreReusedWithoutStaleWaiters)
{
    // Each round misses on 6 fresh blocks from cores 0 and 1, twice
    // per core: 6 blocks > 4 core MSHRs, so slots are released and
    // reclaimed within a round and across rounds, while repeats
    // coalesce onto the core MSHRs and core 1 onto the L3 MSHRs.
    // Every callback must fire exactly once.
    constexpr int rounds = 5;
    constexpr int blocks = 6;
    std::vector<int> fired(rounds * blocks * 4, 0);
    for (int r = 0; r < rounds; ++r) {
        for (int b = 0; b < blocks; ++b) {
            const Addr paddr = 0x40000 + 64 * (r * blocks + b);
            for (int k = 0; k < 4; ++k) {
                const unsigned core = k / 2;
                int &slot = fired[(r * blocks + b) * 4 + k];
                caches->access(core, paddr + 8 * k, false,
                               [&slot] { ++slot; });
            }
        }
        settle();
        for (int i = 0; i < (r + 1) * blocks * 4; ++i)
            ASSERT_EQ(fired[i], 1) << "callback " << i << ", round " << r;
    }
    // One DRAM fetch per block: every repeat was served by an MSHR or
    // the filled line.
    EXPECT_EQ(stats.get("hmc.reads"), static_cast<std::uint64_t>(rounds * blocks));
    EXPECT_GT(stats.get("cache.l3_mshr_coalesced"), 0u);
    caches->checkInvariants();
}

TEST(CacheDeathTest, ZeroEntryMshrFileIsFatal)
{
    StatRegistry stats;
    EventQueue eq;
    HmcConfig hmc_cfg;
    HmcBackend hmc(eq, hmc_cfg, stats);
    CacheConfig cfg;
    cfg.core_mshrs = 0;
    EXPECT_DEATH(CacheHierarchy(eq, cfg, 1, hmc, stats),
                 "MSHR files need at least one entry");
    cfg.core_mshrs = 16;
    cfg.l3_mshrs = 0;
    EXPECT_DEATH(CacheHierarchy(eq, cfg, 1, hmc, stats),
                 "MSHR files need at least one entry");
}

TEST_F(CacheFixture, BackInvalidateRemovesEveryCopy)
{
    doAccess(0, 0x6000, true); // dirty in core 0
    doAccess(1, 0x6000, false);
    bool done = false;
    caches->backInvalidate(0x6000, [&done] { done = true; });
    settle();
    EXPECT_TRUE(done);
    EXPECT_FALSE(caches->contains(0x6000));
    // Dirty data went back to memory.
    EXPECT_GE(stats.get("cache.writebacks_mem"), 1u);
    EXPECT_GE(stats.get("hmc.writes"), 1u);
    caches->checkInvariants();
}

TEST_F(CacheFixture, BackWritebackCleansButKeepsCopies)
{
    doAccess(0, 0x7000, true); // dirty in core 0
    bool done = false;
    caches->backWriteback(0x7000, [&done] { done = true; });
    settle();
    EXPECT_TRUE(done);
    EXPECT_TRUE(caches->contains(0x7000));           // copies remain
    EXPECT_GE(stats.get("hmc.writes"), 1u);          // but memory fresh
    EXPECT_NE(caches->l1State(0, 0x7000), MesiState::Modified);
    caches->checkInvariants();
}

TEST_F(CacheFixture, BackInvalidateOnUncachedBlockIsCheap)
{
    bool done = false;
    caches->backInvalidate(0xF0000, [&done] { done = true; });
    settle();
    EXPECT_TRUE(done);
    EXPECT_EQ(stats.get("hmc.writes"), 0u);
}

TEST_F(CacheFixture, LruVictimIsLeastRecentlyUsed)
{
    CacheArray array(1 << 10, 2); // 8 sets, 2 ways
    const Addr a = 0x100, b = 0x100 + 8, c = 0x100 + 16; // same set
    array.fill(array.victim(a), a, MesiState::Shared);
    array.fill(array.victim(b), b, MesiState::Shared);
    array.touch(*array.find(a)); // b becomes LRU
    CacheLine &v = array.victim(c);
    EXPECT_EQ(v.block, b);
}

TEST(CacheArray, FindOrVictimMatchesFindThenVictim)
{
    // 4 sets x 4 ways over 32 blocks: sets fill up, get holes from
    // invalidations, and see hits, so every branch of the fused
    // lookup is compared against find() then victim() on a twin.
    constexpr unsigned sets = 4, ways = 4;
    CacheArray fused(sets * ways * block_size, ways);
    CacheArray twin(sets * ways * block_size, ways);
    // An empty set's victim is its way 0.
    std::vector<const CacheLine *> fused_base, twin_base;
    for (Addr s = 0; s < sets; ++s) {
        fused_base.push_back(&fused.victim(s));
        twin_base.push_back(&twin.victim(s));
    }

    Rng rng(42);
    int hits = 0, invalid_victims = 0, lru_victims = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr block = rng.below(32);
        const unsigned set = fused.setIndex(block);
        bool hit = false;
        CacheLine &f = fused.findOrVictim(block, hit);
        CacheLine *t = twin.find(block);
        CacheLine &tv = t ? *t : twin.victim(block);
        ASSERT_EQ(hit, t != nullptr) << "step " << i;
        ASSERT_EQ(&f - fused_base[set], &tv - twin_base[set])
            << "step " << i << ", block " << block;

        if (hit) {
            ++hits;
            if (rng.chance(0.25)) {
                fused.invalidate(f);
                twin.invalidate(tv);
            } else {
                fused.touch(f);
                twin.touch(tv);
            }
        } else {
            ++(f.valid ? lru_victims : invalid_victims);
            fused.fill(f, block, MesiState::Shared);
            twin.fill(tv, block, MesiState::Shared);
        }
    }
    EXPECT_GT(hits, 1000);
    EXPECT_GT(invalid_victims, 1000);
    EXPECT_GT(lru_victims, 1000);
}

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheGeometry, RandomTrafficKeepsInvariants)
{
    const auto [ways, cores] = GetParam();
    StatRegistry stats;
    EventQueue eq;
    HmcConfig hmc_cfg;
    hmc_cfg.num_cubes = 1;
    hmc_cfg.vaults_per_cube = 4;
    HmcBackend hmc(eq, hmc_cfg, stats);
    CacheConfig cfg;
    cfg.l1_bytes = 2 << 10;
    cfg.l1_ways = ways;
    cfg.l2_bytes = 8 << 10;
    cfg.l2_ways = ways;
    cfg.l3_bytes = 32 << 10;
    cfg.l3_ways = ways;
    CacheHierarchy caches(eq, cfg, cores, hmc, stats);

    Rng rng(ways * 100 + cores);
    int done = 0, issued = 0;
    for (int i = 0; i < 2000; ++i) {
        ++issued;
        caches.access(static_cast<unsigned>(rng.below(cores)),
                      0x4000 + 64 * rng.below(256), rng.chance(0.5),
                      [&done] { ++done; });
        if (i % 7 == 0)
            eq.runOne();
    }
    while (eq.runOne()) {}
    EXPECT_EQ(done, issued);
    caches.checkInvariants();
}

TEST_P(CacheGeometry, TinyMshrFilesFireEveryCallbackOnce)
{
    // Two core MSHRs and three L3 MSHRs under random traffic force
    // stalls, coalescing and out-of-order releases from the packed
    // MSHR files; back-invalidations and back-writebacks walk the
    // sharer vectors and park behind L3 misses.
    const auto [ways, cores] = GetParam();
    StatRegistry stats;
    EventQueue eq;
    HmcConfig hmc_cfg;
    hmc_cfg.num_cubes = 1;
    hmc_cfg.vaults_per_cube = 4;
    HmcBackend hmc(eq, hmc_cfg, stats);
    CacheConfig cfg;
    cfg.l1_bytes = 2 << 10;
    cfg.l1_ways = ways;
    cfg.l2_bytes = 8 << 10;
    cfg.l2_ways = ways;
    cfg.l3_bytes = 32 << 10;
    cfg.l3_ways = ways;
    cfg.core_mshrs = 2;
    cfg.l3_mshrs = 3;
    CacheHierarchy caches(eq, cfg, cores, hmc, stats);

    Rng rng(ways * 1000 + cores);
    constexpr int ops = 3000;
    std::vector<int> fired(ops, 0);
    for (int i = 0; i < ops; ++i) {
        // Half the traffic on 16 hot blocks (coalescing), half over
        // 1024 blocks (twice the L3: evictions and back-invalidates).
        const Addr block = rng.chance(0.5) ? rng.below(16)
                                           : 16 + rng.below(1024);
        const Addr paddr = 0x100000 + 64 * block + 8 * rng.below(8);
        int &slot = fired[i];
        auto cb = [&slot] { ++slot; };
        const std::uint64_t kind = rng.below(16);
        if (kind == 0)
            caches.backInvalidate(paddr, cb);
        else if (kind == 1)
            caches.backWriteback(paddr, cb);
        else
            caches.access(static_cast<unsigned>(rng.below(cores)), paddr,
                          rng.chance(0.4), cb);
        if (i % 5 == 0)
            eq.runOne();
    }
    while (eq.runOne()) {}
    for (int i = 0; i < ops; ++i)
        ASSERT_EQ(fired[i], 1) << "callback " << i;
    EXPECT_TRUE(caches.invariantViolation().empty())
        << caches.invariantViolation();
    EXPECT_TRUE(stats.audit().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

} // namespace
} // namespace pei
