/**
 * @file
 * Unit tests for the memory substrate: virtual memory and TLB,
 * physical address mapping, DRAM vault timing (FR-FCFS, row
 * buffers, TSV serialization), and the HMC link model (bandwidth,
 * flit accounting, EMA counters, PIM packet routing).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "mem/addr_map.hh"
#include "mem/dram.hh"
#include "mem/hmc.hh"
#include "mem/vmem.hh"

namespace pei
{
namespace
{

// ------------------------------------------------------- VirtualMemory

TEST(VirtualMemory, AllocTranslateRoundTrip)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(10000);
    const Addr b = vm.alloc(10000);
    EXPECT_NE(a, b);
    // Different vaddrs map to different paddrs; offsets preserved.
    EXPECT_NE(vm.translate(a), vm.translate(b));
    EXPECT_EQ(vm.translate(a + 123) & 0xFFF, (vm.translate(a) + 123) & 0xFFF);
}

TEST(VirtualMemory, FunctionalReadWrite)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(4096 * 3);
    vm.write<std::uint64_t>(a + 4090, 0xDEADBEEFCAFEF00DULL); // crosses page
    EXPECT_EQ(vm.read<std::uint64_t>(a + 4090), 0xDEADBEEFCAFEF00DULL);

    std::vector<std::uint8_t> buf(8192, 0xAB);
    vm.writeBytes(a, buf.data(), buf.size());
    std::vector<std::uint8_t> out(8192, 0);
    vm.readBytes(a, out.data(), out.size());
    EXPECT_EQ(buf, out);
}

TEST(VirtualMemory, PhysicalAccessMatchesVirtual)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(4096);
    vm.write<std::uint32_t>(a + 100, 42);
    EXPECT_EQ(vm.readPhys<std::uint32_t>(vm.translate(a + 100)), 42u);
    vm.writePhys<std::uint32_t>(vm.translate(a + 100), 43);
    EXPECT_EQ(vm.read<std::uint32_t>(a + 100), 43u);
}

TEST(VirtualMemory, ZeroInitialized)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(1 << 16);
    std::vector<std::uint8_t> out(1 << 16, 0xFF);
    vm.readBytes(a, out.data(), out.size());
    EXPECT_EQ(std::count(out.begin(), out.end(), 0), 1 << 16);
}

TEST(VirtualMemory, WriteArrayUnalignedAcrossThreePages)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(4 * page_size);
    // 3 bytes in, every page boundary splits a u64, which then goes
    // through the writeBytes() fallback; 1036 u64s reach a third page.
    const Addr start = a + 3;
    const std::uint64_t count = 1036;
    ASSERT_EQ(VirtualMemory::vpn(start + 8 * count - 1) -
                  VirtualMemory::vpn(start),
              2u);
    const auto gen = [](std::uint64_t i) {
        return i * 0x0101010101010101ULL + 0x1122334455667788ULL;
    };
    vm.writeArray<std::uint64_t>(start, count, gen);

    // Reference image: 3 zero bytes, the elements, then zeroes again.
    std::vector<std::uint8_t> want(4 * page_size, 0);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t v = gen(i);
        std::memcpy(want.data() + 3 + 8 * i, &v, 8);
    }
    std::vector<std::uint8_t> got(want.size(), 0xFF);
    vm.readBytes(a, got.data(), got.size());
    EXPECT_EQ(got, want);
}

TEST(VirtualMemory, WriteArrayWidensAcrossPageBoundary)
{
    VirtualMemory vm(64 << 20);
    std::vector<std::uint32_t> narrow(700);
    for (std::size_t i = 0; i < narrow.size(); ++i)
        narrow[i] = 0xFFFFFF00u + static_cast<std::uint32_t>(i);
    // Start one block before a page boundary so the copy crosses it.
    const Addr base = vm.alloc(2 * page_size + 8 * narrow.size());
    const Addr a = ((base + page_size) & ~(page_size - 1)) - block_size;
    vm.writeArray<std::uint64_t>(a, narrow.size(), [&narrow](std::uint64_t i) {
        return narrow[i];
    });
    for (std::size_t i = 0; i < narrow.size(); ++i)
        ASSERT_EQ(vm.read<std::uint64_t>(a + 8 * i), std::uint64_t{narrow[i]})
            << "element " << i;
}

TEST(Tlb, HitsAfterFirstAccessAndEvictsLru)
{
    Tlb tlb(2, 100);
    EXPECT_EQ(tlb.access(0x1000), 100u); // miss
    EXPECT_EQ(tlb.access(0x1008), 0u);   // same page: hit
    EXPECT_EQ(tlb.access(0x2000), 100u); // miss
    EXPECT_EQ(tlb.access(0x1000), 0u);   // still resident
    EXPECT_EQ(tlb.access(0x3000), 100u); // evicts 0x2000 (LRU)
    EXPECT_EQ(tlb.access(0x2000), 100u); // miss again
    EXPECT_EQ(tlb.misses(), 4u);
}

TEST(Tlb, MatchesNaiveLruModelOnSeededStream)
{
    // The pre-array TLB: a vpn -> last-use map that evicts the
    // minimum stamp once full.  The fixed-array TLB must report the
    // same hit/miss sequence access for access.
    struct NaiveTlb
    {
        std::unordered_map<Addr, std::uint64_t> lru;
        std::uint64_t tick = 0;

        bool
        hit(Addr vaddr)
        {
            const Addr page = VirtualMemory::vpn(vaddr);
            ++tick;
            if (auto it = lru.find(page); it != lru.end()) {
                it->second = tick;
                return true;
            }
            if (lru.size() >= 64) {
                lru.erase(std::min_element(
                    lru.begin(), lru.end(), [](const auto &a, const auto &b) {
                        return a.second < b.second;
                    }));
            }
            lru.emplace(page, tick);
            return false;
        }
    };

    Tlb tlb(64, 30);
    NaiveTlb naive;
    Rng rng(20151);
    std::uint64_t hits = 0;
    for (int i = 0; i < 200000; ++i) {
        // A hot set that fits, a warm set that thrashes around the
        // capacity, and cold pages that always miss.
        const std::uint64_t r = rng.below(100);
        const Addr page = r < 60   ? rng.below(48)
                          : r < 95 ? 48 + rng.below(40)
                                   : 1000 + rng.below(1 << 20);
        const Addr vaddr = (page << page_shift) | rng.below(page_size);
        const bool expect_hit = naive.hit(vaddr);
        ASSERT_EQ(tlb.access(vaddr), expect_hit ? 0u : 30u)
            << "access " << i;
        hits += expect_hit;
    }
    EXPECT_EQ(tlb.hits(), hits);
    EXPECT_EQ(tlb.misses(), 200000u - hits);
    // The stream exercises both outcomes heavily.
    EXPECT_GT(hits, 100000u);
    EXPECT_GT(tlb.misses(), 20000u);
}

TEST(TlbDeathTest, ZeroEntriesIsFatal)
{
    EXPECT_DEATH(Tlb(0, 30), "at least one entry");
}

TEST(VirtualMemoryDeathTest, PagesOutsideAllocationsAreUnmapped)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(100);
    // A 64 KiB alignment skips the rest of the first 64 KiB window.
    const Addr b = vm.alloc(4096, 1 << 16);
    EXPECT_EQ(vm.mappedPages(), 2u);
    EXPECT_EQ(vm.translate(b) >> page_shift,
              (vm.translate(a) >> page_shift) + 1);
    EXPECT_DEATH((void)vm.translate(a + page_size), "unmapped virtual");
    EXPECT_DEATH((void)vm.translate(a - page_size), "unmapped virtual");
    EXPECT_DEATH((void)vm.translate(b + page_size), "unmapped virtual");
}

TEST(VirtualMemoryDeathTest, WriteArrayIntoUnmappedPageIsFatal)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(page_size);
    ASSERT_EQ(a & (page_size - 1), 0u);
    // One element more than the single mapped page holds.
    EXPECT_DEATH(vm.writeArray<std::uint64_t>(
                     a, page_size / 8 + 1, [](std::uint64_t i) { return i; }),
                 "unmapped virtual");
}

// ------------------------------------------------------------ AddrMap

TEST(AddrMap, DecodeCoversAllComponents)
{
    AddrMap map(8, 16, 16, 8192);
    EXPECT_EQ(map.totalVaults(), 128u);
    // Consecutive blocks land on consecutive cubes first.
    const MemLoc l0 = map.decode(0);
    const MemLoc l1 = map.decode(64);
    EXPECT_NE(l0.cube, l1.cube);
    // All fields within range over random addresses.
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const MemLoc loc = map.decode(rng.below(1ULL << 35));
        EXPECT_LT(loc.cube, 8u);
        EXPECT_LT(loc.vault, 16u);
        EXPECT_LT(loc.bank, 16u);
        EXPECT_EQ(loc.globalVault, loc.cube * 16 + loc.vault);
    }
}

TEST(AddrMap, MaxAddressDecodesInBounds)
{
    // 64 MB over 1x4 vaults, 16 banks, 8 KB rows: the last backed
    // block must decode cleanly into the final row stripe.
    const std::uint64_t phys = 64ULL << 20;
    AddrMap map(1, 4, 16, 8192, phys);
    ASSERT_GT(map.rowLimit(), 0u);
    const MemLoc last = map.decode(phys - block_size);
    EXPECT_LT(last.row, map.rowLimit());
    // An unbounded map (phys_bytes = 0) never rejects an address.
    AddrMap unbounded(1, 4, 16, 8192);
    EXPECT_EQ(unbounded.rowLimit(), 0u);
    (void)unbounded.decode(~0ULL & ~63ULL);
}

#ifndef NDEBUG
TEST(AddrMapDeathTest, DecodePastEndOfMemoryPanics)
{
    const std::uint64_t phys = 64ULL << 20;
    AddrMap map(1, 4, 16, 8192, phys);
    EXPECT_DEATH((void)map.decode(phys),
                 "decodes past the end of memory");
}
#endif

TEST(AddrMap, BlocksSpreadAcrossVaults)
{
    AddrMap map(1, 16, 16, 8192);
    std::vector<int> counts(16, 0);
    for (Addr a = 0; a < 16 * 64 * 64; a += 64)
        ++counts[map.decode(a).vault];
    for (int c : counts)
        EXPECT_EQ(c, 64);
}

// --------------------------------------------------------------- DRAM

struct VaultFixture : public ::testing::Test
{
    VaultFixture() : map(1, 1, 16, 8192), vault(eq, cfg, map, 0, stats)
    {}

    Ticks
    doAccess(Addr paddr, bool write)
    {
        const Tick start = eq.now();
        bool done = false;
        vault.accessBlock(paddr, write, [&done] { done = true; });
        while (!done && eq.runOne()) {}
        EXPECT_TRUE(done);
        return eq.now() - start;
    }

    StatRegistry stats;
    EventQueue eq;
    AddrMap map;
    DramConfig cfg;
    Vault vault;
};

// Address helpers: with 16 banks low-interleaved, blocks with equal
// (blk % 16) share a bank; rows change every 128 same-bank blocks.
// 0x0 and 0x400 (blk 16): bank 0, row 0.  0x4000000: bank 0, far row.

TEST_F(VaultFixture, RowHitIsFasterThanRowMiss)
{
    const Ticks first = doAccess(0x0, false);  // empty row: tRCD + tCL
    const Ticks hit = doAccess(0x400, false);  // same bank+row: tCL
    // Far-apart row in the same bank: tRP + tRCD + tCL.
    const Ticks conflict = doAccess(0x4000000, false);
    EXPECT_LT(hit, first);
    EXPECT_LT(first, conflict);
    EXPECT_EQ(vault.rowHits(), 1u);
    EXPECT_EQ(vault.activates(), 2u);
}

TEST_F(VaultFixture, ExactTimingMatchesParameters)
{
    // Empty bank: tRCD (55) + tCL (55) + TSV burst (64 B at 16 GB/s
    // = 4 ns = 16 ticks).
    EXPECT_EQ(doAccess(0x0, false), 55u + 55u + 16u);
    // Row hit: tCL + burst.
    EXPECT_EQ(doAccess(0x400, false), 55u + 16u);
}

TEST_F(VaultFixture, BankParallelismOverlapsAccesses)
{
    // Two accesses to different banks overlap.
    int done = 0;
    const Tick start = eq.now();
    vault.accessBlock(0x0, false, [&done] { ++done; });
    vault.accessBlock(0x40, false, [&done] { ++done; }); // bank 1
    while (done < 2 && eq.runOne()) {}
    const Ticks both = eq.now() - start;
    // Overlapped: latency + one extra TSV burst, far less than 2x.
    EXPECT_LT(both, 2 * (55 + 55 + 16));
}

TEST_F(VaultFixture, FrFcfsPrefersRowHits)
{
    // First access opens row 0 of bank 0 and occupies the bank;
    // while it runs, queue a row-conflict request and then a
    // row-hit request.  FR-FCFS must service the younger hit first.
    std::vector<int> order;
    vault.accessBlock(0x0, false, [&order] { order.push_back(0); });
    vault.accessBlock(0x4000000, false,
                      [&order] { order.push_back(1); });
    vault.accessBlock(0x400, false, [&order] { order.push_back(2); });
    while (eq.runOne()) {}
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[1], 2); // the row hit overtakes the conflict
    EXPECT_EQ(order[2], 1);
}

TEST_F(VaultFixture, HighLoadDrainsCompletely)
{
    Rng rng(2);
    int done = 0;
    for (int i = 0; i < 2000; ++i)
        vault.accessBlock(64 * rng.below(1 << 20), rng.chance(0.3),
                          [&done] { ++done; });
    while (eq.runOne()) {}
    EXPECT_EQ(done, 2000);
    EXPECT_EQ(vault.reads() + vault.writes(), 2000u);
}

// ---------------------------------------------------------------- HMC

struct HmcFixture : public ::testing::Test
{
    HmcFixture() : map(2, 4, 16, 8192)
    {
        cfg.num_cubes = 2;
        cfg.vaults_per_cube = 4;
        hmc = std::make_unique<HmcBackend>(eq, cfg, stats);
    }

    StatRegistry stats;
    EventQueue eq;
    AddrMap map;
    HmcConfig cfg;
    std::unique_ptr<HmcBackend> hmc;
};

TEST_F(HmcFixture, ReadCostsOneRequestFiveResponseFlits)
{
    bool done = false;
    hmc->readBlock(0x1000, [&done] { done = true; });
    while (eq.runOne()) {}
    EXPECT_TRUE(done);
    EXPECT_EQ(stats.get("link0.flits"), 1u);  // 16 B request
    EXPECT_EQ(stats.get("link1.flits"), 5u);  // 80 B response
}

TEST_F(HmcFixture, WriteCostsFiveRequestFlitsNoResponse)
{
    bool done = false;
    hmc->writeBlock(0x1000, [&done] { done = true; });
    while (eq.runOne()) {}
    EXPECT_TRUE(done);
    EXPECT_EQ(stats.get("link0.flits"), 5u); // 80 B request
    EXPECT_EQ(stats.get("link1.flits"), 0u); // posted
}

TEST_F(HmcFixture, LinkSerializationBoundsThroughput)
{
    // 100 reads: response link must carry 100 x 80 B at 40 GB/s
    // (10 B/tick) => at least 800 ticks.
    int done = 0;
    for (int i = 0; i < 100; ++i)
        hmc->readBlock(64 * i * 977, [&done] { ++done; });
    while (eq.runOne()) {}
    EXPECT_EQ(done, 100);
    EXPECT_GE(eq.now(), 800u);
}

class EchoPim : public PimHandler
{
  public:
    void
    handle(PimPacket pkt, Respond respond) override
    {
        ++calls;
        respond(std::move(pkt));
    }
    int calls = 0;
};

TEST_F(HmcFixture, PimPacketsRouteToOwningVaultHandler)
{
    std::vector<EchoPim> handlers(hmc->totalVaults());
    for (unsigned v = 0; v < hmc->totalVaults(); ++v)
        hmc->attachPimHandler(v, &handlers[v]);

    Rng rng(4);
    int responses = 0;
    for (int i = 0; i < 200; ++i) {
        PimPacket pkt;
        pkt.op = 0;
        pkt.paddr = 64 * rng.below(1 << 20);
        pkt.input_size = 8;
        pkt.output_size = 8;
        const unsigned expect = map.decode(pkt.paddr).globalVault;
        const int before = handlers[expect].calls;
        hmc->sendPim(pkt, [&responses](PimPacket) { ++responses; });
        while (eq.runOne()) {}
        EXPECT_EQ(handlers[expect].calls, before + 1);
    }
    EXPECT_EQ(responses, 200);
}

TEST_F(HmcFixture, WriterPeiAckConsumesNoResponseBandwidth)
{
    EchoPim handler;
    for (unsigned v = 0; v < hmc->totalVaults(); ++v)
        hmc->attachPimHandler(v, &handler);
    PimPacket pkt;
    pkt.paddr = 0x40;
    pkt.input_size = 8;
    pkt.output_size = 0; // pure writer: posted ack
    bool done = false;
    hmc->sendPim(pkt, [&done](PimPacket) { done = true; });
    while (eq.runOne()) {}
    EXPECT_TRUE(done);
    EXPECT_EQ(stats.get("link1.flits"), 0u);
}

TEST(EmaCounter, HalvesEveryPeriod)
{
    EmaCounter ema(1000);
    ema.add(64, 0);
    EXPECT_DOUBLE_EQ(ema.value(0), 64.0);
    EXPECT_DOUBLE_EQ(ema.value(1000), 32.0);
    EXPECT_DOUBLE_EQ(ema.value(3000), 8.0);
    ema.add(8, 3000);
    EXPECT_DOUBLE_EQ(ema.value(3000), 16.0);
    EXPECT_DOUBLE_EQ(ema.value(4000), 8.0);
}

TEST(EmaCounter, ModerateGapMatchesRepeatedHalving)
{
    EmaCounter ema(1000);
    ema.add(64, 0);
    EXPECT_DOUBLE_EQ(ema.value(10000), 64.0 / 1024.0);
}

TEST(EmaCounter, LongIdleGapDecaysInConstantTime)
{
    // A multi-trillion-period idle gap: the closed-form decay must
    // evaluate instantly (the per-period halving loop would not
    // return within the lifetime of the test) and clamp to zero.
    EmaCounter ema(1000);
    ema.add(1u << 30, 0);
    const Tick far_future = 30'000'000'000'000'000ULL;
    EXPECT_DOUBLE_EQ(ema.value(far_future), 0.0);
    // The counter keeps working after the gap.
    ema.add(64, far_future);
    EXPECT_DOUBLE_EQ(ema.value(far_future), 64.0);
    EXPECT_DOUBLE_EQ(ema.value(far_future + 1000), 32.0);
}

TEST(EmaCounter, TinyResidueClampsToZero)
{
    // 2^-50 after 60 halvings of 1024 is below the 1e-12 floor; the
    // clamp keeps denormals out of the hot dispatch path.
    EmaCounter ema(1000);
    ema.add(1024, 0);
    EXPECT_DOUBLE_EQ(ema.value(60000), 0.0);
}

} // namespace
} // namespace pei
