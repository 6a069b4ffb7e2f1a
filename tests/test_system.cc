/**
 * @file
 * System-level property tests: determinism, configuration sweeps
 * (geometry / PCU / directory), PMU mode behaviour, balanced
 * dispatch, and regression cases for subtle orderings (pfence vs.
 * TLB-deferred PEIs).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "fixture.hh"
#include "runtime/report.hh"
#include "runtime/runtime.hh"

namespace pei
{
namespace
{

using fixture::smallConfig;

/** Runs a fixed random PEI/load/store mix; returns final tick. */
Tick
runMix(const SystemConfig &cfg, std::uint64_t seed,
       std::uint64_t *sum_out = nullptr)
{
    System sys(cfg);
    Runtime rt(sys);
    const std::uint64_t n = 1 << 12;
    const Addr arr = rt.allocArray<std::uint64_t>(n);
    rt.spawnThreads(sys.numCores(),
                    [&, seed](Ctx &ctx, unsigned tid, unsigned) -> Task {
                        Rng rng(seed * 97 + tid);
                        for (int i = 0; i < 2000; ++i) {
                            const Addr a = arr + 8 * rng.below(n);
                            if (rng.chance(0.5))
                                co_await ctx.inc64(a);
                            else if (rng.chance(0.5))
                                co_await ctx.loadAsync(a);
                            else
                                co_await ctx.storeAsync(a);
                        }
                        co_await ctx.pfence();
                        co_await ctx.drain();
                    });
    const Tick t = rt.run();
    // stats-v2 audit: every run must end with consistent accounting
    // (directory balance, PEI conservation, cache hit/miss totals).
    for (const auto &v : sys.stats().audit())
        ADD_FAILURE() << "stats audit: " << v;
    if (sum_out) {
        *sum_out = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            *sum_out += sys.memory().read<std::uint64_t>(arr + 8 * i);
    }
    return t;
}

TEST(SystemProperties, RuntimeKeepsSpawnedClosuresUntilRunReturns)
{
    // A coroutine lambda's frame refers to its closure, so a
    // capturing lambda passed as a temporary must stay alive until
    // its coroutines finish: the runtime holds a copy until run()
    // returns.  The shared_ptr's use count shows the copy is held.
    System sys(smallConfig());
    Runtime rt(sys);
    auto token = std::make_shared<std::uint64_t>(7);
    std::vector<std::uint64_t> seen(sys.numCores() + 1, 0);
    rt.spawnThreads(sys.numCores(),
                    [token, &seen](Ctx &ctx, unsigned tid, unsigned) -> Task {
                        co_await ctx.compute(10 + tid);
                        seen[tid] = *token;
                    });
    rt.spawn(0, [token, &seen](Ctx &ctx) -> Task {
        co_await ctx.compute(20);
        seen.back() = *token + 1;
    });
    EXPECT_EQ(token.use_count(), 3);
    rt.run();
    EXPECT_EQ(token.use_count(), 1);
    for (unsigned t = 0; t < sys.numCores(); ++t)
        EXPECT_EQ(seen[t], 7u) << "thread " << t;
    EXPECT_EQ(seen.back(), 8u);
}

TEST(SystemProperties, PeiLatencyHistogramsAndRunRecord)
{
    System sys(smallConfig(ExecMode::LocalityAware));
    Runtime rt(sys);
    const std::uint64_t n = 1 << 10;
    const Addr arr = rt.allocArray<std::uint64_t>(n);
    rt.spawnThreads(sys.numCores(),
                    [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
                        Rng rng(tid + 1);
                        for (int i = 0; i < 500; ++i)
                            co_await ctx.inc64(arr + 8 * rng.below(n));
                        co_await ctx.drain();
                    });
    rt.run();

    StatRegistry &st = sys.stats();
    ASSERT_TRUE(st.hasHistogram("pmu.pei_latency_ticks"));
    ASSERT_TRUE(st.hasHistogram("pmu.pei_latency_host_ticks"));
    ASSERT_TRUE(st.hasHistogram("pmu.pei_latency_mem_ticks"));
    ASSERT_TRUE(st.hasHistogram("pmu.dir_wait_ticks"));

    // Every issued PEI contributes exactly one end-to-end sample,
    // split disjointly by execution location.
    const Histogram &all = st.histogram("pmu.pei_latency_ticks");
    EXPECT_EQ(all.count(), st.get("pmu.peis_issued"));
    EXPECT_EQ(st.histogram("pmu.pei_latency_host_ticks").count() +
                  st.histogram("pmu.pei_latency_mem_ticks").count(),
              all.count());
    EXPECT_GT(all.count(), 0u);
    EXPECT_GT(all.mean(), 0.0);
    EXPECT_TRUE(st.audit().empty());

    // The exported run record carries the full stats-v2 shape.
    const std::string rec = runRecordJson(sys, 0.5, "test_system/mix");
    for (const char *field :
         {"\"label\"", "\"config\"", "\"sim_ticks\"", "\"events\"",
          "\"wall_seconds\"", "\"events_per_sec\"", "\"counters\"",
          "\"histograms\"", "\"pmu.pei_latency_ticks\"",
          "\"pmu.pei_latency_host_ticks\"",
          "\"pmu.pei_latency_mem_ticks\""})
        EXPECT_NE(rec.find(field), std::string::npos) << field;
}

TEST(SystemDeathTest, ShardsOtherThanOneIsFatal)
{
    SystemConfig cfg = smallConfig();
    cfg.shards = 4;
    EXPECT_DEATH({ System sys(cfg); }, "one event queue");
    cfg.shards = 0;
    EXPECT_DEATH({ System sys(cfg); }, "one event queue");
}

TEST(SystemProperties, FullyDeterministic)
{
    for (ExecMode mode : {ExecMode::HostOnly, ExecMode::PimOnly,
                          ExecMode::LocalityAware}) {
        const Tick a = runMix(smallConfig(mode), 5);
        const Tick b = runMix(smallConfig(mode), 5);
        EXPECT_EQ(a, b) << execModeName(mode);
    }
}

TEST(SystemProperties, DifferentSeedsStillSumExactly)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        std::uint64_t sum = 0;
        runMix(smallConfig(ExecMode::LocalityAware), seed, &sum);
        // Roughly half the 4 x 2000 ops are increments — and the
        // directory makes every one of them exact.
        EXPECT_GT(sum, 2000u);
        EXPECT_LT(sum, 8000u);
    }
}

class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(GeometrySweep, AtomicityHoldsAcrossMemoryGeometries)
{
    const auto [cubes, vaults] = GetParam();
    SystemConfig cfg = smallConfig(ExecMode::LocalityAware);
    cfg.hmc.num_cubes = cubes;
    cfg.hmc.vaults_per_cube = vaults;

    System sys(cfg);
    Runtime rt(sys);
    const Addr hot = rt.allocArray<std::uint64_t>(4);
    rt.spawnThreads(sys.numCores(),
                    [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
                        for (int i = 0; i < 300; ++i)
                            co_await ctx.inc64(hot + 8 * (tid % 4));
                        co_await ctx.drain();
                    });
    rt.run();
    std::uint64_t total = 0;
    for (int i = 0; i < 4; ++i)
        total += sys.memory().read<std::uint64_t>(hot + 8 * i);
    EXPECT_EQ(total, 300u * sys.numCores());
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeometrySweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u),
                                            ::testing::Values(1u, 2u,
                                                              8u)));

class PcuSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PcuSweep, OperandBufferSizePreservesCorrectness)
{
    SystemConfig cfg = smallConfig(ExecMode::PimOnly);
    cfg.pim.pcu.operand_buffer_entries = GetParam();
    std::uint64_t sum = 0;
    runMix(cfg, 7, &sum);
    SystemConfig cfg2 = smallConfig(ExecMode::PimOnly);
    cfg2.pim.pcu.operand_buffer_entries = 4;
    std::uint64_t ref = 0;
    runMix(cfg2, 7, &ref);
    EXPECT_EQ(sum, ref); // functional results independent of buffering
}

TEST_P(PcuSweep, MoreEntriesNeverSlowDown)
{
    SystemConfig small_buf = smallConfig(ExecMode::PimOnly);
    small_buf.pim.pcu.operand_buffer_entries = 1;
    SystemConfig big_buf = smallConfig(ExecMode::PimOnly);
    big_buf.pim.pcu.operand_buffer_entries = GetParam();
    if (GetParam() > 1) {
        EXPECT_LE(runMix(big_buf, 9), runMix(small_buf, 9));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PcuSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(SystemProperties, DirectorySizeDoesNotAffectResults)
{
    for (unsigned entries : {64u, 2048u, 0u /* ideal */}) {
        SystemConfig cfg = smallConfig(ExecMode::LocalityAware);
        cfg.pim.directory_entries = entries;
        std::uint64_t sum = 0;
        runMix(cfg, 11, &sum);
        std::uint64_t ref = 0;
        runMix(smallConfig(ExecMode::LocalityAware), 11, &ref);
        EXPECT_EQ(sum, ref) << entries;
    }
}

TEST(SystemProperties, ModesDifferInPlacementNotResults)
{
    std::uint64_t host_sum = 0, pim_sum = 0, la_sum = 0;
    runMix(smallConfig(ExecMode::HostOnly), 13, &host_sum);
    runMix(smallConfig(ExecMode::PimOnly), 13, &pim_sum);
    runMix(smallConfig(ExecMode::LocalityAware), 13, &la_sum);
    EXPECT_EQ(host_sum, pim_sum);
    EXPECT_EQ(host_sum, la_sum);
}

TEST(SystemProperties, HostOnlyNeverOffloadsPimOnlyAlwaysDoes)
{
    {
        System sys(smallConfig(ExecMode::HostOnly));
        Runtime rt(sys);
        const Addr a = rt.allocArray<std::uint64_t>(1024);
        rt.spawn(0, [&](Ctx &ctx) -> Task {
            for (int i = 0; i < 512; ++i)
                co_await ctx.inc64(a + 8 * (i * 2 % 1024));
            co_await ctx.drain();
        });
        rt.run();
        EXPECT_EQ(sys.pmu().peisMem(), 0u);
        EXPECT_EQ(sys.pmu().peisHost(), 512u);
    }
    {
        System sys(smallConfig(ExecMode::PimOnly));
        Runtime rt(sys);
        const Addr a = rt.allocArray<std::uint64_t>(1024);
        rt.spawn(0, [&](Ctx &ctx) -> Task {
            for (int i = 0; i < 512; ++i)
                co_await ctx.inc64(a + 8 * (i * 2 % 1024));
            co_await ctx.drain();
        });
        rt.run();
        EXPECT_EQ(sys.pmu().peisHost(), 0u);
        EXPECT_EQ(sys.pmu().peisMem(), 512u);
    }
}

TEST(SystemProperties, LocalityAwareSplitsByWorkingSet)
{
    // Tiny working set -> host; huge working set -> memory.
    auto pim_fraction = [](std::uint64_t words) {
        SystemConfig cfg = smallConfig(ExecMode::LocalityAware);
        System sys(cfg);
        Runtime rt(sys);
        const Addr a = rt.allocArray<std::uint64_t>(words);
        rt.spawnThreads(sys.numCores(),
                        [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
                            Rng rng(tid + 17);
                            for (int i = 0; i < 4000; ++i)
                                co_await ctx.inc64(a +
                                                   8 * rng.below(words));
                            co_await ctx.drain();
                        });
        rt.run();
        const double total = static_cast<double>(sys.pmu().peisHost() +
                                                 sys.pmu().peisMem());
        return static_cast<double>(sys.pmu().peisMem()) / total;
    };
    EXPECT_LT(pim_fraction(1 << 10), 0.15);  // 8 KB « 256 KB L3
    EXPECT_GT(pim_fraction(1 << 18), 0.60);  // 2 MB » 256 KB L3
}

TEST(SystemProperties, PfenceCoversTlbDeferredWriters)
{
    // Regression: a PEI whose issue is delayed by a TLB miss must
    // still be covered by a pfence issued right after it.
    SystemConfig cfg = smallConfig(ExecMode::PimOnly);
    cfg.core.tlb_entries = 1; // thrash the TLB
    System sys(cfg);
    Runtime rt(sys);
    // Counters spread across many pages.
    const Addr a = rt.allocArray<std::uint64_t>(1 << 16);
    bool checked = false;
    rt.spawn(0, [&](Ctx &ctx) -> Task {
        for (int i = 0; i < 64; ++i)
            co_await ctx.inc64(a + 4096 * i); // one per page
        co_await ctx.pfence();
        std::uint64_t sum = 0;
        for (int i = 0; i < 64; ++i)
            sum += ctx.fread<std::uint64_t>(a + 4096 * i);
        EXPECT_EQ(sum, 64u);
        checked = true;
        co_await ctx.drain();
    });
    rt.run();
    EXPECT_TRUE(checked);
}

TEST(SystemProperties, BalancedDispatchMovesTrafficToIdleLink)
{
    // A read-dominated PEI stream (EuclidDist: 72 B requests, 20 B
    // responses when offloaded; 80 B responses host-side).  With
    // balanced dispatch the request/response byte split must end up
    // strictly more even than without.
    auto imbalance = [](bool balanced) {
        SystemConfig cfg = smallConfig(ExecMode::LocalityAware);
        cfg.pim.balanced_dispatch = balanced;
        System sys(cfg);
        Runtime rt(sys);
        const std::uint64_t floats = 1 << 18; // 1 MB of points
        const Addr a = rt.allocArray<float>(floats);
        rt.spawnThreads(
            sys.numCores(),
            [&](Ctx &ctx, unsigned tid, unsigned n) -> Task {
                const std::uint64_t blocks = floats / 16;
                float center[16] = {};
                for (std::uint64_t b = tid; b < blocks; b += n) {
                    co_await ctx.peiAsync(PeiOpcode::EuclidDist,
                                          a + 64 * b, center,
                                          sizeof(center));
                }
                co_await ctx.drain();
            });
        rt.run();
        const double req =
            static_cast<double>(sys.mem().requestBytes());
        const double res =
            static_cast<double>(sys.mem().responseBytes());
        return std::max(req, res) / std::max(1.0, std::min(req, res));
    };
    EXPECT_LT(imbalance(true), imbalance(false));
}

TEST(SystemProperties, WindowLimitsInFlightOps)
{
    SystemConfig cfg = smallConfig(ExecMode::HostOnly);
    cfg.core.window = 2;
    System sys(cfg);
    Runtime rt(sys);
    const Addr a = rt.allocArray<std::uint64_t>(1 << 12);
    rt.spawn(0, [&](Ctx &ctx) -> Task {
        for (int i = 0; i < 256; ++i) {
            co_await ctx.loadAsync(a + 64 * (i % (1 << 6)));
            EXPECT_LE(ctx.core().inFlight(), 2u);
        }
        co_await ctx.drain();
        EXPECT_EQ(ctx.core().inFlight(), 0u);
    });
    rt.run();
    EXPECT_GT(sys.stats().get("core0.window_stalls"), 0u);
}

} // namespace
} // namespace pei
