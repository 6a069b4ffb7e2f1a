/**
 * @file
 * Directed tests for the topology-aware interconnect (src/net/) and
 * the address-partitioned (sharded) PMU.
 *
 * The interconnect suite pins hand-computed hop counts and arrival
 * ticks at the default timing (40 GB/s per link = 10 B/tick,
 * 2 ns = 8-tick propagation, 1 ns = 4-tick hop) so any routing or
 * serialization change shows up as an exact-tick diff.  The sharding
 * suite checks that bank-partitioned PMUs preserve the architectural
 * results and aggregate counters of the single shared PMU.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "net/interconnect.hh"
#include "runtime/runtime.hh"

namespace pei
{
namespace
{

NetConfig
netConfig(Topology t, unsigned cubes)
{
    NetConfig cfg;
    cfg.topology = t;
    cfg.cubes = cubes;
    return cfg; // defaults: 40 GB/s, 2 ns prop, 1 ns hop, 16 B flits
}

// ------------------------------------------------------------- chain

TEST(Interconnect, ChainMatchesDaisyChainFormula)
{
    // 16 B request from t=0: 2 ticks of serialization (16 B at
    // 10 B/tick), 8 ticks of propagation, 4 ticks per cube passed.
    for (unsigned c = 0; c < 8; ++c) {
        EventQueue eq;
        StatRegistry stats;
        Interconnect net(eq, netConfig(Topology::Chain, 8), stats);
        EXPECT_EQ(net.sendRequest(16, c), 2u + 8u + 4u * c);
        EXPECT_EQ(net.hopCount(c), c);
    }
}

TEST(Interconnect, ChainResponseSerializesWholePacket)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Chain, 8), stats);
    // 80 B response = 5 flits = 8 ticks on the wire, then 8 ticks of
    // propagation from cube 0.
    EXPECT_EQ(net.sendResponse(80, 0), 8u + 8u);
    EXPECT_EQ(net.responseFlits(), 5u);
    EXPECT_EQ(net.responseBytes(), 80u);
}

TEST(Interconnect, ChainBackpressureSerializesSharedLink)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Chain, 8), stats);
    // Two 80 B requests at t=0: the second waits for the first to
    // drain the request channel (8 ticks), then pays its own 8.
    EXPECT_EQ(net.sendRequest(80, 0), 8u + 8u);
    EXPECT_EQ(net.sendRequest(80, 0), 16u + 8u);
    // The channel was busy 16 ticks total.
    EXPECT_EQ(net.link(0).busyTicks(), 16u);
    EXPECT_EQ(net.link(0).flits(), 10u);
}

// -------------------------------------------------------------- ring

TEST(Interconnect, RingRoutesShortestDirection)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Ring, 8), stats);
    // min(c, 8-c), clockwise on the tie at c=4.
    const unsigned expect[] = {0, 1, 2, 3, 4, 3, 2, 1};
    for (unsigned c = 0; c < 8; ++c)
        EXPECT_EQ(net.hopCount(c), expect[c]) << "cube " << c;
    // Host link pair + 8 clockwise + 8 counter-clockwise edges.
    EXPECT_EQ(net.numLinks(), 18u);
}

TEST(Interconnect, RingArrivalHandComputed)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Ring, 4), stats);
    // 16 B request to cube 2 (2 clockwise hops), store-and-forward:
    //   host link: 2 serialize + 8 prop   -> 10
    //   edge 0->1: 2 serialize + 4 hop    -> 16
    //   edge 1->2: 2 serialize + 4 hop    -> 22
    EXPECT_EQ(net.sendRequest(16, 2), 22u);
    // A posted ack from cube 2 skips serialization: 8 + 2*4.
    EXPECT_EQ(net.ackLatency(2), 16u);
}

// -------------------------------------------------------------- mesh

TEST(Interconnect, MeshXyRoutingHopCounts)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Mesh, 8), stats);
    // 8 cubes = 4x2 grid; hops = col + row under XY routing.
    const unsigned expect[] = {0, 1, 2, 3, 1, 2, 3, 4};
    for (unsigned c = 0; c < 8; ++c)
        EXPECT_EQ(net.hopCount(c), expect[c]) << "cube " << c;
    // Host pair + 2*(3*2 horizontal + 4*1 vertical) directed edges.
    EXPECT_EQ(net.numLinks(), 22u);
}

TEST(Interconnect, MeshColsPins)
{
    EXPECT_EQ(meshCols(1), 1u);
    EXPECT_EQ(meshCols(2), 2u);
    EXPECT_EQ(meshCols(4), 2u);
    EXPECT_EQ(meshCols(8), 4u);
    EXPECT_EQ(meshCols(16), 4u);
}

TEST(Interconnect, MeshArrivalHandComputed)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Mesh, 4), stats);
    // 2x2 grid, 16 B request to cube 3 (east then south, 2 hops):
    // 10 (host) + 6 (edge 0->1) + 6 (edge 1->3) = 22.
    EXPECT_EQ(net.sendRequest(16, 3), 22u);
}

// --------------------------------------------- counters / invariants

TEST(Interconnect, InjectedCountersCountPacketsOnce)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Mesh, 4), stats);
    net.sendRequest(16, 3); // crosses 3 links (host + 2 mesh edges)
    EXPECT_EQ(net.requestFlits(), 1u);
    EXPECT_EQ(stats.get("net.req.flits"), 1u);
    EXPECT_EQ(stats.get("net.req_hops"), 2u);
    std::uint64_t per_link = 0;
    for (unsigned i = 0; i < net.numLinks(); ++i)
        per_link += net.link(i).flits();
    EXPECT_EQ(per_link, 3u);
    // The per-link-vs-traversal conservation invariant holds.
    EXPECT_TRUE(stats.audit().empty());
}

// --------------------------------------------------- PMU sharding

struct ShardOutcome
{
    std::vector<std::uint64_t> array;
    std::uint64_t peis = 0;
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    std::uint64_t lookups = 0;
};

/**
 * A deterministic PEI-heavy workload (random inc64 bursts with a
 * pfence between bursts) on @p pmu_shards PMU banks; returns the
 * architectural result plus the cross-bank counter totals.
 */
ShardOutcome
runBanked(unsigned pmu_shards)
{
    SystemConfig cfg = SystemConfig::scaled(ExecMode::LocalityAware);
    cfg.cores = 4;
    cfg.phys_bytes = 64ULL << 20;
    cfg.hmc.vaults_per_cube = 4;
    cfg.pim.pmu_shards = pmu_shards;
    System sys(cfg);
    Runtime rt(sys);
    const unsigned n = 1 << 10;
    const Addr a = rt.allocArray<std::uint64_t>(n);
    rt.spawnThreads(4, [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
        Rng rng(tid + 1);
        for (int burst = 0; burst < 4; ++burst) {
            for (int i = 0; i < 400; ++i)
                co_await ctx.inc64(a + 8 * rng.below(n));
            co_await ctx.pfence();
        }
        co_await ctx.drain();
    });
    rt.run();

    EXPECT_TRUE(sys.stats().audit().empty())
        << "stats audit failed at pmu_shards=" << pmu_shards;

    ShardOutcome out;
    out.array.resize(n);
    sys.memory().readBytes(a, out.array.data(), 8ULL * n);
    out.peis = sys.pmu().peisHost() + sys.pmu().peisMem();
    EXPECT_EQ(sys.pmu().pmuShards(), pmu_shards);
    for (unsigned s = 0; s < sys.pmu().pmuShards(); ++s) {
        out.acquires += sys.pmu().directoryBank(s).acquires();
        out.releases += sys.pmu().directoryBank(s).releases();
        out.lookups += sys.pmu().monitorBank(s).lookups();
    }
    return out;
}

TEST(PmuSharding, BanksPreserveArchitecturalResults)
{
    const ShardOutcome base = runBanked(1);
    EXPECT_EQ(base.peis, 4u * 4u * 400u);
    EXPECT_EQ(base.acquires, base.releases);
    for (const unsigned banks : {2u, 4u}) {
        const ShardOutcome sharded = runBanked(banks);
        EXPECT_EQ(sharded.array, base.array) << banks << " banks";
        EXPECT_EQ(sharded.peis, base.peis) << banks << " banks";
        // Partitioning moves lookups/acquires between banks but must
        // not create or drop any.
        EXPECT_EQ(sharded.acquires, base.acquires) << banks << " banks";
        EXPECT_EQ(sharded.releases, base.releases) << banks << " banks";
        EXPECT_EQ(sharded.lookups, base.lookups) << banks << " banks";
    }
}

TEST(PmuSharding, ShardedStatsUseBankPrefixes)
{
    SystemConfig cfg = SystemConfig::scaled(ExecMode::LocalityAware);
    cfg.cores = 2;
    cfg.phys_bytes = 64ULL << 20;
    cfg.pim.pmu_shards = 2;
    System sys(cfg);
    EXPECT_TRUE(sys.stats().has("pmu0.pim_dir.acquires"));
    EXPECT_TRUE(sys.stats().has("pmu1.loc_mon.lookups"));
    EXPECT_FALSE(sys.stats().has("pim_dir.acquires"));

    SystemConfig one = SystemConfig::scaled(ExecMode::LocalityAware);
    one.cores = 2;
    one.phys_bytes = 64ULL << 20;
    System legacy(one);
    EXPECT_TRUE(legacy.stats().has("pim_dir.acquires"));
    EXPECT_FALSE(legacy.stats().has("pmu0.pim_dir.acquires"));
}

} // namespace
} // namespace pei
