/**
 * @file
 * Serving-layer tests: traffic-generator statistics and determinism,
 * bounded multi-tenant queue policies (FIFO order, weighted-fair
 * shares, shed-on-overflow), and end-to-end Server runs — identical
 * request traces and summaries across repeat runs, plus
 * shed/conservation accounting and closed-loop completion.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fixture.hh"
#include "runtime/runtime.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "workloads/input_cache.hh"

namespace pei
{
namespace
{

TrafficConfig
openCfg(double rate, std::uint64_t requests = 2048)
{
    TrafficConfig cfg;
    cfg.mode = TrafficMode::OpenPoisson;
    cfg.offered_per_mtick = rate;
    cfg.requests = requests;
    cfg.seed = 11;
    cfg.kind_domain[0] = 1024;
    cfg.kind_domain[1] = 512;
    cfg.kind_domain[2] = 128;
    return cfg;
}

/** Mean and squared coefficient of variation of the inter-arrivals. */
void
interarrivalStats(const TrafficPlan &plan, double &mean, double &cv2)
{
    std::vector<double> gaps;
    Tick prev = 0;
    for (const Request &r : plan.requests) {
        gaps.push_back(static_cast<double>(r.arrival_tick - prev));
        prev = r.arrival_tick;
    }
    double sum = 0.0;
    for (double g : gaps)
        sum += g;
    mean = sum / static_cast<double>(gaps.size());
    double var = 0.0;
    for (double g : gaps)
        var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    cv2 = var / (mean * mean);
}

TEST(Traffic, PoissonMeanInterarrivalMatchesRate)
{
    // 100 arrivals per Mtick -> mean gap 10'000 ticks.  4096 samples
    // put the sample mean within a few percent of the target; the
    // fixed seed makes the bound exact-repeatable, not flaky.
    const auto plan = planTraffic(openCfg(100.0, 4096), {TenantTraffic{}});
    ASSERT_EQ(plan.requests.size(), 4096u);
    double mean = 0.0, cv2 = 0.0;
    interarrivalStats(plan, mean, cv2);
    EXPECT_NEAR(mean, 10'000.0, 500.0);
    // Exponential gaps: CV^2 ~ 1.
    EXPECT_NEAR(cv2, 1.0, 0.15);
}

TEST(Traffic, PoissonArrivalsStrictlyIncrease)
{
    const auto plan = planTraffic(openCfg(400.0), {TenantTraffic{}});
    Tick prev = 0;
    for (const Request &r : plan.requests) {
        EXPECT_GT(r.arrival_tick, prev);
        prev = r.arrival_tick;
    }
}

TEST(Traffic, PlanIsDeterministic)
{
    const std::vector<TenantTraffic> tenants{TenantTraffic{},
                                             TenantTraffic{}};
    const auto a = planTraffic(openCfg(200.0), tenants);
    const auto b = planTraffic(openCfg(200.0), tenants);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].arrival_tick, b.requests[i].arrival_tick);
        EXPECT_EQ(a.requests[i].tenant, b.requests[i].tenant);
        EXPECT_EQ(a.requests[i].kind, b.requests[i].kind);
        EXPECT_EQ(a.requests[i].param, b.requests[i].param);
    }
}

TEST(Traffic, BurstyIsBurstierThanPoisson)
{
    TrafficConfig cfg = openCfg(200.0, 4096);
    double mean_p = 0.0, cv2_p = 0.0;
    interarrivalStats(planTraffic(cfg, {TenantTraffic{}}), mean_p, cv2_p);

    cfg.mode = TrafficMode::OpenBursty;
    double mean_b = 0.0, cv2_b = 0.0;
    interarrivalStats(planTraffic(cfg, {TenantTraffic{}}), mean_b, cv2_b);

    // The MMPP-2 keeps the long-run rate in the same ballpark but
    // concentrates arrivals into high-rate phases: the inter-arrival
    // CV^2 must be clearly super-Poisson.
    EXPECT_GT(cv2_b, 2.0 * cv2_p);
    EXPECT_NEAR(mean_b, mean_p, 0.5 * mean_p);
}

TEST(Traffic, ClosedLoopPlanShape)
{
    TrafficConfig cfg = openCfg(100.0);
    cfg.mode = TrafficMode::ClosedLoop;
    cfg.clients = 4;
    cfg.requests_per_client = 8;
    const std::vector<TenantTraffic> tenants{TenantTraffic{},
                                             TenantTraffic{}};
    const auto plan = planTraffic(cfg, tenants);
    ASSERT_EQ(plan.requests.size(), 32u);
    ASSERT_EQ(plan.clients.size(), 4u);
    for (unsigned c = 0; c < 4; ++c) {
        ASSERT_EQ(plan.clients[c].size(), 8u);
        for (const ClientStep &s : plan.clients[c]) {
            EXPECT_GE(s.think, 1u);
            // Clients stay on one tenant (round-robin assignment).
            EXPECT_EQ(plan.requests[s.request].tenant, c % 2);
        }
    }
}

// ---------------------------------------------------------- queues

std::vector<Request>
makeRequests(unsigned n, unsigned tenants)
{
    std::vector<Request> rs(n);
    for (unsigned i = 0; i < n; ++i) {
        rs[i].id = i;
        rs[i].tenant = i % tenants;
        rs[i].enqueue_tick = i; // arrival order == id order
    }
    return rs;
}

TEST(TenantQueues, FifoPopsGlobalArrivalOrder)
{
    const std::vector<TenantTraffic> tenants{TenantTraffic{},
                                             TenantTraffic{}};
    TenantQueues q(tenants, SchedPolicy::Fifo);
    auto rs = makeRequests(10, 2);
    for (auto &r : rs)
        ASSERT_TRUE(q.push(&r));
    for (unsigned i = 0; i < 10; ++i) {
        Request *r = q.pop();
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->id, i);
    }
    EXPECT_EQ(q.pop(), nullptr);
}

TEST(TenantQueues, ShedsAtCap)
{
    TenantTraffic t;
    t.queue_cap = 2;
    TenantQueues q({t}, SchedPolicy::Fifo);
    auto rs = makeRequests(3, 1);
    EXPECT_TRUE(q.push(&rs[0]));
    EXPECT_TRUE(q.push(&rs[1]));
    EXPECT_FALSE(q.push(&rs[2])); // over cap: shed
    EXPECT_EQ(q.queued(), 2u);
    q.pop();
    EXPECT_TRUE(q.push(&rs[2])); // room again after a pop
}

TEST(TenantQueues, WeightedFairHonoursWeights)
{
    // Tenant 0 at weight 3, tenant 1 at weight 1, both permanently
    // backlogged: admissions must interleave ~3:1, not alternate.
    TenantTraffic t0, t1;
    t0.weight = 3.0;
    t1.weight = 1.0;
    t0.queue_cap = t1.queue_cap = 64;
    TenantQueues q({t0, t1}, SchedPolicy::WeightedFair);
    std::vector<Request> rs(64);
    for (unsigned i = 0; i < 64; ++i) {
        rs[i].id = i;
        rs[i].tenant = i % 2;
        rs[i].enqueue_tick = 0;
        ASSERT_TRUE(q.push(&rs[i]));
    }
    unsigned from0 = 0;
    for (unsigned i = 0; i < 32; ++i) {
        Request *r = q.pop();
        ASSERT_NE(r, nullptr);
        from0 += r->tenant == 0;
    }
    // 3:1 over 32 admissions -> 24 from tenant 0 (±1 for phasing).
    EXPECT_GE(from0, 23u);
    EXPECT_LE(from0, 25u);
}

// ------------------------------------------------------- end to end

ServeConfig
serveCfg(TrafficMode mode, double rate, std::uint64_t requests)
{
    ServeConfig scfg;
    scfg.state.table_rows = 512;
    scfg.state.probe_universe = 1024;
    scfg.state.probes_per_request = 4;
    scfg.state.vertices = 256;
    scfg.state.edges = 2048;
    scfg.state.points = 256;
    scfg.state.queries = 64;
    scfg.state.knn_window = 16;
    scfg.tenants.clear();
    TenantTraffic t0, t1;
    t0.weight = 3.0;
    t0.arrival_share = 0.65;
    t1.weight = 1.0;
    t1.arrival_share = 0.35;
    scfg.tenants = {t0, t1};
    scfg.workers = 4;
    scfg.batch_max = 2;
    scfg.traffic.mode = mode;
    scfg.traffic.offered_per_mtick = rate;
    scfg.traffic.requests = requests;
    scfg.traffic.seed = 5;
    return scfg;
}

struct ServeRun
{
    std::string trace;
    std::string summary_json;
    ServingSummary summary;
};

ServeRun
runServe(const ServeConfig &scfg, unsigned shards = 1)
{
    SystemConfig cfg = fixture::smallConfig();
    cfg.shards = shards;
    System sys(cfg);
    Runtime rt(sys);
    Server server(sys, scfg);
    server.setup(rt);
    server.start(rt);
    rt.run();

    std::string msg;
    EXPECT_TRUE(server.validate(sys, msg)) << msg;
    EXPECT_TRUE(sys.stats().audit().empty());

    ServeRun out;
    out.trace = server.requestTrace();
    out.summary_json = server.summaryJson();
    out.summary = server.summary();
    return out;
}

TEST(Server, OpenLoopCompletesAndConserves)
{
    const ServeRun r =
        runServe(serveCfg(TrafficMode::OpenPoisson, 200.0, 128));
    EXPECT_EQ(r.summary.arrivals, 128u);
    EXPECT_EQ(r.summary.arrivals, r.summary.accepted + r.summary.shed);
    EXPECT_EQ(r.summary.completed, r.summary.accepted);
    EXPECT_GT(r.summary.completed, 0u);
    EXPECT_GE(r.summary.p99, r.summary.p50);
    ASSERT_EQ(r.summary.tenants.size(), 2u);
    for (const TenantSummary &t : r.summary.tenants)
        EXPECT_GT(t.completed, 0u);
}

TEST(Server, RepeatRunsAreBitIdentical)
{
    const ServeConfig scfg = serveCfg(TrafficMode::OpenPoisson, 400.0, 96);
    const ServeRun a = runServe(scfg);
    const ServeRun b = runServe(scfg);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.summary_json, b.summary_json);
}

TEST(Server, ShardsOneMatchesSequentialAndShardsFourIsStable)
{
    const ServeConfig scfg = serveCfg(TrafficMode::OpenPoisson, 400.0, 96);
    // A System runs on one event queue.  Setting shards = 1 explicitly
    // (the only accepted value) serves byte-identically to a default
    // config.
    System seq_sys(fixture::smallConfig());
    Runtime rt(seq_sys);
    Server server(seq_sys, scfg);
    server.setup(rt);
    server.start(rt);
    rt.run();
    const ServeRun s1 = runServe(scfg, 1);
    EXPECT_EQ(server.requestTrace(), s1.trace);
    EXPECT_EQ(server.summaryJson(), s1.summary_json);

    // Any other shard count is refused before a request is served, on
    // every attempt.
    for (int attempt = 0; attempt < 2; ++attempt)
        EXPECT_DEATH(runServe(scfg, 4), "one event queue");
}

TEST(Server, OverloadShedsAndStaysBounded)
{
    ServeConfig scfg = serveCfg(TrafficMode::OpenPoisson, 20'000.0, 192);
    for (TenantTraffic &t : scfg.tenants)
        t.queue_cap = 4;
    const ServeRun r = runServe(scfg);
    EXPECT_GT(r.summary.shed, 0u);
    EXPECT_EQ(r.summary.arrivals, r.summary.accepted + r.summary.shed);
    EXPECT_EQ(r.summary.completed, r.summary.accepted);
    EXPECT_LT(r.summary.achieved_per_mtick, r.summary.offered_per_mtick);
}

TEST(Server, ClosedLoopCompletesEveryClientRequest)
{
    ServeConfig scfg = serveCfg(TrafficMode::ClosedLoop, 100.0, 0);
    scfg.traffic.clients = 4;
    scfg.traffic.requests_per_client = 8;
    scfg.traffic.think_mean_ticks = 2'000;
    const ServeRun r = runServe(scfg);
    EXPECT_EQ(r.summary.arrivals, 32u);
    EXPECT_EQ(r.summary.completed, 32u);
    EXPECT_EQ(r.summary.shed, 0u);
}

TEST(Server, BurstyOpenLoopValidates)
{
    const ServeRun r =
        runServe(serveCfg(TrafficMode::OpenBursty, 300.0, 128));
    EXPECT_EQ(r.summary.arrivals, 128u);
    EXPECT_EQ(r.summary.completed, r.summary.accepted);
}

TEST(Server, FifoAndWfqServeSamePopulation)
{
    ServeConfig scfg = serveCfg(TrafficMode::OpenPoisson, 2'000.0, 128);
    scfg.policy = SchedPolicy::Fifo;
    const ServeRun fifo = runServe(scfg);
    scfg.policy = SchedPolicy::WeightedFair;
    const ServeRun wfq = runServe(scfg);
    EXPECT_EQ(fifo.summary.arrivals, wfq.summary.arrivals);
    EXPECT_EQ(fifo.summary.completed + fifo.summary.shed,
              wfq.summary.completed + wfq.summary.shed);
}

} // namespace
} // namespace pei
