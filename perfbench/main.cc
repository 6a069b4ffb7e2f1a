/**
 * @file
 * The repo benchmark: drives the simulator through its public API
 * (System/Runtime, Workload, Server, StatRegistry, computeEnergy) on
 * three seeded workloads and prints end-to-end metrics (untraced) or
 * per-layer metrics (traced) as one JSON line.  See README.md for the
 * workloads, the metric table and the A/B procedure.
 *
 *   perfbench --workload pagerank|hashjoin|serve --seed N --seconds S
 *             --trace 0|1 [--trace-out PATH] [--commit SHA]
 *   perfbench --self-test
 *
 * One simulation runs at a time on one host thread, on the sequential
 * engine (shards = 1); modelled caches start empty in every
 * simulation.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_array.hh"
#include "common/rng.hh"
#include "driver/sim_job.hh"
#include "energy/energy_model.hh"
#include "mem/vmem.hh"
#include "pim/locality_monitor.hh"
#include "pim/pim_directory.hh"
#include "runtime/runtime.hh"
#include "serve/server.hh"
#include "workloads/analytics.hh"
#include "workloads/input_cache.hh"
#include "workloads/workload.hh"

using namespace pei;

namespace
{

// ---------------------------------------------------------------- inputs

/** Table 3 large R-MAT graph: ~36 MB, 36x the scaled 1 MB L3. */
constexpr std::uint64_t pr_vertices = 524288;
constexpr std::uint64_t pr_edges = 2621440;
constexpr unsigned pr_iterations = 1;

/** Large hash-join build table (~6 MB) and a long probe stream. */
constexpr std::uint64_t hj_build_rows = 262144;
constexpr std::uint64_t hj_probe_rows = 1048576;

/**
 * Offered serving rates (requests per million ticks).  The highest is
 * the last one that sheds no request on any seed tried; past it the
 * 64-deep tenant queues overflow.
 */
constexpr double serve_rates[] = {800, 1100, 1400};
constexpr unsigned serve_mid = 1; ///< rate whose sim feeds layer stats
constexpr std::uint64_t serve_requests = 32768; ///< per rate
constexpr double serve_slo_ticks = 100000;      ///< p99 limit

constexpr std::uint64_t default_seed = 1;
constexpr std::uint64_t heldout_seed = 20151;

/** A run repeats the workload while another repetition fits in
 *  --seconds, and at least this many times; set-up is sampled at least
 *  setup_samples times (extra samples set up without running). */
constexpr unsigned min_reps = 2;
constexpr unsigned setup_samples = 5;

enum class Kind
{
    PageRank,
    HashJoin,
    Serve,
};

bool
parseKind(const std::string &s, Kind &k)
{
    if (s == "pagerank")
        k = Kind::PageRank;
    else if (s == "hashjoin")
        k = Kind::HashJoin;
    else if (s == "serve")
        k = Kind::Serve;
    else
        return false;
    return true;
}

const char *
kindLabel(Kind k)
{
    switch (k) {
      case Kind::PageRank: return "pagerank";
      case Kind::HashJoin: return "hashjoin";
      case Kind::Serve: return "serve";
    }
    return "?";
}

// ---------------------------------------------------------------- helpers

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile of ascending @p v (p in [0, 1]). */
double
percentile(const std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    const double r = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(r);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (r - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** FNV-1a 64 over @p s, folded into @p h. */
std::uint64_t
fnv(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------- tracing

/** In-memory span and progress recorder for the traced run. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start, end;
        int parent;
        int sim;
    };

    struct Progress
    {
        int sim;
        double host_s;
        Tick tick;
        std::uint64_t events;
        std::size_t pending;
    };

    int
    begin(const std::string &name)
    {
        spans.push_back({name, hostNow() - origin, 0.0,
                         open.empty() ? -1 : open.back(), sim});
        open.push_back(static_cast<int>(spans.size()) - 1);
        return open.back();
    }

    void
    end(int id)
    {
        spans[id].end = hostNow() - origin;
        open.pop_back();
    }

    /** Total seconds of every span named @p name. */
    double
    total(const std::string &name) const
    {
        double t = 0.0;
        for (const Span &s : spans)
            if (s.name == name)
                t += s.end - s.start;
        return t;
    }

    std::string
    json(const std::string &workload, std::uint64_t seed) const
    {
        std::ostringstream os;
        os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
           << ",\"spans\":[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
               << s.name << "\",\"start_s\":" << jsonNum(s.start)
               << ",\"end_s\":" << jsonNum(s.end)
               << ",\"parent\":" << s.parent << ",\"sim\":" << s.sim << "}";
        }
        os << "],\"progress\":[";
        for (std::size_t i = 0; i < progress.size(); ++i) {
            const Progress &p = progress[i];
            os << (i ? ",\n" : "\n") << "{\"sim\":" << p.sim
               << ",\"host_s\":" << jsonNum(p.host_s - origin)
               << ",\"tick\":" << p.tick << ",\"events\":" << p.events
               << ",\"pending\":" << p.pending << "}";
        }
        os << "]}\n";
        return os.str();
    }

    int sim = -1; ///< id of the simulation being traced
    std::vector<Progress> progress;
    std::vector<Span> spans;

  private:
    double origin = hostNow();
    std::vector<int> open;
};

/** Events between two progress samples of a traced simulation. */
constexpr std::uint64_t progress_every = 1 << 18;

Tracer *tracer = nullptr; ///< non-null only in the traced run

/** Span around one public call; a no-op when tracing is off. */
class SpanGuard
{
  public:
    explicit SpanGuard(const char *name)
        : id(tracer ? tracer->begin(name) : -1)
    {}
    ~SpanGuard()
    {
        if (tracer)
            tracer->end(id);
    }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    int id;
};

// ---------------------------------------------------------------- one sim

/** Request latency records of one serving simulation. */
struct ServeRecord
{
    double rate = 0.0;
    std::uint64_t shed = 0;
    std::uint64_t requests = 0;
    std::vector<double> total;   ///< retire - planned arrival
    std::vector<double> queue;   ///< admit - enqueue
    std::vector<double> service; ///< retire - dispatch
    double lag_max = 0.0;        ///< max enqueue - planned arrival
    double plan_s = 0.0;         ///< traced run only
};

/** Everything measured about one simulation. */
struct SimResult
{
    std::string label;
    bool ok = false;
    std::string error;

    double setup_s = 0.0; ///< before the first event
    double run_s = 0.0;   ///< Runtime::run
    double wall_s = 0.0;  ///< whole simulation

    Tick ticks = 0;
    std::uint64_t events = 0;
    std::uint64_t retired_ops = 0;
    std::uint64_t offchip_bytes = 0;
    double energy_pj = 0.0;
    std::uint64_t footprint = 0; ///< simulated bytes allocated
    std::map<std::string, std::uint64_t> stats;

    // From the program's log2 latency histograms (ticks).
    double pei_mean = 0.0, pei_p50 = 0.0, pei_p99 = 0.0;
    double dir_wait_p99 = 0.0, read_p99 = 0.0, pim_roundtrip_p99 = 0.0;

    ServeRecord serve; ///< serving simulations only
};

SystemConfig
benchConfig()
{
    SystemConfig cfg = SystemConfig::scaled(ExecMode::LocalityAware);
    cfg.shards = 1;
    return cfg;
}

ServeConfig
serveConfig(double rate, std::uint64_t seed)
{
    // fig13's base: two tenants at 3:1 WFQ, 64-deep queues.
    ServeConfig scfg;
    TenantTraffic t0;
    t0.weight = 3.0;
    t0.arrival_share = 0.65;
    t0.queue_cap = 64;
    TenantTraffic t1;
    t1.weight = 1.0;
    t1.arrival_share = 0.35;
    t1.queue_cap = 64;
    scfg.tenants = {t0, t1};
    scfg.policy = SchedPolicy::WeightedFair;
    scfg.workers = 8;
    scfg.batch_max = 4;
    scfg.traffic.mode = TrafficMode::OpenPoisson;
    scfg.traffic.requests = serve_requests;
    scfg.traffic.offered_per_mtick = rate;
    scfg.traffic.seed = seed;
    scfg.state.seed = seed;
    return scfg;
}

std::unique_ptr<Workload>
makeBatch(Kind k, std::uint64_t seed)
{
    if (k == Kind::PageRank)
        return makePageRank(pr_vertices, pr_edges, seed, pr_iterations);
    return std::make_unique<HashJoinWorkload>(hj_build_rows, hj_probe_rows,
                                              seed);
}

/** Audit, then snapshot counters and the histogram values we report. */
void
collect(System &sys, SimResult &r)
{
    SpanGuard span("runtime.collect");
    const auto violations = sys.stats().audit();
    if (!violations.empty()) {
        r.ok = false;
        r.error += (r.error.empty() ? "" : "; ") + r.label +
                   " stats audit failed:";
        for (const auto &v : violations)
            r.error += " [" + v + "]";
    }
    r.ticks = sys.now();
    r.events = sys.eventQueue().executedCount();
    for (unsigned c = 0; c < sys.numCores(); ++c)
        r.retired_ops += sys.core(c).retiredOps();
    r.offchip_bytes = sys.mem().requestBytes() + sys.mem().responseBytes();
    r.energy_pj = computeEnergy(sys.stats()).total();
    r.footprint = sys.memory().allocatedBytes();
    r.stats = sys.stats().snapshot();
    const StatRegistry &st = sys.stats();
    const auto pct = [&](const char *name, double p) {
        return st.histogram(name).percentile(p);
    };
    r.pei_mean = st.histogram("pmu.pei_latency_ticks").mean();
    r.pei_p50 = pct("pmu.pei_latency_ticks", 0.50);
    r.pei_p99 = pct("pmu.pei_latency_ticks", 0.99);
    r.dir_wait_p99 = pct("pmu.dir_wait_ticks", 0.99);
    r.read_p99 = pct("hmc.read_ticks", 0.99);
    r.pim_roundtrip_p99 = pct("hmc.pim_roundtrip_ticks", 0.99);
}

void
recordServe(const Server &server, double rate, ServeRecord &rec)
{
    rec.rate = rate;
    for (const Request &q : server.requests()) {
        ++rec.requests;
        if (q.shed) {
            ++rec.shed;
            continue;
        }
        rec.total.push_back(static_cast<double>(q.retire_tick -
                                                q.arrival_tick));
        rec.queue.push_back(static_cast<double>(q.queueWait()));
        rec.service.push_back(static_cast<double>(q.serviceTicks()));
        rec.lag_max = std::max(
            rec.lag_max,
            static_cast<double>(q.enqueue_tick - q.arrival_tick));
    }
    std::sort(rec.total.begin(), rec.total.end());
    std::sort(rec.queue.begin(), rec.queue.end());
    std::sort(rec.service.begin(), rec.service.end());
}

/**
 * Run one simulation: input generation, System build, setup, run,
 * validate, audit.  @p rate < 0 selects the batch workload of @p k.
 * With @p setup_only the simulation is built and set up but not run.
 */
SimResult
runSim(Kind k, std::uint64_t seed, double rate, bool setup_only = false)
{
    SimResult r;
    r.label = rate < 0 ? kindLabel(k)
                       : std::string("serve/r") +
                             std::to_string(static_cast<int>(rate));
    SpanGuard sim_span("sim");
    // Memoized inputs would hide input generation after the first
    // simulation; every simulation pays it, as a single user run does.
    clearInputCache();
    const double t0 = hostNow();

    std::unique_ptr<System> sys;
    std::unique_ptr<Runtime> rt;
    {
        SpanGuard span("runtime.build");
        sys = std::make_unique<System>(benchConfig());
        rt = std::make_unique<Runtime>(*sys);
    }
    std::unique_ptr<Workload> w;
    std::unique_ptr<Server> server;
    {
        SpanGuard span("workloads.setup");
        if (rate < 0) {
            w = makeBatch(k, seed);
            w->setup(*rt);
            w->spawn(*rt, sys->numCores());
        } else {
            server = std::make_unique<Server>(*sys, serveConfig(rate, seed));
            server->setup(*rt);
            server->start(*rt);
        }
    }
    const double t1 = hostNow();
    r.setup_s = t1 - t0;
    if (setup_only)
        return r;

    if (tracer) {
        Tracer *t = tracer;
        EventQueue &eq = sys->eventQueue();
        eq.setBoundaryProbe(
            [t, &eq] {
                t->progress.push_back({t->sim, hostNow(), eq.now(),
                                       eq.executedCount(), eq.size()});
            },
            progress_every);
    }
    {
        SpanGuard span("runtime.run");
        rt->run();
    }
    r.run_s = hostNow() - t1;
    sys->eventQueue().setBoundaryProbe(nullptr);

    std::string msg;
    {
        SpanGuard span("workloads.validate");
        r.ok = w ? w->validate(*sys, msg) : server->validate(*sys, msg);
    }
    if (!r.ok)
        r.error = r.label + " validation failed: " + msg;
    collect(*sys, r);
    if (server)
        recordServe(*server, rate, r.serve);
    if (server && tracer) {
        // Server::setup plans inside; time the planner alone here.
        const double p0 = hostNow();
        const TrafficPlan plan =
            planTraffic(server->config().traffic, server->config().tenants);
        r.serve.plan_s = hostNow() - p0;
    }
    r.wall_s = hostNow() - t0;
    return r;
}

/** Simulations of one repetition of workload @p k. */
std::vector<SimResult>
runRep(Kind k, std::uint64_t seed)
{
    std::vector<SimResult> sims;
    if (k != Kind::Serve) {
        if (tracer)
            tracer->sim = 0;
        sims.push_back(runSim(k, seed, -1));
        return sims;
    }
    for (unsigned i = 0; i < std::size(serve_rates); ++i) {
        if (tracer)
            tracer->sim = static_cast<int>(i);
        sims.push_back(runSim(k, seed, serve_rates[i]));
    }
    return sims;
}

/** Set up every simulation of one repetition without running it. */
double
setupOnly(Kind k, std::uint64_t seed)
{
    if (k != Kind::Serve)
        return runSim(k, seed, -1, true).setup_s;
    double s = 0.0;
    for (double rate : serve_rates)
        s += runSim(k, seed, rate, true).setup_s;
    return s;
}

/** Digest of the deterministic stats (all counters and sim_ticks). */
std::uint64_t
digest(const std::vector<SimResult> &sims)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const SimResult &s : sims) {
        h = fnv(h, s.label + "\nsim_ticks=" + std::to_string(s.ticks) + "\n");
        for (const auto &[name, v] : s.stats)
            h = fnv(h, name + "=" + std::to_string(v) + "\n");
    }
    return h;
}

/** Sum and maximum of the counters named "<prefix>*<suffix>". */
struct Matched
{
    double sum = 0.0, max = 0.0;
};

Matched
matching(const std::map<std::string, std::uint64_t> &stats,
         const std::string &prefix, const std::string &suffix)
{
    Matched m;
    for (const auto &[name, v] : stats) {
        if (name.size() >= prefix.size() + suffix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            m.sum += static_cast<double>(v);
            m.max = std::max(m.max, static_cast<double>(v));
        }
    }
    return m;
}

// ---------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Outcome accounting shared by every mode. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    add(const std::vector<SimResult> &sims)
    {
        for (const SimResult &s : sims) {
            // A simulation is one operation, each served request one
            // more; a shed request fails (it misses any latency limit).
            attempted += 1 + s.serve.requests;
            failed += (s.ok ? 0 : 1) + s.serve.shed;
            if (!s.ok)
                errors.push_back(s.error);
            if (s.serve.shed)
                errors.push_back(s.label + ": " +
                                 std::to_string(s.serve.shed) +
                                 " request(s) shed");
        }
    }
};

/** End-to-end quantities of one repetition, summed over its sims. */
struct RepTotals
{
    double wall_s = 0, setup_s = 0, run_s = 0;
    double ticks = 0, ops = 0, offchip = 0, energy_pj = 0, latency = 0;
};

RepTotals
totals(Kind k, const std::vector<SimResult> &sims)
{
    RepTotals t;
    for (const SimResult &s : sims) {
        t.wall_s += s.wall_s;
        t.setup_s += s.setup_s;
        t.run_s += s.run_s;
        t.ticks += static_cast<double>(s.ticks);
        t.ops += static_cast<double>(s.retired_ops);
        t.offchip += static_cast<double>(s.offchip_bytes);
        t.energy_pj += s.energy_pj;
    }
    // The latency the workload's user waits on.  A batch kernel's run
    // time is the sum of its PEI waits, so its mean PEI latency; a
    // served request's p99 (from its planned arrival) at the lowest
    // rate.  PEI tails follow the R-MAT hubs of each seed too closely
    // to bound; they are per-layer metrics.
    t.latency = k == Kind::Serve ? percentile(sims[0].serve.total, 0.99)
                                 : sims[0].pei_mean;
    return t;
}

std::vector<Metric>
endToEnd(Kind k, const std::vector<std::vector<SimResult>> &reps,
         const std::vector<double> &setups, double rss_mb)
{
    std::vector<double> wall, kops;
    for (const auto &rep : reps) {
        const RepTotals t = totals(k, rep);
        wall.push_back(t.wall_s);
        kops.push_back(ratio(t.ops / 1e3, t.run_s));
    }
    const RepTotals d = totals(k, reps.front());
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setups), "s"},
        {"sim_kops_per_s", median(kops), "kops/s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_ticks", d.ticks, "ticks"},
        {"offchip_bytes", d.offchip, "bytes"},
        {"energy_uj", d.energy_pj / 1e6, "uJ"},
        {"latency_ticks", d.latency, "ticks"},
    };
}

// ---------------------------------------------------------------- probes

/** Nanoseconds per call of @p op over @p n calls. */
template <typename Fn>
double
nsPer(std::uint64_t n, Fn &&op)
{
    const double t0 = hostNow();
    for (std::uint64_t i = 0; i < n; ++i)
        op();
    return (hostNow() - t0) * 1e9 / static_cast<double>(n);
}

constexpr std::uint64_t probe_ops = 1 << 20;

/** Self-rescheduling event chain: keeps a fixed number pending. */
struct QueueChain
{
    EventQueue &eq;
    Rng &rng;
    std::uint64_t &left;

    void
    operator()() const
    {
        if (left == 0)
            return;
        --left;
        eq.schedule(1 + rng.below(512), QueueChain{eq, rng, left});
    }
};

struct Probes
{
    double queue_ns, tlb_ns, cache_ns, dir_ns, monitor_ns;
};

/**
 * Layer probes on seeded address streams over the workload's
 * simulated footprint; the event-queue probe holds the median pending
 * depth seen during the traced run.
 */
Probes
runProbes(std::uint64_t seed, std::uint64_t footprint, std::size_t pending)
{
    const SystemConfig cfg = benchConfig();
    const std::uint64_t blocks = std::max<std::uint64_t>(footprint / 64, 1);
    Probes p{};
    {
        EventQueue eq;
        Rng rng(seed);
        std::uint64_t left = probe_ops;
        for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i)
            eq.schedule(1 + rng.below(512), QueueChain{eq, rng, left});
        const double t0 = hostNow();
        const auto out = eq.run();
        p.queue_ns = (hostNow() - t0) * 1e9 /
                     static_cast<double>(std::max<std::uint64_t>(
                         out.executed, 1));
    }
    {
        Tlb tlb(cfg.core.tlb_entries, 1);
        Rng rng(seed + 1);
        p.tlb_ns = nsPer(probe_ops, [&] {
            tlb.access(rng.below(footprint ? footprint : 1));
        });
    }
    {
        CacheArray l3(cfg.cache.l3_bytes, cfg.cache.l3_ways);
        Rng rng(seed + 2);
        p.cache_ns = nsPer(probe_ops, [&] {
            const Addr b = rng.below(blocks);
            if (CacheLine *line = l3.find(b))
                l3.touch(*line);
            else
                l3.fill(l3.victim(b), b, MesiState::Exclusive);
        });
    }
    {
        EventQueue eq;
        StatRegistry st;
        PimDirectory dir(eq, cfg.pim.directory_entries,
                         cfg.pim.directory_latency, st);
        Rng rng(seed + 3);
        p.dir_ns = nsPer(probe_ops, [&] {
            const Addr b = rng.below(blocks);
            const bool writer = rng.below(2) != 0;
            dir.acquire(b, writer, [] {});
            eq.run();
            dir.release(b, writer);
        });
    }
    {
        StatRegistry st;
        const unsigned sets = static_cast<unsigned>(
            cfg.cache.l3_bytes / 64 / cfg.cache.l3_ways);
        LocalityMonitor mon(sets, cfg.cache.l3_ways, st);
        Rng rng(seed + 4);
        p.monitor_ns = nsPer(probe_ops, [&] {
            const Addr b = rng.below(blocks);
            if (!mon.lookupForPei(b))
                mon.onPimIssue(b);
        });
    }
    return p;
}

std::vector<Metric>
perLayer(Kind k, std::uint64_t seed, const std::vector<SimResult> &sims,
         const Tracer &tr, double overhead_s)
{
    // Layer counters come from one simulation: the batch kernel, or
    // the middle serving rate.
    const SimResult &s = k == Kind::Serve ? sims[serve_mid] : sims[0];
    const auto &st = s.stats;
    const auto get = [&](const std::string &n) {
        const auto it = st.find(n);
        return it == st.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double ops = static_cast<double>(s.retired_ops);
    const double events = static_cast<double>(s.events);

    const double vault_acc = matching(st, "vault", ".reads").sum +
                             matching(st, "vault", ".writes").sum;
    const double pcu_acq = matching(st, "host_pcu", ".buffer_acquires").sum +
                           matching(st, "mem_pcu", ".buffer_acquires").sum;
    const double pcu_stall = matching(st, "host_pcu", ".buffer_stalls").sum +
                             matching(st, "mem_pcu", ".buffer_stalls").sum;

    std::uint64_t footprint = 0;
    for (const SimResult &x : sims)
        footprint = std::max(footprint, x.footprint);
    std::vector<double> pending;
    for (const auto &pr : tr.progress)
        pending.push_back(static_cast<double>(pr.pending));
    const Probes pb = runProbes(seed, footprint,
                                static_cast<std::size_t>(median(pending)));

    // Serving layer (zero on the batch workloads).
    const bool serving = k == Kind::Serve;
    double plan_s = 0, lag = 0, max_rate = 0, shed = 0, batches = 0;
    std::vector<Metric> rates;
    for (unsigned i = 0; i < std::size(serve_rates); ++i) {
        const ServeRecord empty;
        const ServeRecord &r = serving ? sims[i].serve : empty;
        const std::string tag =
            "r" + std::to_string(static_cast<int>(serve_rates[i]));
        const double p99 = percentile(r.total, 0.99);
        rates.push_back(
            {"serve.p50_ticks." + tag, percentile(r.total, 0.50), "ticks"});
        rates.push_back({"serve.p99_ticks." + tag, p99, "ticks"});
        if (!serving)
            continue;
        plan_s += r.plan_s;
        lag = std::max(lag, r.lag_max);
        shed += static_cast<double>(r.shed);
        batches += static_cast<double>(sims[i].stats.at("serve.batches"));
        if (r.shed == 0 && p99 <= serve_slo_ticks)
            max_rate = std::max(max_rate, serve_rates[i]);
    }
    const ServeRecord &mid = sims[serving ? serve_mid : 0].serve;

    std::vector<Metric> m = {
        {"runtime.build_s", tr.total("runtime.build"), "s"},
        {"runtime.run_s", tr.total("runtime.run"), "s"},
        {"runtime.collect_s", tr.total("runtime.collect"), "s"},
        {"workloads.setup_s", tr.total("workloads.setup"), "s"},
        {"workloads.validate_s", tr.total("workloads.validate"), "s"},
        {"sim.events", events, "count"},
        {"sim.events_per_op", ratio(events, ops), "ratio"},
        {"sim.events_per_s", ratio(events, s.run_s), "1/s"},
        {"sim.queue_ns_per_event", pb.queue_ns, "ns"},
        {"cpu.retired_ops", ops, "count"},
        {"cpu.window_stalls_per_op",
         ratio(matching(st, "core", ".window_stalls").sum, ops),
         "ratio"},
        {"mem.tlb_ns_per_access", pb.tlb_ns, "ns"},
        {"mem.vault_row_hit_rate",
         ratio(matching(st, "vault", ".row_hits").sum, vault_acc),
         "ratio"},
        {"mem.vault_activates",
         matching(st, "vault", ".activates").sum,
         "count"},
        {"mem.read_p99_ticks", s.read_p99, "ticks"},
        {"mem.pim_roundtrip_p99_ticks", s.pim_roundtrip_p99,
         "ticks"},
        {"cache.accesses",
         get("cache.l1_accesses") + get("cache.l2_accesses") +
             get("cache.l3_accesses"),
         "count"},
        {"cache.l1_miss_rate",
         ratio(get("cache.l1_misses"), get("cache.l1_accesses")), "ratio"},
        {"cache.l3_miss_rate",
         ratio(get("cache.l3_misses"), get("cache.l3_accesses")), "ratio"},
        {"cache.mshr_coalesced", get("cache.l3_mshr_coalesced"), "count"},
        {"cache.back_invalidations", get("cache.back_invalidations"),
         "count"},
        {"cache.back_writebacks", get("cache.back_writebacks"), "count"},
        {"cache.array_ns_per_lookup", pb.cache_ns, "ns"},
        {"pim.offload_frac",
         ratio(get("pmu.peis_mem"), get("pmu.peis_issued")), "ratio"},
        {"pim.monitor_hit_rate",
         ratio(get("loc_mon.hits"), get("loc_mon.lookups")), "ratio"},
        {"pim.dir_conflict_rate",
         ratio(get("pim_dir.conflicts"), get("pim_dir.acquires")), "ratio"},
        {"pim.dir_false_conflict_frac",
         ratio(get("pim_dir.false_conflicts"), get("pim_dir.conflicts")),
         "ratio"},
        {"pim.pei_latency_p50_ticks", s.pei_p50, "ticks"},
        {"pim.pei_latency_p99_ticks", s.pei_p99, "ticks"},
        {"pim.dir_wait_p99_ticks", s.dir_wait_p99, "ticks"},
        {"pim.pcu_buffer_stall_rate", ratio(pcu_stall, pcu_acq), "ratio"},
        {"pim.dir_ns_per_acquire", pb.dir_ns, "ns"},
        {"pim.monitor_ns_per_lookup", pb.monitor_ns, "ns"},
        {"coherence.actions", get("coh.actions"), "count"},
        {"coherence.offchip_flits", get("coh.offchip_flits"), "count"},
        {"net.req_flits", get("net.req.flits"), "count"},
        {"net.res_flits", get("net.res.flits"), "count"},
        {"net.link_max_util",
         ratio(matching(st, "link", ".busy_ticks").max,
               static_cast<double>(s.ticks)),
         "ratio"},
        {"serve.plan_s", plan_s, "s"},
        {"serve.queue_wait_p99_ticks", percentile(mid.queue, 0.99), "ticks"},
        {"serve.service_p99_ticks", percentile(mid.service, 0.99), "ticks"},
        {"serve.shed", shed, "count"},
        {"serve.batches", batches, "count"},
        {"serve.generator_lag_max_ticks", lag, "ticks"},
    };
    m.insert(m.end(), rates.begin(), rates.end());
    m.push_back({"serve.max_rate", max_rate, "1/Mtick"});
    m.push_back({"trace.overhead_s", overhead_s, "s"});
    return m;
}

// ---------------------------------------------------------------- output

struct Args
{
    Kind kind = Kind::PageRank;
    bool have_kind = false;
    std::uint64_t seed = default_seed;
    double seconds = 30.0;
    bool trace = false;
    bool self_test = false;
    std::string trace_out;
    std::string commit = "unknown";
};

void
printMeta(const Args &a)
{
    const std::string flags = PERFBENCH_CXX_FLAGS;
    const std::string build = PERFBENCH_BUILD_TYPE;
    const bool sanitized = flags.find("-fsanitize") != std::string::npos;
    std::printf(
        "meta: {\"workload\":\"%s\",\"seed\":%llu,\"default_seed\":%llu,"
        "\"heldout_seed\":%llu,\"nproc\":%u,\"compiler\":\"%s\","
        "\"build_type\":\"%s\",\"debug_build\":%s,\"sanitizer_build\":%s,"
        "\"commit\":\"%s\",\"shards\":1,\"sizes\":{\"pagerank\":{"
        "\"vertices\":%llu,\"edges\":%llu,\"iterations\":%u},"
        "\"hashjoin\":{\"build_rows\":%llu,\"probe_rows\":%llu},"
        "\"serve\":{\"rates_per_mtick\":[%g,%g,%g],"
        "\"requests_per_rate\":%llu}}}\n",
        kindLabel(a.kind), static_cast<unsigned long long>(a.seed),
        static_cast<unsigned long long>(default_seed),
        static_cast<unsigned long long>(heldout_seed),
        std::thread::hardware_concurrency(), PERFBENCH_CXX, build.c_str(),
        build == "Debug" || build.empty() ? "true" : "false",
        sanitized ? "true" : "false", a.commit.c_str(),
        static_cast<unsigned long long>(pr_vertices),
        static_cast<unsigned long long>(pr_edges), pr_iterations,
        static_cast<unsigned long long>(hj_build_rows),
        static_cast<unsigned long long>(hj_probe_rows), serve_rates[0],
        serve_rates[1], serve_rates[2],
        static_cast<unsigned long long>(serve_requests));
}

/** Print metrics one per line, then the result line; returns exit code. */
int
report(const Tally &t, const std::vector<Metric> &metrics)
{
    for (const std::string &e : t.errors)
        std::fprintf(stderr, "FAILED: %s\n", e.c_str());
    for (const Metric &m : metrics)
        std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const bool correct = t.failed == 0;
    std::ostringstream os;
    os << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << t.attempted << ",\"failed\":" << t.failed
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? "," : "") << "\"" << metrics[i].name
           << "\":{\"value\":" << jsonNum(metrics[i].value)
           << ",\"unit\":\"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

int
runUntraced(const Args &a)
{
    Tally tally;
    std::vector<std::vector<SimResult>> reps;
    std::vector<double> setups;
    const double start = hostNow();
    double longest = 0.0;
    double rss_mb = 0.0;
    // Stop before a repetition that would end past the budget.
    while (reps.size() < min_reps ||
           hostNow() - start + longest <= a.seconds) {
        reps.push_back(runRep(a.kind, a.seed));
        longest = std::max(longest, totals(a.kind, reps.back()).wall_s);
        // The allocator keeps freed memory, so later repetitions raise
        // the peak; read it after the first so it does not depend on
        // how many repetitions fit.
        if (reps.size() == 1)
            rss_mb = peakRssMb();
        tally.add(reps.back());
        setups.push_back(totals(a.kind, reps.back()).setup_s);
        if (digest(reps.back()) != digest(reps.front())) {
            tally.failed += 1;
            tally.errors.push_back("stats differ between repetitions "
                                   "of one seed");
        }
    }
    while (setups.size() < setup_samples)
        setups.push_back(setupOnly(a.kind, a.seed));
    std::printf("digest: %016llx\nrepetition wall_s:",
                static_cast<unsigned long long>(digest(reps.front())));
    for (const auto &rep : reps)
        std::printf(" %.4f", totals(a.kind, rep).wall_s);
    std::printf("\n");
    return report(tally, endToEnd(a.kind, reps, setups, rss_mb));
}

int
runTraced(const Args &a)
{
    Tally tally;
    // Untraced reference repetition, then the traced one: the
    // difference in wall time is the tracing overhead.
    const std::vector<SimResult> plain = runRep(a.kind, a.seed);
    tally.add(plain);
    Tracer tr;
    tracer = &tr;
    const std::vector<SimResult> traced = runRep(a.kind, a.seed);
    tracer = nullptr;
    tally.add(traced);
    if (digest(plain) != digest(traced)) {
        tally.failed += 1;
        tally.errors.push_back("tracing changed the simulated stats");
    }
    const double overhead =
        totals(a.kind, traced).wall_s - totals(a.kind, plain).wall_s;
    std::printf("digest: %016llx\n",
                static_cast<unsigned long long>(digest(traced)));
    if (!a.trace_out.empty()) {
        std::ofstream out(a.trace_out, std::ios::trunc);
        out << tr.json(kindLabel(a.kind), a.seed);
        if (!out) {
            tally.failed += 1;
            tally.errors.push_back("cannot write " + a.trace_out);
        }
    }
    return report(tally, perLayer(a.kind, a.seed, traced, tr, overhead));
}

// ---------------------------------------------------------------- self-test

class NullJobCtx : public JobCtx
{
  public:
    std::size_t index() const override { return 0; }
    void watch(EventQueue &) override {}
    void unwatch() override {}
    bool timedOut() const override { return false; }
};

bool
check(bool cond, const std::string &what)
{
    std::printf("self-test: %-62s %s\n", what.c_str(), cond ? "ok" : "FAIL");
    return cond;
}

int
selfTest()
{
    bool ok = true;
    const Kind kinds[] = {Kind::PageRank, Kind::HashJoin, Kind::Serve};
    for (Kind k : kinds) {
        const std::string name = kindLabel(k);
        const auto a = runRep(k, default_seed);
        const auto b = runRep(k, default_seed);
        const auto c = runRep(k, default_seed + 1);
        Tally t;
        t.add(a);
        t.add(b);
        t.add(c);
        ok &= check(t.failed == 0, name + ": every simulation validates");
        ok &= check(digest(a) == digest(b),
                    name + ": one seed gives identical stats");
        const RepTotals ta = totals(k, a), tb = totals(k, b);
        ok &= check(ta.ticks == tb.ticks && ta.offchip == tb.offchip &&
                        ta.energy_pj == tb.energy_pj &&
                        ta.latency == tb.latency,
                    name + ": one seed gives identical metrics");
        ok &= check(digest(a) != digest(c),
                    name + ": another seed changes the inputs");
        if (k == Kind::PageRank) {
            // The figures' path: runSimJob on the same workload/config.
            SimJob job;
            job.label = "perfbench/pagerank";
            job.mode = ExecMode::LocalityAware;
            job.factory = [] {
                return makeBatch(Kind::PageRank, default_seed);
            };
            NullJobCtx ctx;
            clearInputCache();
            const RunResult r = runSimJob(job, ctx);
            ok &= check(r.stats == a[0].stats && r.ticks == a[0].ticks,
                        name + ": stats equal runSimJob's (fig06 path)");
        }
    }
    std::printf("self-test: %s\n", ok ? "PASSED" : "FAILED");
    return ok ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--self-test") {
            a.self_test = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            if (!parseKind(v, a.kind))
                return false;
            a.have_kind = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else if (k == "--commit") {
            a.commit = v;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return a.self_test || a.have_kind;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload pagerank|hashjoin|serve "
                     "[--seed N] [--seconds S] [--trace 0|1] "
                     "[--trace-out PATH] [--commit SHA] | --self-test\n");
        return 2;
    }
    try {
        if (a.self_test)
            return selfTest();
        printMeta(a);
        return a.trace ? runTraced(a) : runUntraced(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
