/**
 * @file
 * The request-driven serving layer: traffic generators feeding
 * multi-tenant bounded queues, drained by batching worker coroutines
 * that run PEI kernels against shared in-memory state.
 *
 * One Server instance drives one System:
 *
 *   planTraffic() ──> TenantQueues ──> worker coroutines ──> kernels
 *   (host-side,        (bounded,        (admit up to           (PEIs on
 *    pre-sampled)       FIFO/WFQ,        batch_max, pay         shared
 *                       shed on          dispatch cost,         state)
 *                       overflow)        run kernels)
 *
 * Open-loop modes use an arrival-driver coroutine walking the
 * pre-sampled trace; closed-loop mode uses one coroutine per client
 * (think, enqueue, await completion).  Workers park when the queues
 * are empty and are woken by a zero-delay event on every enqueue, so
 * scheduling stays deterministic and lost-wakeup-free.
 *
 * Per-request latency stages (enqueue→admit→dispatch→retire) are
 * recorded in per-tenant stats-v2 histograms
 * ("serve.t<N>.{queue_wait,dispatch_wait,service,total}_ticks"),
 * with counters "serve.t<N>.{arrivals,accepted,shed,completed}" and
 * audit invariants arrivals == accepted + shed and
 * completed == accepted.
 *
 * Cooperative cancellation: the Server adds no blocking constructs
 * of its own — every wait is an EventQueue event — so a watchdog's
 * EventQueue::requestStop unwinds a serving run exactly like any
 * other workload (SimulationStopped out of Runtime::run, parked
 * coroutine frames reclaimed by ~Runtime/~Server).
 */

#ifndef PEISIM_SERVE_SERVER_HH
#define PEISIM_SERVE_SERVER_HH

#include <coroutine>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "serve/queue.hh"
#include "serve/state.hh"
#include "serve/traffic.hh"
#include "sim/task.hh"

namespace pei
{

class System;
class Runtime;
class Ctx;
class EventQueue;

struct ServeConfig
{
    TrafficConfig traffic;
    ServeStateConfig state;
    std::vector<TenantTraffic> tenants{TenantTraffic{}};
    SchedPolicy policy = SchedPolicy::WeightedFair;
    unsigned workers = 8;           ///< worker coroutines (round-robin cores)
    unsigned batch_max = 4;         ///< max requests admitted per batch
    Ticks dispatch_cost_ticks = 200; ///< per-batch dispatch overhead
};

/** Per-tenant latency/throughput summary (ticks). */
struct TenantSummary
{
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double mean = 0.0;
};

/** End-of-run summary used by the fig13 bench and tests. */
struct ServingSummary
{
    std::uint64_t arrivals = 0;
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    Tick last_enqueue = 0;
    Tick last_retire = 0;
    double offered_per_mtick = 0.0;  ///< measured arrival rate
    double achieved_per_mtick = 0.0; ///< measured completion rate
    double p50 = 0.0;                ///< aggregate total-latency ticks
    double p95 = 0.0;
    double p99 = 0.0;
    double mean = 0.0;
    std::vector<TenantSummary> tenants;
};

class Server
{
  public:
    /** Registers the serve.* stats with @p sys's registry. */
    Server(System &sys, const ServeConfig &cfg);

    /** Build shared state and the traffic plan (before start()). */
    void setup(Runtime &rt);

    /** Spawn the traffic driver(s) and worker coroutines. */
    void start(Runtime &rt);

    /** Recompute every request's expected result host-side. */
    bool validate(System &sys, std::string &msg) const;

    const ServeConfig &config() const { return cfg_; }
    const ServeState &state() const { return state_; }
    const std::vector<Request> &requests() const
    {
        return plan_.requests;
    }

    ServingSummary summary() const;

    /** Deterministic JSON rendering of summary() (no wall-clock). */
    std::string summaryJson() const;

    /**
     * One line per request: "id tenant kind param arrival enqueue
     * admit dispatch retire shed matches result" — byte-comparable
     * across runs for the determinism tests.
     */
    std::string requestTrace() const;

  private:
    struct TenantStats
    {
        Counter arrivals;
        Counter accepted;
        Counter shed;
        Counter completed;
        Histogram queue_wait;
        Histogram dispatch_wait;
        Histogram service;
        Histogram total;
    };

    /** Parks a worker until work (or close) arrives. */
    class ParkAwaiter
    {
      public:
        explicit ParkAwaiter(Server &s) : server(s) {}

        bool
        await_ready() const
        {
            return !server.queues_.empty() || server.queues_.closed();
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            server.parked_.push_back(h);
        }

        void await_resume() {}

      private:
        Server &server;
    };

    /** Parks a closed-loop client until its request retires. */
    class CompletionAwaiter
    {
      public:
        explicit CompletionAwaiter(Request &r) : req(r) {}

        bool await_ready() const { return req.completed; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            req.waiter = h;
        }

        void await_resume() {}

      private:
        Request &req;
    };

    Task arrivalDriver(Ctx &ctx);
    Task clientLoop(Ctx &ctx, unsigned cid);
    Task workerLoop(Ctx &ctx, unsigned wid);

    Task hashProbeKernel(Ctx &ctx, Request &r);
    Task pageRankKernel(Ctx &ctx, Request &r);
    Task knnKernel(Ctx &ctx, Request &r);

    void enqueue(Request &r, EventQueue &eq);
    void wakeWorkers(EventQueue &eq);
    void finishRequest(Request &r, EventQueue &eq);

    System &sys_;
    ServeConfig cfg_;
    ServeState state_;
    TrafficPlan plan_;
    TenantQueues queues_;
    std::vector<std::coroutine_handle<>> parked_;
    std::uint64_t enqueued_ = 0; ///< arrivals processed (incl. shed)

    std::vector<std::unique_ptr<TenantStats>> tstats_;
    Counter batches_;
    Histogram batch_size_;
    Histogram total_all_; ///< total latency across tenants
};

} // namespace pei

#endif // PEISIM_SERVE_SERVER_HH
