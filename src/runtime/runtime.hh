/**
 * @file
 * Runtime: spawns workload threads (coroutines bound to cores) and
 * drives the event loop until they complete.
 */

#ifndef PEISIM_RUNTIME_RUNTIME_HH
#define PEISIM_RUNTIME_RUNTIME_HH

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/context.hh"
#include "runtime/system.hh"
#include "sim/task.hh"

namespace pei
{

/** Thread-spawning and simulation-driving facade. */
class Runtime
{
  public:
    explicit Runtime(System &sys) : sys(sys) {}

    /** The simulated machine this runtime drives. */
    System &system() { return sys; }

    /** Allocate @p bytes of simulated memory. */
    Addr
    alloc(std::uint64_t bytes, std::uint64_t align = block_size)
    {
        return sys.memory().alloc(bytes, align);
    }

    /** Allocate an array of @p count PODs; returns its base vaddr. */
    template <typename T>
    Addr
    allocArray(std::uint64_t count, std::uint64_t align = block_size)
    {
        return alloc(count * sizeof(T), align);
    }

    /**
     * Spawn a kernel coroutine bound to @p core, invoking fn(ctx).
     * The runtime keeps a copy of @p fn until run() returns: a
     * coroutine lambda's frame refers to its closure, so passing a
     * capturing lambda as a temporary is safe.
     */
    template <typename Fn>
    void
    spawn(unsigned core, Fn &&fn)
    {
        fatal_if(core >= sys.numCores(), "spawn on bad core %u", core);
        auto &kernel = keep(std::forward<Fn>(fn));
        ctxs.push_back(std::make_unique<Ctx>(sys, core));
        tasks.push_back(kernel(*ctxs.back()));
        tasks.back().countFinish(finished);
    }

    /**
     * Spawn @p nthreads kernels on cores [base, base + nthreads),
     * invoking fn(ctx, tid, nthreads).  As with spawn(), the runtime
     * keeps one copy of @p fn, shared by the threads, until run()
     * returns.
     */
    template <typename Fn>
    void
    spawnThreads(unsigned nthreads, Fn &&fn, unsigned base = 0)
    {
        auto &kernel = keep(std::forward<Fn>(fn));
        for (unsigned t = 0; t < nthreads; ++t) {
            const unsigned core = (base + t) % sys.numCores();
            ctxs.push_back(std::make_unique<Ctx>(sys, core));
            tasks.push_back(kernel(*ctxs.back(), t, nthreads));
            tasks.back().countFinish(finished);
        }
    }

    /**
     * Drive the event loop until every spawned task finishes, then
     * settle remaining events.  Panics on deadlock (empty queue with
     * unfinished tasks).  Throws SimulationStopped if another host
     * thread calls eventQueue().requestStop() (sweep-driver timeout
     * cancellation); the System must be discarded afterwards.
     * @return simulated ticks elapsed during this run.
     */
    Tick
    run()
    {
        if (sys.shardedQueue().parallel())
            return runSharded();
        const Tick start = sys.now();
        EventQueue &eq = sys.eventQueue();
        std::uint64_t n = 0;
        while (!allDone()) {
            // Completion is a counter (O(1)); the cross-thread stop
            // flag is polled on the EventQueue's cadence so the hot
            // loop does one atomic load per 1024 events, not per
            // event, while cancellation latency stays bounded.
            if ((n & (EventQueue::stop_check_interval - 1)) == 0 &&
                eq.stopRequested())
                throw SimulationStopped();
            panic_if(!eq.runOne(),
                     "simulation deadlock: %zu unfinished task(s) with an "
                     "empty event queue",
                     unfinishedCount());
            ++n;
        }
        // Settle trailing events (posted writes, releases, ...).
        while (eq.runOne()) {}
        releaseTasks();
        return sys.now() - start;
    }

    /** True once all spawned tasks have completed (O(1)). */
    bool allDone() const { return finished == tasks.size(); }

  private:
    /** Type-erased owner of a spawned callable. */
    struct HeldFn
    {
        HeldFn() = default;
        HeldFn(const HeldFn &) = delete;
        HeldFn &operator=(const HeldFn &) = delete;
        virtual ~HeldFn() = default;
    };

    template <typename F>
    struct HeldFnOf final : HeldFn
    {
        template <typename Arg>
        explicit HeldFnOf(Arg &&arg) : fn(std::forward<Arg>(arg))
        {}

        F fn;
    };

    /** Store a decayed copy of @p fn until run() returns. */
    template <typename Fn>
    std::decay_t<Fn> &
    keep(Fn &&fn)
    {
        auto held =
            std::make_unique<HeldFnOf<std::decay_t<Fn>>>(std::forward<Fn>(fn));
        auto &ref = held->fn;
        fns.push_back(std::move(held));
        return ref;
    }

    /** Drop the finished tasks, then their contexts and callables. */
    void
    releaseTasks()
    {
        tasks.clear();
        ctxs.clear();
        fns.clear();
        finished = 0;
    }

    /**
     * Epoch-driven variant of run() for --shards > 1: each
     * runEpoch() advances every shard to a conservatively safe
     * horizon and drains the cross-shard mailboxes at the barrier.
     * runEpoch() == 0 means either every queue and mailbox is empty
     * (deadlock if tasks remain) or the host shard broke on a stop
     * request mid-epoch — the stop flag is re-checked before the
     * deadlock panic so cancellation propagates as SimulationStopped
     * exactly like the sequential loop.
     */
    Tick
    runSharded()
    {
        const Tick start = sys.now();
        ShardedQueue &sq = sys.shardedQueue();
        while (!allDone()) {
            if (sq.stopRequested())
                throw SimulationStopped();
            if (sq.runEpoch() == 0) {
                if (sq.stopRequested())
                    throw SimulationStopped();
                panic_if(!allDone(),
                         "simulation deadlock: %zu unfinished task(s) "
                         "with every shard drained",
                         unfinishedCount());
            }
        }
        // Settle trailing events (posted writes, releases, ...).
        while (sq.runEpoch() != 0) {
            if (sq.stopRequested())
                throw SimulationStopped();
        }
        releaseTasks();
        return sys.now() - start;
    }

    std::size_t
    unfinishedCount() const
    {
        std::size_t n = 0;
        for (const auto &t : tasks)
            n += !t.done();
        return n;
    }

    System &sys;
    /** Spawned callables; declared first so tasks die before them. */
    std::vector<std::unique_ptr<HeldFn>> fns;
    std::vector<std::unique_ptr<Ctx>> ctxs;
    std::vector<Task> tasks;
    std::uint64_t finished = 0; ///< tasks completed (see countFinish)
};

} // namespace pei

#endif // PEISIM_RUNTIME_RUNTIME_HH
