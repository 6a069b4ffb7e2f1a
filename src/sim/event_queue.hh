/**
 * @file
 * Discrete-event simulation engine.
 *
 * A single global-ordered queue of (tick, callback) events.  Events
 * scheduled for the same tick execute in scheduling order (FIFO),
 * which keeps simulations fully deterministic.
 *
 * Storage layout: the continuations live in a SlotPool slab arena
 * addressed by 32-bit slot; arena slots are recycled through a
 * freelist and the callables are allocation-free InlineFunctions, so
 * a steady-state schedule/execute cycle touches the heap allocator
 * zero times.  schedule() takes its continuation by rvalue reference
 * and moves it straight into its arena slot, and an event runs in
 * place in that slot: arena chunks never move, and the slot stays
 * live (so it cannot be reused) until its callback returns, even if
 * the callback schedules enough events to grow the arena.  A
 * `{this, handle}` closure is therefore byte-copied once on its way
 * in and never again.  Ordering uses two structures:
 *
 *  - a ring of ring_ticks one-tick buckets covering
 *    [now, now + ring_ticks).  Each bucket is an intrusive FIFO of
 *    arena slots linked through a per-slot `next` array, and a
 *    ring_ticks-bit occupancy bitmap finds the next non-empty bucket
 *    with count-trailing-zeros.  Nearly every event (cache, link and
 *    vault latencies) lands here, at O(1) per schedule and pop;
 *  - a binary heap of (tick, seq, slot) PODs for events scheduled
 *    ring_ticks or more ticks ahead.  Its events are never migrated
 *    into the ring as time advances.
 *
 * The next event is the earlier of the first occupied bucket and the
 * heap top.  On equal ticks the heap top wins: it was scheduled while
 * now was at least ring_ticks earlier, hence before every event in
 * the ring bucket for that tick, so exact (tick, seq) FIFO order
 * holds without a seq in the ring.
 */

#ifndef PEISIM_SIM_EVENT_QUEUE_HH
#define PEISIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional> // stdfunction-allowed: cold boundary-probe hook only
#include <stdexcept>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/continuation.hh"
#include "sim/slot_pool.hh"

namespace pei
{

/**
 * Callback type for the event-boundary probe (invariant checkers).
 * Probes are cold (installed rarely, fire every N events) and may
 * capture arbitrarily large checker state, so they stay type-erased
 * on the heap rather than paying Continuation's inline budget.
 */
using EventFn = std::function<void()>; // stdfunction-allowed: probe hook

/**
 * Thrown by the simulation-driving loops (Runtime::run) when a
 * cross-thread stop request arrives via EventQueue::requestStop —
 * e.g. the sweep driver cancelling a job that exceeded its
 * wall-clock timeout.  The simulation is abandoned at an event
 * boundary; its System must be discarded, not resumed.
 */
class SimulationStopped : public std::runtime_error
{
  public:
    SimulationStopped()
        : std::runtime_error("simulation stopped by external request")
    {}
};

/**
 * The event queue that drives a simulation.  One instance per
 * simulated System; all components schedule against it.
 */
class EventQueue
{
  public:
    /**
     * Cadence (in events) of the relaxed-atomic stopRequested() check
     * inside run() and the other driving loops.  Checking every event
     * taxed the hot loop for a knob that only sweep-driver timeouts
     * ever pull; checking every 1024 events bounds cancellation
     * latency to a still-instant ~microsecond while keeping the load
     * off the per-event path.  Must be a power of two.
     */
    static constexpr std::uint64_t stop_check_interval = 1024;

    /**
     * Ticks covered by the bucket ring: events scheduled fewer than
     * this many ticks ahead take the O(1) ring path, later ones the
     * overflow heap.  Most simulated latencies are a few hundred
     * ticks.  Must be a power of two.
     */
    static constexpr std::uint32_t ring_ticks = 1024;

    /** Current simulation time. */
    Tick now() const { return cur_tick; }

    /** Schedule @p fn to run @p delay ticks from now. */
    void
    schedule(Ticks delay, Continuation &&fn)
    {
        scheduleAt(cur_tick + delay, std::move(fn));
    }

    /** Schedule @p fn at absolute time @p when (>= now). */
    void
    scheduleAt(Tick when, Continuation &&fn)
    {
        panic_if(when < cur_tick,
                 "scheduling event in the past (%llu < %llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(cur_tick));
        const std::uint32_t slot = arena.emplace(std::move(fn));
        if (when - cur_tick >= ring_ticks) {
            overflow.push_back(Event{when, next_seq++, slot});
            std::push_heap(overflow.begin(), overflow.end(), Later{});
            return;
        }
        if (slot >= ring_next.size())
            ring_next.resize(arena.capacity());
        ring_next[slot] = nil;
        const std::uint32_t b = when & ring_mask;
        Bucket &bk = buckets[b];
        if (bk.head == nil) {
            bk.head = slot;
            occupied[b >> 6] |= std::uint64_t{1} << (b & 63);
        } else {
            ring_next[bk.tail] = slot;
        }
        bk.tail = slot;
        ++ring_count;
    }

    /** True if no events are pending. */
    bool empty() const { return size() == 0; }

    /** Number of pending events. */
    std::size_t
    size() const
    {
        return ring_count + overflow.size();
    }

    /** Tick of the next pending event (max_tick if empty). */
    Tick
    nextEventTick() const
    {
        std::uint32_t bucket = 0;
        const Tick ring_when = ringFront(bucket);
        if (!overflow.empty() && overflow.front().when <= ring_when)
            return overflow.front().when;
        return ring_when;
    }

    /**
     * Pop and execute the next event, advancing time to it.
     * @return false if the queue was empty.
     */
    bool runOne() { return runNext(max_tick); }

    /**
     * Install @p fn as the event-boundary probe: it runs after every
     * @p every-th executed event, at a point where all component
     * state is settled (no event is mid-flight).  Invariant checkers
     * (simfuzz) hook here; a throwing probe propagates out of
     * runOne()/run(), abandoning the simulation at the boundary.
     * Pass a null fn to uninstall.
     */
    void
    setBoundaryProbe(EventFn fn, std::uint64_t every = 1)
    {
        probe = std::move(fn);
        probe_every = every ? every : 1;
    }

    /** Why run() returned (exposed so raw-loop callers can tell a
     *  drain from an external cancellation; see RunOutcome). */
    enum class RunBreak : std::uint8_t
    {
        Drained, ///< queue empty
        Limit,   ///< next event lies past the tick limit
        Stopped, ///< requestStop() observed at a check boundary
    };

    /**
     * Result of run(): how many events executed and why the loop
     * broke.  A stop request used to be indistinguishable from a
     * normal drain here, so raw-loop callers (bench warmup loops,
     * golden-model drivers) silently swallowed cancellations that
     * Runtime::run turns into SimulationStopped; they can now call
     * throwIfStopped() to propagate consistently.
     */
    struct RunOutcome
    {
        std::uint64_t executed = 0;
        RunBreak why = RunBreak::Drained;

        bool stopped() const { return why == RunBreak::Stopped; }

        /** Propagate an external stop the way Runtime::run does. */
        void
        throwIfStopped() const
        {
            if (stopped())
                throw SimulationStopped();
        }
    };

    /**
     * Run until the queue drains, time would pass @p limit, or a
     * stop is requested (checked every stop_check_interval events).
     * @return events executed plus the break reason.
     */
    RunOutcome
    run(Tick limit = max_tick)
    {
        RunOutcome out;
        while (true) {
            if ((out.executed & (stop_check_interval - 1)) == 0 &&
                stopRequested()) {
                if (empty() || nextEventTick() > limit)
                    break;
                out.why = RunBreak::Stopped;
                return out;
            }
            if (!runNext(limit))
                break;
            ++out.executed;
        }
        out.why = empty() ? RunBreak::Drained : RunBreak::Limit;
        return out;
    }

    /** Total events executed since construction. */
    std::uint64_t executedCount() const { return executed_count; }

    /**
     * High-water continuation-arena size in slots (live + freelist).
     * Exposes pool sizing to the hot-path benchmarks and pool-growth
     * tests.
     */
    std::uint32_t
    arenaCapacity() const
    {
        return arena.capacity();
    }

    /**
     * Ask the loop driving this queue to stop at the next
     * stop-check boundary.  The only EventQueue operation that is
     * safe to call from a different host thread than the one running
     * the simulation; everything else is single-threaded.
     */
    void
    requestStop()
    {
        stop_requested_.store(true, std::memory_order_relaxed);
    }

    /** True once requestStop was called (sticky until cleared). */
    bool
    stopRequested() const
    {
        return stop_requested_.load(std::memory_order_relaxed);
    }

    /** Re-arm the queue after a handled stop (tests, reuse). */
    void
    clearStopRequest()
    {
        stop_requested_.store(false, std::memory_order_relaxed);
    }

  private:
    /**
     * Pop and execute the next event if its tick is <= @p limit.
     * The event is unlinked from the ring or heap before it runs,
     * since its callback may schedule new events; the arena runs the
     * callback in place and frees the slot afterwards.
     * @return false if no event is due by @p limit.
     */
    bool
    runNext(Tick limit)
    {
        std::uint32_t bucket = 0;
        const Tick ring_when = ringFront(bucket);
        std::uint32_t slot = nil;
        if (!overflow.empty() && overflow.front().when <= ring_when) {
            if (overflow.front().when > limit)
                return false;
            std::pop_heap(overflow.begin(), overflow.end(), Later{});
            cur_tick = overflow.back().when;
            slot = overflow.back().slot;
            overflow.pop_back();
        } else {
            if (ring_count == 0 || ring_when > limit)
                return false;
            Bucket &bk = buckets[bucket];
            slot = bk.head;
            bk.head = ring_next[slot];
            if (bk.head == nil)
                occupied[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
            --ring_count;
            cur_tick = ring_when;
        }
        arena[slot]();
        arena.erase(slot);
        ++executed_count;
        if (probe && executed_count % probe_every == 0)
            probe();
        return true;
    }

    /** POD heap node; the continuation lives in the slab arena. */
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Heap comparator: the earliest (tick, seq) event sits at the
     *  front of the std::*_heap-maintained vector. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::uint32_t ring_mask = ring_ticks - 1;
    static constexpr unsigned ring_words = ring_ticks / 64;
    static constexpr std::uint32_t nil = ~std::uint32_t{0};

    /** FIFO of the arena slots due at one tick, linked by ring_next. */
    struct Bucket
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    /**
     * Tick of the earliest ring event, with its bucket in @p bucket
     * (max_tick if the ring is empty).  Ring events lie in
     * [now, now + ring_ticks), so scanning the occupancy bitmap
     * circularly from now's bucket visits them in tick order.
     */
    Tick
    ringFront(std::uint32_t &bucket) const
    {
        if (ring_count == 0)
            return max_tick;
        const std::uint32_t start = cur_tick & ring_mask;
        unsigned w = start >> 6;
        std::uint64_t bits = occupied[w] & (~std::uint64_t{0} << (start & 63));
        // ring_words + 1 steps: the last revisits the start word for
        // the buckets below start (ticks that wrapped around).
        for (unsigned step = 0; step <= ring_words; ++step) {
            if (bits) {
                bucket = (w << 6) | std::countr_zero(bits);
                return cur_tick + ((bucket - start) & ring_mask);
            }
            w = (w + 1) & (ring_words - 1);
            bits = occupied[w];
        }
        panic("event ring count %zu with an empty occupancy bitmap",
              ring_count);
    }

    SlotPool<Continuation> arena; ///< pending-event continuations
    std::array<Bucket, ring_ticks> buckets{};
    std::array<std::uint64_t, ring_words> occupied{}; ///< non-empty buckets
    std::vector<std::uint32_t> ring_next; ///< per arena slot: next in bucket
    std::size_t ring_count = 0;           ///< events in the ring
    std::vector<Event> overflow; ///< heap of events >= ring_ticks ahead
    Tick cur_tick = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t executed_count = 0;
    std::atomic<bool> stop_requested_{false};
    EventFn probe;                 ///< event-boundary invariant probe
    std::uint64_t probe_every = 1; ///< probe cadence in events
};

} // namespace pei

#endif // PEISIM_SIM_EVENT_QUEUE_HH
