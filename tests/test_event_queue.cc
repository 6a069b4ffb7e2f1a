/**
 * @file
 * Unit tests for the discrete-event engine: ordering, determinism,
 * and coroutine plumbing — including op-for-op equivalence of the
 * slab-arena queue against a naive std::function reference queue,
 * stop-request cancellation latency, and the inline-continuation /
 * slot-pool building blocks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional> // stdfunction-allowed: naive reference queue under test
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/continuation.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"
#include "sim/task.hh"

namespace pei
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        eq.schedule(1, [&] {
            eq.schedule(1, [&] { ++fired; });
            ++fired;
        });
        ++fired;
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.run(15);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ZeroDelayRunsAtCurrentTick)
{
    EventQueue eq;
    Tick seen = max_tick;
    eq.schedule(7, [&] { eq.schedule(0, [&] { seen = eq.now(); }); });
    eq.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, CountsExecuted)
{
    EventQueue eq;
    for (int i = 0; i < 42; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executedCount(), 42u);
}

TEST(EventQueue, StopRequestHonoredWithinCadence)
{
    // Cancellation latency is bounded: run() polls the stop flag
    // every stop_check_interval events, so at most one full interval
    // executes after the request lands.
    EventQueue eq;
    std::uint64_t fired = 0;
    const std::uint64_t total = 8 * EventQueue::stop_check_interval;
    for (std::uint64_t i = 0; i < total; ++i) {
        eq.schedule(1, [&eq, &fired] {
            ++fired;
            if (fired == 123)
                eq.requestStop();
        });
    }
    eq.run();
    EXPECT_GE(fired, 123u);
    EXPECT_LE(fired, 123 + EventQueue::stop_check_interval);
    eq.clearStopRequest();
    eq.run();
    EXPECT_EQ(fired, total);
}

TEST(EventQueue, RunOutcomeReportsBreakReason)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    EventQueue::RunOutcome out = eq.run();
    EXPECT_EQ(out.executed, 1u);
    EXPECT_EQ(out.why, EventQueue::RunBreak::Drained);
    EXPECT_FALSE(out.stopped());

    eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    out = eq.run(15);
    EXPECT_EQ(out.executed, 1u);
    EXPECT_EQ(out.why, EventQueue::RunBreak::Limit);

    // A stop request used to look like a drain to raw-loop callers;
    // the outcome makes the cancellation visible and propagatable.
    eq.requestStop();
    out = eq.run();
    EXPECT_EQ(out.executed, 0u);
    EXPECT_EQ(out.why, EventQueue::RunBreak::Stopped);
    EXPECT_TRUE(out.stopped());
    EXPECT_THROW(out.throwIfStopped(), SimulationStopped);
    EXPECT_FALSE(eq.empty());

    eq.clearStopRequest();
    out = eq.run();
    EXPECT_EQ(out.executed, 1u);
    EXPECT_EQ(out.why, EventQueue::RunBreak::Drained);
    out.throwIfStopped(); // no-op on a clean drain
}

/**
 * The pre-refactor event queue, reimplemented naively: a binary heap
 * of fat nodes each holding a std::function.  Used as the ordering
 * oracle for the slab-arena queue — both are driven op-for-op below
 * and must execute identical sequences.
 */
class NaiveReferenceQueue
{
  public:
    Tick now() const { return cur_tick; }

    void
    schedule(Ticks delay, std::function<void()> fn)
    {
        events.push_back(Ev{cur_tick + delay, next_seq++, std::move(fn)});
        std::push_heap(events.begin(), events.end(), Later{});
    }

    bool
    runOne()
    {
        if (events.empty())
            return false;
        std::pop_heap(events.begin(), events.end(), Later{});
        Ev ev = std::move(events.back());
        events.pop_back();
        cur_tick = ev.when;
        ev.fn();
        return true;
    }

    std::uint64_t
    run(Tick limit = max_tick)
    {
        std::uint64_t n = 0;
        while (!events.empty() && events.front().when <= limit) {
            runOne();
            ++n;
        }
        return n;
    }

    Tick
    nextEventTick() const
    {
        return events.empty() ? max_tick : events.front().when;
    }

    bool empty() const { return events.empty(); }

    std::size_t size() const { return events.size(); }

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Ev> events;
    Tick cur_tick = 0;
    std::uint64_t next_seq = 0;
};

/**
 * Deterministic event cascade: each event logs its id and spawns
 * children by fixed arithmetic rules, mixing same-tick (delay 0)
 * bursts with short delays so FIFO tie-breaking, nested scheduling,
 * and slab-slot reuse all get exercised.
 */
template <typename Queue>
void
spawnCascade(Queue &q, std::vector<std::uint64_t> &log, std::uint64_t id,
             int depth)
{
    q.schedule(id % 5, [&q, &log, id, depth] {
        log.push_back(id);
        if (depth < 3 && id % 3 == 0)
            spawnCascade(q, log, id * 7 + 1, depth + 1);
        if (depth < 3 && id % 4 == 1)
            spawnCascade(q, log, id * 11 + 2, depth + 1);
    });
}

/** Ticks covered by the arena queue's bucket ring. */
constexpr Ticks ring = EventQueue::ring_ticks;

/**
 * Far-event cascade: delays sit on both sides of each ring-window
 * boundary up to four windows ahead, so children of an event land in
 * the ring, in the overflow heap, and on ticks shared by both.
 */
template <typename Queue>
void
spawnFarCascade(Queue &q, std::vector<std::uint64_t> &log,
                std::uint64_t id, int depth)
{
    static constexpr Ticks delays[] = {
        0,        1,        5,        ring - 1,     ring,
        ring + 1, 2 * ring, 2 * ring - 3, 3 * ring + 7, 4 * ring};
    const Ticks delay = delays[id % std::size(delays)];
    q.schedule(delay, [&q, &log, id, depth] {
        log.push_back(id);
        if (depth < 4)
            spawnFarCascade(q, log, id * 7 + 3, depth + 1);
        if (depth < 4 && id % 3 == 0)
            spawnFarCascade(q, log, id * 13 + 1, depth + 1);
    });
}

TEST(EventQueue, MatchesNaiveReferenceQueueOpForOp)
{
    EventQueue arena_q;
    NaiveReferenceQueue naive_q;
    std::vector<std::uint64_t> arena_log, naive_log;

    // Several rounds of wide same-tick bursts with partial drains in
    // between: the arena queue cycles slots through its freelist and
    // grows past one chunk while the naive queue heap-allocates every
    // closure.  Their execution orders must stay identical.
    std::uint64_t id = 1;
    for (int round = 0; round < 6; ++round) {
        const int burst = 300 + 100 * round; // up to 800 > one chunk
        for (int i = 0; i < burst; ++i, ++id) {
            spawnCascade(arena_q, arena_log, id, 0);
            spawnCascade(naive_q, naive_log, id, 0);
        }
        // Partial drain so later rounds reuse freed slots mid-heap.
        for (int i = 0; i < burst / 2; ++i) {
            arena_q.runOne();
            naive_q.runOne();
        }
        ASSERT_EQ(arena_log, naive_log) << "diverged in round " << round;
    }
    while (arena_q.runOne()) {}
    naive_q.run();

    EXPECT_EQ(arena_log, naive_log);
    EXPECT_EQ(arena_q.now(), naive_q.now());
    // The bursts above outgrow a single 256-slot chunk, so slab
    // growth (not just first-chunk reuse) is covered.
    EXPECT_GT(arena_q.arenaCapacity(), 256u);

    // Far events: delays up to four ring windows ahead send events
    // through both the bucket ring and the overflow heap, wrap the
    // ring many times, and put ring and overflow events on the same
    // tick.  The queues are drained by run(limit) in uneven steps
    // whose limits fall inside, between and past the ring windows.
    arena_log.clear();
    naive_log.clear();
    for (int i = 0; i < 1000; ++i, ++id) {
        spawnFarCascade(arena_q, arena_log, id, 0);
        spawnFarCascade(naive_q, naive_log, id, 0);
    }
    for (unsigned step = 0; !naive_q.empty(); ++step) {
        ASSERT_EQ(arena_q.size(), naive_q.size()) << "step " << step;
        ASSERT_EQ(arena_q.nextEventTick(), naive_q.nextEventTick())
            << "step " << step;
        const Tick limit =
            arena_q.nextEventTick() + (step * 397) % (3 * ring);
        ASSERT_EQ(arena_q.run(limit).executed, naive_q.run(limit))
            << "step " << step;
        ASSERT_EQ(arena_q.now(), naive_q.now()) << "step " << step;
        ASSERT_EQ(arena_log.size(), naive_log.size()) << "step " << step;
    }
    EXPECT_EQ(arena_log, naive_log);
    EXPECT_TRUE(arena_q.empty());
    EXPECT_EQ(arena_q.nextEventTick(), max_tick);
    EXPECT_GT(arena_log.size(), 5000u);
}

TEST(EventQueue, OverflowEventPrecedesRingEventOnSameTick)
{
    // An event scheduled a full ring window ahead lands in the
    // overflow heap; one scheduled later for the same tick lands in
    // the ring.  Scheduling order must still decide.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(ring, [&order] { order.push_back(0); });
    eq.schedule(1, [&eq, &order] {
        eq.schedule(ring - 1, [&order] { order.push_back(2); });
    });
    eq.schedule(ring, [&order] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), ring);
}

TEST(SlotPool, HandlesAreStableAndFreelistRecycles)
{
    SlotPool<std::string> pool;
    std::vector<std::uint32_t> handles;
    for (int i = 0; i < 600; ++i) // forces multi-chunk growth
        handles.push_back(pool.emplace("v" + std::to_string(i)));
    EXPECT_EQ(pool.liveCount(), 600u);
    EXPECT_GE(pool.capacity(), 600u);

    std::string &anchor = pool[handles[5]];
    for (int i = 100; i < 200; ++i)
        pool.erase(handles[i]);
    // Freed slots are recycled before any new chunk is allocated.
    const std::uint32_t before = pool.capacity();
    for (int i = 0; i < 100; ++i)
        pool.emplace("recycled");
    EXPECT_EQ(pool.capacity(), before);
    // Chunked storage never relocates: the reference from before the
    // churn still addresses the same element.
    EXPECT_EQ(&anchor, &pool[handles[5]]);
    EXPECT_EQ(anchor, "v5");
}

TEST(SlotPool, DestroysLiveSlotsAtTeardown)
{
    // Cancelled simulations tear pools down with transactions still
    // parked; their elements must still be destroyed exactly once.
    int destroyed = 0;
    struct Probe
    {
        int *counter;
        ~Probe() { ++*counter; }
    };
    {
        SlotPool<Probe> pool;
        pool.emplace(Probe{&destroyed});
        destroyed = 0; // ignore temporaries from emplace-by-move
        const auto h = pool.emplace(Probe{&destroyed});
        destroyed = 0;
        pool.erase(h);
        EXPECT_EQ(destroyed, 1);
        destroyed = 0;
    }
    EXPECT_EQ(destroyed, 1); // the still-live first slot
}

TEST(Continuation, MoveTransfersOwnership)
{
    int fired = 0;
    Continuation a([&fired] { ++fired; });
    EXPECT_TRUE(static_cast<bool>(a));
    Continuation b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    b();
    EXPECT_EQ(fired, 1);
}

TEST(Continuation, FitsDocumentedBudgetAndForwardsArgs)
{
    // 48-byte budget: six pointer-sized captures fit exactly.
    void *p[6] = {};
    Continuation full([p] { (void)p; });
    full();

    InlineFunction<int(int), 16> addk(
        [base = 40](int x) { return base + x; });
    EXPECT_EQ(addk(2), 42);
}

TEST(Continuation, StageClosureIsByteCopiedIntact)
{
    // The usual `{this, handle}` stage closure is trivially copyable,
    // so moves are byte copies of the inline buffer.
    int out = 0;
    auto stage = [self = &out, h = 0xbeefu] {
        *self = static_cast<int>(h);
    };
    static_assert(std::is_trivially_copyable_v<decltype(stage)>);
    Continuation a(stage);
    Continuation b = std::move(a);
    Continuation c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(out, 0xbeef);
}

TEST(Continuation, NonTrivialClosureRelocatesAndDestroysExactlyOnce)
{
    // Counts live copies of itself: a relocation that copied instead
    // of moving, or a missed or doubled destroy, shows up here.
    struct Tracker
    {
        int *live;
        explicit Tracker(int *l) : live(l) { ++*live; }
        Tracker(Tracker &&o) noexcept : live(o.live) { ++*live; }
        ~Tracker() { --*live; }
    };

    int live = 0;
    int seen = 0;
    auto make = [&live, &seen](std::shared_ptr<int> token) {
        return [token = std::move(token), t = Tracker(&live), &seen] {
            seen += *token;
        };
    };
    static_assert(!std::is_trivially_copyable_v<decltype(make(nullptr))>);

    auto token = std::make_shared<int>(5);
    const std::weak_ptr<int> watch = token;
    Continuation a(make(std::move(token)));
    EXPECT_EQ(live, 1);
    EXPECT_EQ(watch.use_count(), 1);
    Continuation b = std::move(a);
    // Assigning over a held closure destroys the old one first.
    Continuation c(make(std::make_shared<int>(1)));
    EXPECT_EQ(live, 2);
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_FALSE(static_cast<bool>(b));
    EXPECT_EQ(watch.use_count(), 1);
    EXPECT_EQ(live, 1);

    // Through the event queue: in, invoked in place, destroyed.
    EventQueue eq;
    eq.schedule(1, std::move(c));
    EXPECT_FALSE(static_cast<bool>(c));
    EXPECT_EQ(watch.use_count(), 1);
    EXPECT_EQ(live, 1);
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(seen, 5);
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(live, 0);
}

TEST(EventQueue, InPlaceCallbackSurvivesArenaGrowth)
{
    // The first event schedules more than two arena chunks of events
    // (256 slots each) while it runs in its own slot, then reads its
    // captures back: its slot must neither move nor be reused.
    constexpr int fanout = 600;
    EventQueue eq;
    std::vector<int> ran(fanout, 0);
    bool checked = false;
    const std::uint64_t k1 = 0x0123456789abcdefULL;
    const std::uint64_t k2 = 0xfedcba9876543210ULL;
    eq.schedule(1, [&eq, &ran, &checked, k1, k2] {
        for (int i = 0; i < fanout; ++i)
            eq.schedule(1 + i % 3, [&ran, i] { ++ran[i]; });
        EXPECT_EQ(k1, 0x0123456789abcdefULL);
        EXPECT_EQ(k2, 0xfedcba9876543210ULL);
        EXPECT_EQ(ran.size(), static_cast<std::size_t>(fanout));
        checked = true;
    });
    EXPECT_TRUE(eq.runOne());
    EXPECT_TRUE(checked);
    EXPECT_GT(eq.arenaCapacity(), 512u);
    EXPECT_EQ(eq.size(), static_cast<std::size_t>(fanout));
    eq.run();
    for (int i = 0; i < fanout; ++i)
        ASSERT_EQ(ran[i], 1) << "event " << i;
    EXPECT_EQ(eq.executedCount(), static_cast<std::uint64_t>(fanout + 1));
}

Task
simpleCoro(EventQueue &eq, int &stage)
{
    stage = 1;
    co_await DelayAwaiter(eq, 10);
    stage = 2;
    co_await DelayAwaiter(eq, 10);
    stage = 3;
}

TEST(Task, RunsEagerlyAndSuspends)
{
    EventQueue eq;
    int stage = 0;
    Task t = simpleCoro(eq, stage);
    EXPECT_EQ(stage, 1); // ran until the first co_await
    EXPECT_FALSE(t.done());
    eq.run();
    EXPECT_EQ(stage, 3);
    EXPECT_TRUE(t.done());
    EXPECT_EQ(eq.now(), 20u);
}

Task
inner(EventQueue &eq, std::vector<int> &log)
{
    log.push_back(1);
    co_await DelayAwaiter(eq, 5);
    log.push_back(2);
}

Task
outer(EventQueue &eq, std::vector<int> &log)
{
    Task t = inner(eq, log);
    co_await t;
    log.push_back(3);
}

TEST(Task, AwaitsSubTask)
{
    EventQueue eq;
    std::vector<int> log;
    Task t = outer(eq, log);
    eq.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Task, ZeroDelayAwaitIsReady)
{
    EventQueue eq;
    int stage = 0;
    auto coro = [](EventQueue &eq, int &s) -> Task {
        co_await DelayAwaiter(eq, 0); // ready immediately, no suspend
        s = 1;
    };
    Task t = coro(eq, stage);
    EXPECT_EQ(stage, 1);
    EXPECT_TRUE(t.done());
    EXPECT_TRUE(eq.empty());
}

#ifndef NDEBUG
TEST(TaskDeathTest, ResumingDestroyedFrameIsCaught)
{
    // Classic discrete-event lifetime bug: an event holding a
    // coroutine resumption outlives the coroutine.  Debug builds
    // route every scheduled resumption through resumeLive(), which
    // panics instead of resuming freed memory.
    EventQueue eq;
    {
        auto coro = [](EventQueue &q) -> Task {
            co_await DelayAwaiter(q, 5);
        };
        Task t = coro(eq);
        EXPECT_FALSE(t.done());
    } // frame destroyed; its resumption is still scheduled
    EXPECT_DEATH(eq.run(), "destroyed");
}
#endif

} // namespace
} // namespace pei
