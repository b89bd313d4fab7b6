/**
 * @file
 * Discrete-event simulation core: a global tick counter and a bucketed
 * calendar queue (timing wheel) of scheduled callbacks. Events within
 * the wheel's horizon go straight into a per-tick bucket; far-future
 * events wait in a small binary heap and migrate into buckets as the
 * wheel advances. Events scheduled at the same tick fire in FIFO
 * order, which keeps simulations deterministic: bucket append order is
 * schedule order, and overflow entries carry a monotonically
 * increasing sequence number so they migrate in schedule order ahead
 * of any later same-tick append.
 *
 * Together with sim::Event (small-buffer callables over pooled nodes)
 * the common schedule->fire cycle performs zero heap allocations once
 * bucket vectors and pool slabs are warm.
 */

#ifndef COHESION_SIM_EVENT_QUEUE_HH
#define COHESION_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace sim {

/** Simulated time, in core clock cycles. */
using Tick = std::uint64_t;

/** Sentinel for "no limit". */
constexpr Tick maxTick = ~Tick(0);

/**
 * The event queue. One instance drives one simulated machine; there are
 * no globals so several machines can be simulated in one process (the
 * parameter-sweep benches rely on this).
 */
class EventQueue
{
  public:
    using Callback = Event;

    EventQueue()
        : _buckets(numBuckets), _occupied(numBuckets / 64, 0)
    {}

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events executed so far (for perf accounting). */
    std::uint64_t eventsRun() const { return _eventsRun; }

    /**
     * Tick of the most recently fired event. Unlike now(), this is not
     * disturbed by a bounded run() stopping at its limit, so the chip
     * can report the true final tick after a windowed run.
     */
    Tick lastFired() const { return _lastFired; }

    /** Number of events currently pending. */
    std::size_t pending() const { return _size; }

    /** Schedule @p cb to run at absolute tick @p when (>= now). */
    void
    schedule(Tick when, Event cb)
    {
        panic_if(when < _now, "scheduling event in the past: ", when,
                 " < ", _now);
        if (_now > _base)
            rebase(_now);
        ++_size;
        if (when - _base < numBuckets) {
            pushBucket(when, std::move(cb));
        } else {
            _far.push_back(FarEvent{when, _nextSeq, std::move(cb)});
            std::push_heap(_far.begin(), _far.end(), FarLater{});
        }
        ++_nextSeq;
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Event cb)
    {
        schedule(_now + delta, std::move(cb));
    }

    /** True if no events are pending. */
    bool empty() const { return _size == 0; }

    /** Tick of the next pending event; maxTick when empty. */
    Tick
    nextEventTick() const
    {
        if (_size > _far.size())
            return _base + wheelScan();
        return _far.empty() ? maxTick : _far.front().when;
    }

    /** Execute a single event, advancing time to it. */
    void runOne();

    /**
     * Run until the queue drains or @p limit is reached.
     * @return true if the queue drained, false if the limit stopped us.
     */
    bool run(Tick limit = maxTick);

    /**
     * Advance the clock to @p when without running anything; used by
     * drivers that interleave synchronous work with events. It is an
     * error to skip over a pending event.
     */
    void
    advanceTo(Tick when)
    {
        panic_if(when < _now, "advanceTo moving backwards");
        panic_if(nextEventTick() < when, "advanceTo skipping events");
        _now = when;
    }

    /**
     * Snapshot hook: the (now, events run, next sequence) record.
     * Snapshots are only taken at quiescent points, so the queue must
     * be drained: the type-erased callables never serialize, only the
     * clock and the counters that make later scheduling (same-tick
     * tie-breaks) and reporting (events run) resume exactly where they
     * left off.
     */
    void
    snapshot(Archive &ar)
    {
        if (_size != 0)
            throw SnapshotError("checkpoint with events pending");
        panic_if(ar.loading() && _eventsRun != 0,
                 "restoring into a used event queue");
        ar(_now);
        ar(_eventsRun);
        ar(_nextSeq);
        if (ar.loading()) {
            _base = _now;
            _lastFired = _now;
        }
    }

  private:
    /** Wheel geometry: one bucket per tick across a 4096-tick horizon
     *  (covers every fabric/backoff/DRAM latency in the model; longer
     *  delays take the overflow heap). */
    static constexpr unsigned bucketBits = 12;
    static constexpr Tick numBuckets = Tick(1) << bucketBits;
    static constexpr Tick bucketMask = numBuckets - 1;

    /** One tick's events; head is the fire cursor so consuming is
     *  O(1) and the vector's capacity is recycled across laps. */
    struct Bucket
    {
        std::vector<Event> events;
        std::size_t head = 0;
    };

    struct FarEvent
    {
        Tick when;
        std::uint64_t seq;
        Event cb;
    };

    /** Heap comparator: the (when, seq)-smallest entry at the front. */
    struct FarLater
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    void
    pushBucket(Tick when, Event cb)
    {
        std::size_t idx = when & bucketMask;
        _buckets[idx].events.push_back(std::move(cb));
        _occupied[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    }

    /**
     * Slide the wheel's window forward to [base, base + numBuckets) and
     * migrate newly covered overflow events into their buckets. Called
     * before time advances past _base, so a migrated event always lands
     * in its bucket before any later same-tick schedule() appends —
     * preserving global FIFO order.
     */
    void
    rebase(Tick base)
    {
        _base = base;
        while (!_far.empty() && _far.front().when - _base < numBuckets) {
            std::pop_heap(_far.begin(), _far.end(), FarLater{});
            FarEvent f = std::move(_far.back());
            _far.pop_back();
            pushBucket(f.when, std::move(f.cb));
        }
    }

    /** Distance in ticks from _base to the first occupied bucket;
     *  requires at least one event in the wheel. */
    Tick
    wheelScan() const
    {
        const std::size_t start = _base & bucketMask;
        const std::size_t w0 = start >> 6;
        const unsigned bit = start & 63;
        const std::size_t words = _occupied.size();
        std::size_t idx;
        std::uint64_t hi = _occupied[w0] & (~std::uint64_t(0) << bit);
        if (hi) {
            idx = (w0 << 6) | std::countr_zero(hi);
        } else {
            idx = numBuckets; // sentinel
            for (std::size_t k = 1; k < words; ++k) {
                std::size_t w = w0 + k;
                if (w >= words)
                    w -= words;
                if (_occupied[w]) {
                    idx = (w << 6) | std::countr_zero(_occupied[w]);
                    break;
                }
            }
            if (idx == numBuckets) {
                std::uint64_t lo =
                    _occupied[w0] & ~(~std::uint64_t(0) << bit);
                panic_if(!lo, "event wheel occupancy out of sync");
                idx = (w0 << 6) | std::countr_zero(lo);
            }
        }
        return (idx - start) & bucketMask;
    }

    /** Fire the pending events of the bucket covering tick @p t
     *  (which must be _now) — at least one, at most @p max_events. */
    std::size_t fireBucket(Tick t, std::size_t max_events);

    std::vector<Bucket> _buckets;
    std::vector<std::uint64_t> _occupied; ///< Non-empty-bucket bitmap.
    std::vector<FarEvent> _far;           ///< Beyond-horizon min-heap.
    Tick _base = 0;                       ///< Wheel window origin.
    Tick _now = 0;
    Tick _lastFired = 0;
    std::size_t _size = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _eventsRun = 0;
};

} // namespace sim

#endif // COHESION_SIM_EVENT_QUEUE_HH
