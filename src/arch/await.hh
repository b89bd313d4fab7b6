/**
 * @file
 * Awaitable building blocks for protocol coroutines: fixed-tick
 * delays, ack-gathering gates (probe fan-out), and a per-line lock
 * table that serializes all transactions for a line through its home
 * bank — the paper's race-avoidance mechanism (Section 3.2).
 */

#ifndef COHESION_ARCH_AWAIT_HH
#define COHESION_ARCH_AWAIT_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/flat_table.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"

namespace arch {

/** Awaitable that resumes the coroutine at an absolute tick. */
struct Delay
{
    sim::EventQueue &eq;
    sim::Tick until;

    bool await_ready() const { return until <= eq.now(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        // Capture the sampled host-profiler phase open at suspension
        // and re-open it around the resume, so a transaction's later
        // segments stay attributed to their component.
        eq.schedule(until, [h, p = sim::HostProfiler::resumePhase()]() {
            sim::HostProfiler::Scope hp(
                p, sim::HostProfiler::Scope::Resume{});
            h.resume();
        });
    }

    void await_resume() const {}
};

/**
 * Bounded exponential backoff for retry loops (transition-protocol
 * nacks, owner-evicted races, injected message drops). Each next()
 * returns the delay for the upcoming attempt and doubles the stride up
 * to the cap, so colliding retries spread out instead of livelocking
 * in lockstep.
 */
struct Backoff
{
    sim::Tick stride;
    sim::Tick cap;
    unsigned tries = 0;

    explicit Backoff(sim::Tick base = 8, sim::Tick limit = 1024)
        : stride(base), cap(limit)
    {}

    sim::Tick
    next()
    {
        ++tries;
        sim::Tick d = stride;
        stride = std::min(stride * 2, cap);
        return d;
    }

    unsigned attempts() const { return tries; }
};

/**
 * Counts expected acknowledgements; the awaiting coroutine resumes
 * when all have arrived. signal() may be called before wait() begins
 * (acks can beat the await), which completes synchronously.
 */
class AckGate
{
  public:
    /** Declare how many acks are expected. Resets previous state. */
    void
    expect(unsigned n)
    {
        panic_if(_waiter, "AckGate re-armed while awaited");
        _expected = n;
        _arrived = 0;
    }

    /** One ack arrived; resumes the waiter when the count completes. */
    void
    signal()
    {
        ++_arrived;
        panic_if(_arrived > _expected, "more acks than expected");
        if (_arrived == _expected && _waiter) {
            auto h = _waiter;
            _waiter = nullptr;
            h.resume();
        }
    }

    struct Awaiter
    {
        AckGate &gate;

        bool
        await_ready() const
        {
            return gate._arrived >= gate._expected;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            gate._waiter = h;
        }

        void await_resume() const {}
    };

    /** Await all expected acks. */
    Awaiter wait() { return Awaiter{*this}; }

  private:
    unsigned _expected = 0;
    unsigned _arrived = 0;
    std::coroutine_handle<> _waiter;
};

/**
 * Per-line mutual exclusion for home-bank transactions. Acquisition
 * order is FIFO; release hands the line to the next waiter via a
 * zero-delay event (avoiding unbounded resume recursion). A line has
 * a state slot only while it is held; its waiters queue in a list of
 * pooled nodes, so neither locking nor queueing allocates once the
 * pools have grown to the bank's working set.
 */
class LineLockTable
{
  public:
    explicit LineLockTable(sim::EventQueue &eq) : _eq(eq) {}

    struct Acquire
    {
        LineLockTable &table;
        std::uint32_t line;

        bool
        await_ready() const
        {
            return table._index.find(line) == sim::noSlot;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            std::uint32_t w = table._waiters.alloc();
            table._waiters[w].handle = h;
            table._queues[table._index.find(line)].pushBack(
                table._waiters, w);
        }

        void
        await_resume() const
        {
            // A waiter resumes already holding the line (release()
            // handed it over); a free line gets its state slot here.
            if (table._index.find(line) == sim::noSlot)
                table._index.insert(line, table._queues.alloc());
        }
    };

    /** Await exclusive ownership of @p line. Pair with release(). */
    Acquire acquire(std::uint32_t line) { return Acquire{*this, line}; }

    /** Release @p line, waking the next queued transaction. */
    void
    release(std::uint32_t line)
    {
        std::uint32_t s = _index.find(line);
        panic_if(s == sim::noSlot, "releasing a line lock that is not held");
        sim::SlotList &queue = _queues[s];
        if (queue.empty()) {
            _index.erase(line);
            _queues.free(s);
            return;
        }
        // Hand the hold directly to the next waiter (the line stays
        // held so a newcomer cannot sneak in before the waiter's
        // resume event).
        std::uint32_t w = queue.head;
        auto h = _waiters[w].handle;
        queue.unlink(_waiters, w);
        _waiters.free(w);
        // The waiter is another transaction of the same component:
        // re-open the releasing phase around its resume, but as a
        // fresh stride-sampled entry, not a Resume continuation — the
        // hand-off crosses transactions, and an unconditional timer
        // here would cascade through every dependent waiter chain.
        // The profiler's sampling unit is thus a maximal Delay-chain
        // starting at a request receipt or a lock grant.
        _eq.scheduleIn(0, [h, p = sim::HostProfiler::resumePhase()]() {
            sim::HostProfiler::Scope hp(p);
            h.resume();
        });
    }

    /** True if any transaction holds or waits on @p line. */
    bool
    busy(std::uint32_t line) const
    {
        return _index.find(line) != sim::noSlot;
    }

  private:
    struct Waiter
    {
        std::coroutine_handle<> handle;
        std::uint32_t prev = sim::noSlot;
        std::uint32_t next = sim::noSlot;
    };

    sim::EventQueue &_eq;
    sim::FlatIndex _index; ///< held line -> its waiter queue's slot
    sim::SlotPool<sim::SlotList> _queues; ///< FIFOs, head = next owner
    sim::SlotPool<Waiter> _waiters;
};

/**
 * RAII guard releasing a line lock when a transaction coroutine
 * finishes (normally or via exception unwind). Movable so ownership
 * can be handed between scopes; shared by the bank and the coherence
 * backends.
 */
class [[nodiscard]] Held
{
  public:
    Held(LineLockTable &table, std::uint32_t line)
        : _table(&table), _line(line)
    {}

    Held(Held &&other) noexcept
        : _table(std::exchange(other._table, nullptr)), _line(other._line)
    {}

    Held(const Held &) = delete;
    Held &operator=(const Held &) = delete;
    Held &operator=(Held &&) = delete;

    ~Held()
    {
        if (_table)
            _table->release(_line);
    }

  private:
    LineLockTable *_table;
    std::uint32_t _line;
};

} // namespace arch

#endif // COHESION_ARCH_AWAIT_HH
