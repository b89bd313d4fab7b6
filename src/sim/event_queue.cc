#include "sim/event_queue.hh"

namespace sim {

// --------------------------------------------------------------------
// Pooled storage for out-of-line event captures (see sim/event.hh).
//
// Each thread owns one Pool: per size class, a free list threaded
// through the free nodes themselves, fed 64 nodes at a time from slabs
// that the pool frees when its thread exits. An event is destroyed on
// the thread that built it, so a node always comes back to the pool
// that carved it and no free needs synchronization.
// --------------------------------------------------------------------

namespace detail {

namespace {

// Power-of-two size classes from 64 B to 4 KiB; anything larger falls
// back to the global heap (no simulator capture is that big). Class
// sizes are multiples of 16 and operator new returns 16-aligned slabs,
// so every node keeps max_align_t alignment.
constexpr std::size_t minClassShift = 6;
constexpr std::size_t maxClassShift = 12;
constexpr unsigned numClasses = maxClassShift - minClassShift + 1;
constexpr unsigned slabNodes = 64;

/** A free node's first word links it into its class's free list. */
struct FreeNode
{
    FreeNode *next;
};

struct Pool
{
    FreeNode *free[numClasses] = {};
    std::vector<void *> slabs;

    ~Pool()
    {
        for (void *s : slabs)
            ::operator delete(s);
    }
};

Pool &
pool()
{
    static thread_local Pool p;
    return p;
}

unsigned
classIndex(std::size_t size)
{
    unsigned shift = minClassShift;
    while ((std::size_t(1) << shift) < size)
        ++shift;
    return shift - minClassShift;
}

} // namespace

void *
eventAlloc(std::size_t size)
{
    if (size > (std::size_t(1) << maxClassShift))
        return ::operator new(size);
    unsigned ci = classIndex(size);
    Pool &p = pool();
    if (!p.free[ci]) {
        std::size_t stride = std::size_t(1) << (ci + minClassShift);
        auto *slab =
            static_cast<unsigned char *>(::operator new(stride * slabNodes));
        p.slabs.push_back(slab);
        for (unsigned i = 0; i < slabNodes; ++i) {
            auto *n = reinterpret_cast<FreeNode *>(slab + i * stride);
            n->next = p.free[ci];
            p.free[ci] = n;
        }
    }
    FreeNode *n = p.free[ci];
    p.free[ci] = n->next;
    return n;
}

void
eventFree(void *ptr, std::size_t size) noexcept
{
    if (size > (std::size_t(1) << maxClassShift)) {
        ::operator delete(ptr);
        return;
    }
    unsigned ci = classIndex(size);
    Pool &p = pool();
    auto *n = static_cast<FreeNode *>(ptr);
    n->next = p.free[ci];
    p.free[ci] = n;
}

} // namespace detail

// --------------------------------------------------------------------
// EventQueue
// --------------------------------------------------------------------

std::size_t
EventQueue::fireBucket(Tick t, std::size_t max_events)
{
    std::size_t idx = t & bucketMask;
    Bucket &b = _buckets[idx];
    std::size_t fired = 0;
    // Re-read size() every iteration: a firing event may append more
    // same-tick events (and grow/reallocate the vector).
    while (b.head < b.events.size() && fired < max_events) {
        Event ev = std::move(b.events[b.head++]);
        if (b.head == b.events.size()) {
            // Reset before invoking so a same-tick reschedule from
            // inside the callback lands in a clean bucket.
            b.events.clear();
            b.head = 0;
            _occupied[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
        }
        --_size;
        ++_eventsRun;
        ++fired;
        ev();
    }
    return fired;
}

void
EventQueue::runOne()
{
    panic_if(empty(), "runOne on empty event queue");
    Tick t = nextEventTick();
    _now = t;
    _lastFired = t;
    if (t > _base)
        rebase(t);
    fireBucket(t, 1);
}

bool
EventQueue::run(Tick limit)
{
    while (_size) {
        Tick t = nextEventTick();
        if (t > limit) {
            _now = limit;
            return false;
        }
        _now = t;
        _lastFired = t;
        if (t > _base)
            rebase(t);
        fireBucket(t, ~std::size_t(0));
    }
    return true;
}

} // namespace sim
