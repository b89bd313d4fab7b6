#include "sim/event_queue.hh"

#include <atomic>
#include <mutex>

namespace sim {

// --------------------------------------------------------------------
// Pooled storage for out-of-line event captures (see sim/event.hh).
//
// Each thread owns a Pool. A node remembers its owning pool in a
// header word, so a free from any thread returns it to the pool that
// carved it: same-thread frees take the plain free list, cross-thread
// frees push onto the owner's lock-free MPSC return stack, drained by
// the owner before it carves a new slab. Without the header, a node
// allocated on one thread and freed on another would land on the
// *freeing* thread's list while its slab belonged to the allocator —
// reuse after the allocator thread exits would be use-after-free.
//
// Pools of exited threads retire into a registry and are deleted once
// their live allocation count drains to zero (a worker thread may exit
// before the event queue holding its events does, so those events may
// be freed arbitrarily late).
// --------------------------------------------------------------------

namespace detail {

namespace {

// Power-of-two size classes from 64 B to 4 KiB; anything larger falls
// back to the global heap (no simulator capture is that big).
constexpr std::size_t minClassShift = 6;
constexpr std::size_t maxClassShift = 12;
constexpr unsigned numClasses = maxClassShift - minClassShift + 1;
constexpr unsigned slabNodes = 64;

/** Node header: free-list link plus owner backpointer. 16 bytes, so
 *  payloads keep max_align_t alignment (class sizes are multiples of
 *  16 and operator new returns 16-aligned slabs). */
struct FreeNode
{
    FreeNode *next;
};

struct Pool;

struct NodeHeader
{
    FreeNode link;
    Pool *owner;
};

constexpr std::size_t headerBytes = sizeof(NodeHeader);
static_assert(headerBytes == 16 && headerBytes % alignof(std::max_align_t) == 0);

struct Pool
{
    /** Owner-thread free lists (no synchronization needed). */
    FreeNode *free[numClasses] = {};
    /** Cross-thread return stacks: CAS-pushed by foreign threads,
     *  exchange-drained by the owner. */
    std::atomic<FreeNode *> remote[numClasses] = {};
    std::vector<void *> slabs;
    /** Outstanding allocations; gates reaping of retired pools. */
    std::atomic<std::size_t> live{0};

    ~Pool()
    {
        for (void *s : slabs)
            ::operator delete(s);
    }
};

struct PoolRegistry
{
    std::mutex mu;
    std::vector<Pool *> retired;
};

PoolRegistry &
poolRegistry()
{
    // Leaked intentionally: thread-exit order vs static destruction
    // order is unknowable, and the registry must outlive both.
    static PoolRegistry *r = new PoolRegistry;
    return *r;
}

/** Delete retired pools whose last in-flight node has been freed. */
void
reapRetired()
{
    PoolRegistry &r = poolRegistry();
    std::lock_guard<std::mutex> g(r.mu);
    std::erase_if(r.retired, [](Pool *p) {
        if (p->live.load(std::memory_order_acquire) != 0)
            return false;
        delete p;
        return true;
    });
}

struct PoolHandle
{
    Pool *p;

    PoolHandle() : p(new Pool)
    {
        reapRetired();
    }

    ~PoolHandle()
    {
        if (p->live.load(std::memory_order_acquire) == 0) {
            delete p;
        } else {
            PoolRegistry &r = poolRegistry();
            std::lock_guard<std::mutex> g(r.mu);
            r.retired.push_back(p);
        }
        reapRetired();
    }
};

Pool &
pool()
{
    static thread_local PoolHandle h;
    return *h.p;
}

unsigned
classIndex(std::size_t size)
{
    unsigned shift = minClassShift;
    while ((std::size_t(1) << shift) < size)
        ++shift;
    return shift - minClassShift;
}

NodeHeader *
headerOf(void *payload)
{
    return reinterpret_cast<NodeHeader *>(
        static_cast<unsigned char *>(payload) - headerBytes);
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
        // Drain nodes other threads returned to us (the chain is
        // already linked through the headers' next pointers).
        p.free[ci] = p.remote[ci].exchange(nullptr,
                                           std::memory_order_acquire);
    }
    if (!p.free[ci]) {
        std::size_t stride =
            (std::size_t(1) << (ci + minClassShift)) + headerBytes;
        auto *slab =
            static_cast<unsigned char *>(::operator new(stride * slabNodes));
        p.slabs.push_back(slab);
        for (unsigned i = 0; i < slabNodes; ++i) {
            auto *h = reinterpret_cast<NodeHeader *>(slab + i * stride);
            h->owner = &p;
            h->link.next = p.free[ci];
            p.free[ci] = &h->link;
        }
    }
    FreeNode *n = p.free[ci];
    p.free[ci] = n->next;
    p.live.fetch_add(1, std::memory_order_relaxed);
    return reinterpret_cast<unsigned char *>(n) + headerBytes;
}

void
eventFree(void *ptr, std::size_t size) noexcept
{
    if (size > (std::size_t(1) << maxClassShift)) {
        ::operator delete(ptr);
        return;
    }
    unsigned ci = classIndex(size);
    NodeHeader *h = headerOf(ptr);
    Pool *owner = h->owner;
    if (owner == &pool()) {
        h->link.next = owner->free[ci];
        owner->free[ci] = &h->link;
        owner->live.fetch_sub(1, std::memory_order_relaxed);
        return;
    }
    // Foreign free: push onto the owner's return stack. The release
    // CAS publishes the link write; the owner's acquire drain (and the
    // reaper's acquire load of live) observe the full node.
    FreeNode *head = owner->remote[ci].load(std::memory_order_relaxed);
    do {
        h->link.next = head;
    } while (!owner->remote[ci].compare_exchange_weak(
        head, &h->link, std::memory_order_release,
        std::memory_order_relaxed));
    owner->live.fetch_sub(1, std::memory_order_release);
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
