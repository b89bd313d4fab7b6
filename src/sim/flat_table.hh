/**
 * @file
 * Flat bookkeeping containers for the per-message path. Requests,
 * responses and probes look up MSHRs, line locks, directory entries
 * and transaction records on every step; node-based maps and lists
 * would allocate per message. These three pieces replace them:
 *
 *  - FlatIndex: an open-addressing u32 key -> u32 slot index (linear
 *    probing, backward-shift deletion, grown on demand);
 *  - SlotPool<T>: slot storage whose elements never move (chunked),
 *    with a LIFO free list, so a reused slot keeps whatever capacity
 *    its members had;
 *  - SlotList: a doubly linked list threaded through pool slots by
 *    index (LRU orders, insertion orders, FIFOs).
 *
 * None of them iterates in an order that depends on the layout unless
 * the caller asks for it (FlatIndex::forEach); every reader that
 * reaches output walks a SlotList or sorts.
 */

#ifndef COHESION_SIM_FLAT_TABLE_HH
#define COHESION_SIM_FLAT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sim {

/** "No slot": the empty FlatIndex value and the SlotList terminator. */
inline constexpr std::uint32_t noSlot = ~std::uint32_t(0);

/**
 * Open-addressing map from a u32 key to a u32 value (a slot index).
 * Any key is legal; a bucket is empty when its value is noSlot, so
 * noSlot itself cannot be stored. Capacity is a power of two, starts
 * at zero and doubles whenever the load would pass one half.
 */
class FlatIndex
{
  public:
    /** The value stored for @p key, or noSlot. */
    std::uint32_t
    find(std::uint32_t key) const
    {
        if (_size == 0)
            return noSlot;
        for (std::uint32_t i = home(key);; i = (i + 1) & _mask) {
            const Bucket &b = _buckets[i];
            if (b.value == noSlot)
                return noSlot;
            if (b.key == key)
                return b.value;
        }
    }

    /** Map @p key to @p value. The key must be absent. */
    void
    insert(std::uint32_t key, std::uint32_t value)
    {
        if (2 * (_size + 1) > _buckets.size())
            grow();
        place(key, value);
        ++_size;
    }

    /** Remove @p key; returns false when it was absent. */
    bool
    erase(std::uint32_t key)
    {
        if (_size == 0)
            return false;
        std::uint32_t i = home(key);
        for (;; i = (i + 1) & _mask) {
            if (_buckets[i].value == noSlot)
                return false;
            if (_buckets[i].key == key)
                break;
        }
        // Backward-shift deletion: pull each later member of the probe
        // run into the hole when the hole lies between its home and
        // its bucket, so lookups never need tombstones.
        for (std::uint32_t j = (i + 1) & _mask;
             _buckets[j].value != noSlot; j = (j + 1) & _mask) {
            std::uint32_t h = home(_buckets[j].key);
            if (((j - h) & _mask) >= ((j - i) & _mask)) {
                _buckets[i] = _buckets[j];
                i = j;
            }
        }
        _buckets[i].value = noSlot;
        --_size;
        return true;
    }

    std::size_t size() const { return _size; }

    /** Drop every key (the bucket array is kept). */
    void
    clear()
    {
        for (Bucket &b : _buckets)
            b.value = noSlot;
        _size = 0;
    }

    /** Visit every (key, value) in bucket order, which depends on the
     *  table's history: callers that produce output must sort. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Bucket &b : _buckets) {
            if (b.value != noSlot)
                fn(b.key, b.value);
        }
    }

  private:
    struct Bucket
    {
        std::uint32_t key = 0;
        std::uint32_t value = noSlot;
    };

    /** Fibonacci hashing: the top bits of key * 2^32/phi. */
    std::uint32_t
    home(std::uint32_t key) const
    {
        return static_cast<std::uint32_t>(
            (std::uint64_t(key) * 0x9E3779B97F4A7C15ull) >> _shift);
    }

    void
    place(std::uint32_t key, std::uint32_t value)
    {
        std::uint32_t i = home(key);
        while (_buckets[i].value != noSlot)
            i = (i + 1) & _mask;
        _buckets[i] = Bucket{key, value};
    }

    void
    grow()
    {
        std::vector<Bucket> old;
        old.swap(_buckets);
        std::size_t cap = old.empty() ? 8 : 2 * old.size();
        _buckets.assign(cap, Bucket{});
        _mask = static_cast<std::uint32_t>(cap - 1);
        _shift = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            --_shift;
        for (const Bucket &b : old) {
            if (b.value != noSlot)
                place(b.key, b.value);
        }
    }

    std::vector<Bucket> _buckets;
    std::uint32_t _mask = 0;
    unsigned _shift = 64;
    std::size_t _size = 0;
};

/**
 * Slot storage with stable addresses: elements live in fixed-size
 * chunks that are never reallocated, so a reference taken before a
 * later alloc() stays valid. free() puts a slot on a LIFO list and
 * leaves its contents alone; the next alloc() hands back the same
 * object, so its vectors keep their capacity. Callers reset fields.
 */
template <typename T>
class SlotPool
{
  public:
    /** A slot index; reuses the most recently freed slot first. */
    std::uint32_t
    alloc()
    {
        ++_live;
        if (!_free.empty()) {
            std::uint32_t s = _free.back();
            _free.pop_back();
            return s;
        }
        if ((_created & chunkMask) == 0)
            _chunks.push_back(std::make_unique<T[]>(chunkSize));
        return _created++;
    }

    void
    free(std::uint32_t s)
    {
        _free.push_back(s);
        --_live;
    }

    T &
    operator[](std::uint32_t s)
    {
        return _chunks[s >> chunkShift][s & chunkMask];
    }

    const T &
    operator[](std::uint32_t s) const
    {
        return _chunks[s >> chunkShift][s & chunkMask];
    }

    /** Slots currently allocated. */
    std::uint32_t live() const { return _live; }

    /** Slots ever created: every index ever returned is below this. */
    std::uint32_t created() const { return _created; }

    /** Mark every slot free (storage is kept). */
    void
    reset()
    {
        _free.clear();
        for (std::uint32_t s = _created; s-- > 0;)
            _free.push_back(s);
        _live = 0;
    }

  private:
    static constexpr unsigned chunkShift = 6;
    static constexpr std::uint32_t chunkSize = 1u << chunkShift;
    static constexpr std::uint32_t chunkMask = chunkSize - 1;

    std::vector<std::unique_ptr<T[]>> _chunks;
    std::vector<std::uint32_t> _free;
    std::uint32_t _created = 0;
    std::uint32_t _live = 0;
};

/**
 * Head and tail of a doubly linked list threaded through a SlotPool
 * whose element type has `std::uint32_t prev, next` members.
 */
struct SlotList
{
    std::uint32_t head = noSlot;
    std::uint32_t tail = noSlot;
    std::uint32_t size = 0;

    bool empty() const { return size == 0; }

    template <typename Pool>
    void
    pushBack(Pool &pool, std::uint32_t s)
    {
        pool[s].prev = tail;
        pool[s].next = noSlot;
        if (tail != noSlot)
            pool[tail].next = s;
        else
            head = s;
        tail = s;
        ++size;
    }

    template <typename Pool>
    void
    unlink(Pool &pool, std::uint32_t s)
    {
        std::uint32_t p = pool[s].prev;
        std::uint32_t n = pool[s].next;
        if (p != noSlot)
            pool[p].next = n;
        else
            head = n;
        if (n != noSlot)
            pool[n].prev = p;
        else
            tail = p;
        --size;
    }

    /** Move @p s to the tail (most recent end). */
    template <typename Pool>
    void
    moveToBack(Pool &pool, std::uint32_t s)
    {
        if (s == tail)
            return;
        unlink(pool, s);
        pushBack(pool, s);
    }
};

} // namespace sim

#endif // COHESION_SIM_FLAT_TABLE_HH
