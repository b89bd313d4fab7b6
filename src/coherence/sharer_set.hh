/**
 * @file
 * Sharer tracking for directory entries. Two representations from the
 * paper: a full-map bit vector (one bit per L2/cluster cache, used by
 * the optimistic baseline) and a limited-pointer Dir4B scheme
 * (Agarwal et al. [2]): four pointers plus a broadcast bit; pointer
 * overflow degrades to broadcast, after which invalidations must be
 * sent to every L2 and only an approximate sharer count remains.
 */

#ifndef COHESION_COHERENCE_SHARER_SET_HH
#define COHESION_COHERENCE_SHARER_SET_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace coherence {

/** Sharer representation selector. */
enum class SharerKind : std::uint8_t {
    FullMap,   ///< One presence bit per L2 (exact).
    LimitedPtr ///< DiriB: i pointers + broadcast bit (approximate).
};

class SharerSet
{
  public:
    /** Inline storage: 64-bit words holding either the full-map
     *  bitmap or the packed 16-bit pointer list, so an entry never
     *  touches the heap. */
    static constexpr unsigned inlineWords = 4;
    /** Largest full-map machine (one bit per L2). */
    static constexpr unsigned maxCaches = 64 * inlineWords;
    /** Largest pointer budget for the limited scheme. */
    static constexpr unsigned maxPointerSlots = 4 * inlineWords;

    /**
     * @param kind      Representation.
     * @param num_caches Number of L2 caches in the system.
     * @param pointers  Pointer count for LimitedPtr (4 => Dir4B).
     */
    SharerSet(SharerKind kind = SharerKind::FullMap,
              unsigned num_caches = 0, unsigned pointers = 4)
        : _kind(kind), _numCaches(num_caches), _maxPointers(pointers)
    {
        fatal_if(_kind == SharerKind::FullMap && num_caches > maxCaches,
                 "full-map sharer sets hold at most ", maxCaches,
                 " caches (", num_caches, " requested)");
        fatal_if(_kind == SharerKind::LimitedPtr &&
                     pointers > maxPointerSlots,
                 "limited-pointer sharer sets hold at most ",
                 maxPointerSlots, " pointers (", pointers, " requested)");
    }

    SharerKind kind() const { return _kind; }
    bool broadcast() const { return _broadcast; }
    unsigned count() const { return _count; }
    bool empty() const { return _count == 0; }

    /**
     * Add cache @p id as a sharer. Idempotent while the identity of
     * sharers is known (full map / in-pointer). Under broadcast the
     * identity is lost, so the approximate count increments on every
     * add: contains() is conservatively true for everyone there, and
     * gating the increment on it would leave genuinely new sharers
     * uncounted — paired removes would then drop the count to zero and
     * clear broadcast while live sharers remain, excluding them from
     * probeTargets() (a missed invalidation). Re-adding an existing
     * sharer under broadcast therefore overcounts, which errs safe:
     * broadcast just clears later than strictly necessary.
     */
    void
    add(unsigned id)
    {
        if (_kind == SharerKind::LimitedPtr && _broadcast) {
            ++_count;
            return;
        }
        if (contains(id))
            return;
        if (_kind == SharerKind::FullMap) {
            _words[id / 64] |= std::uint64_t(1) << (id % 64);
        } else {
            if (_numPointers < _maxPointers) {
                setPointer(_numPointers++, id);
            } else {
                // Pointer overflow: degrade to broadcast mode.
                _broadcast = true;
                _numPointers = 0;
            }
        }
        ++_count;
    }

    /**
     * Remove cache @p id. Under broadcast the identity of sharers is
     * lost, so only the approximate count is decremented.
     */
    void
    remove(unsigned id)
    {
        if (_kind == SharerKind::FullMap) {
            std::uint64_t bit = std::uint64_t(1) << (id % 64);
            if (!(_words[id / 64] & bit))
                return;
            _words[id / 64] &= ~bit;
            --_count;
        } else if (_broadcast) {
            if (_count > 0)
                --_count;
            if (_count == 0)
                _broadcast = false;
        } else {
            for (unsigned i = 0; i < _numPointers; ++i) {
                if (pointer(i) == id) {
                    // Close the gap: probe order is insertion order.
                    for (unsigned j = i + 1; j < _numPointers; ++j)
                        setPointer(j - 1, pointer(j));
                    --_numPointers;
                    --_count;
                    return;
                }
            }
        }
    }

    /**
     * True if @p id may be a sharer. Exact for full-map and in-pointer
     * entries; conservatively true for everyone in broadcast mode.
     */
    bool
    contains(unsigned id) const
    {
        if (_kind == SharerKind::FullMap)
            return _words[id / 64] & (std::uint64_t(1) << (id % 64));
        if (_broadcast)
            return _count > 0;
        for (unsigned i = 0; i < _numPointers; ++i) {
            if (pointer(i) == id)
                return true;
        }
        return false;
    }

    /**
     * The set of caches an invalidation must probe: the exact sharers,
     * or every cache in the system when in broadcast mode.
     */
    std::vector<unsigned>
    probeTargets() const
    {
        std::vector<unsigned> out;
        if (_kind == SharerKind::FullMap) {
            for (unsigned id = 0; id < _numCaches; ++id) {
                if (contains(id))
                    out.push_back(id);
            }
        } else if (_broadcast) {
            out.reserve(_numCaches);
            for (unsigned id = 0; id < _numCaches; ++id)
                out.push_back(id);
        } else {
            for (unsigned i = 0; i < _numPointers; ++i)
                out.push_back(pointer(i));
        }
        return out;
    }

    /** The single sharer id; only valid when count() == 1 and exact. */
    unsigned
    soleSharer() const
    {
        panic_if(_count != 1 || _broadcast, "soleSharer on non-singleton");
        if (_kind == SharerKind::LimitedPtr)
            return pointer(0);
        for (unsigned id = 0; id < _numCaches; ++id) {
            if (contains(id))
                return id;
        }
        panic("full-map count/bitmap mismatch");
    }

    /** Drop all sharers. */
    void
    clear()
    {
        _words.fill(0);
        _numPointers = 0;
        _broadcast = false;
        _count = 0;
    }

    /** Snapshot hook. The shape (kind, cache count, pointer budget)
     *  is written too, and a restore demands the shape of the set it
     *  restores into: the directory builds each restored entry with
     *  its own shape first. Pointer ids index the machine's caches. */
    void
    snapshot(sim::Archive &ar)
    {
        ar.expect(_kind, "sharer kind");
        ar.expect(_numCaches, "sharer cache count");
        ar.expect(_maxPointers, "sharer pointer budget");
        ar(_count);
        ar(_broadcast);
        ar.below(_numPointers, _maxPointers + 1);
        for (unsigned i = 0; i < _numPointers; ++i) {
            unsigned id = pointer(i);
            ar.below(id, _numCaches);
            setPointer(i, id);
        }
        ar.expect(bitmapWords(), "sharer bitmap size");
        for (unsigned w = 0; w < bitmapWords(); ++w)
            ar(_words[w]);
    }

  private:
    /** Bitmap words a full-map set serializes (none for pointers). */
    unsigned
    bitmapWords() const
    {
        return _kind == SharerKind::FullMap ? (_numCaches + 63) / 64 : 0;
    }

    unsigned
    pointer(unsigned i) const
    {
        return static_cast<std::uint16_t>(_words[i / 4] >> (16 * (i % 4)));
    }

    void
    setPointer(unsigned i, unsigned id)
    {
        std::uint64_t &w = _words[i / 4];
        const unsigned shift = 16 * (i % 4);
        w = (w & ~(std::uint64_t(0xFFFF) << shift)) |
            (std::uint64_t(id & 0xFFFF) << shift);
    }

    SharerKind _kind;
    bool _broadcast = false;
    unsigned _numPointers = 0;
    unsigned _numCaches;
    unsigned _maxPointers;
    unsigned _count = 0;
    std::array<std::uint64_t, inlineWords> _words{};
};

} // namespace coherence

#endif // COHESION_COHERENCE_SHARER_SET_HH
