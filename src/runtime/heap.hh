/**
 * @file
 * Simple line-granular heap allocator over a simulated address range.
 * Two instances exist: the conventional coherent heap (libc-style
 * malloc/free; data always HWcc) and the incoherent heap (coh_malloc/
 * coh_free; minimum 64-byte allocation so allocator metadata can stay
 * coherent — Section 3.5).
 */

#ifndef COHESION_RUNTIME_HEAP_HH
#define COHESION_RUNTIME_HEAP_HH

#include <cstdint>
#include <map>
#include <string>

#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace runtime {

class Heap
{
  public:
    /**
     * @param name      Diagnostic name.
     * @param base      First managed address (line aligned).
     * @param size      Managed bytes.
     * @param min_alloc Minimum allocation granule (>= one line).
     */
    Heap(std::string name, mem::Addr base, std::uint32_t size,
         std::uint32_t min_alloc = mem::lineBytes)
        : _name(std::move(name)), _base(base), _limit(base + size),
          _minAlloc(min_alloc)
    {
        fatal_if(base & (mem::lineBytes - 1), _name,
                 ": heap base must be line aligned");
        fatal_if(min_alloc < mem::lineBytes, _name,
                 ": minimum allocation below line size");
        _free.emplace(base, size);
    }

    mem::Addr base() const { return _base; }
    mem::Addr limit() const { return _limit; }

    /** True if @p a points into this heap's range. */
    bool
    contains(mem::Addr a) const
    {
        return a >= _base && a < _limit;
    }

    /** Allocate @p bytes (rounded up to the granule); first-fit. */
    mem::Addr
    alloc(std::uint32_t bytes)
    {
        std::uint32_t need = roundUp(bytes);
        for (auto it = _free.begin(); it != _free.end(); ++it) {
            auto [start, size] = *it;
            if (size < need)
                continue;
            _free.erase(it);
            if (size > need)
                _free.emplace(start + need, size - need);
            _allocated.emplace(start, need);
            _bytesLive += need;
            if (_bytesLive > _peakBytes)
                _peakBytes = _bytesLive;
            return start;
        }
        fatal(_name, ": out of memory allocating ", bytes, " bytes");
    }

    /** Release a previous allocation (coalesces with neighbours). */
    void
    free(mem::Addr a)
    {
        auto it = _allocated.find(a);
        fatal_if(it == _allocated.end(), _name,
                 ": free of unallocated address 0x", std::hex, a);
        std::uint32_t size = it->second;
        _allocated.erase(it);
        _bytesLive -= size;

        auto [fit, ok] = _free.emplace(a, size);
        panic_if(!ok, "free block collision");
        // Coalesce forward.
        auto next = std::next(fit);
        if (next != _free.end() && fit->first + fit->second == next->first) {
            fit->second += next->second;
            _free.erase(next);
        }
        // Coalesce backward.
        if (fit != _free.begin()) {
            auto prev = std::prev(fit);
            if (prev->first + prev->second == fit->first) {
                prev->second += fit->second;
                _free.erase(fit);
            }
        }
    }

    std::uint32_t bytesLive() const { return _bytesLive; }
    std::uint32_t peakBytes() const { return _peakBytes; }
    std::size_t allocations() const { return _allocated.size(); }

    /** Snapshot hook. The free and allocated maps restore exactly,
     *  so first-fit allocations after a restore land at the same
     *  addresses as in an uninterrupted session — address-sensitive
     *  workloads stay bit-identical. */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("heap:" + _name);
        auto blocks = [&](std::map<mem::Addr, std::uint32_t> &m) {
            std::uint64_t n = m.size();
            ar.count(n);
            if (!ar.loading()) {
                for (auto &[start, size] : m) {
                    mem::Addr at = start;
                    ar(at);
                    ar(size);
                }
                return;
            }
            m.clear();
            for (std::uint64_t i = 0; i < n; ++i) {
                mem::Addr start = 0;
                std::uint32_t size = 0;
                ar(start);
                ar(size);
                m.emplace(start, size);
            }
        };
        blocks(_free);
        blocks(_allocated);
        ar(_bytesLive);
        ar(_peakBytes);
    }

  private:
    std::uint32_t
    roundUp(std::uint32_t bytes) const
    {
        if (bytes < _minAlloc)
            bytes = _minAlloc;
        return (bytes + mem::lineBytes - 1) & ~(mem::lineBytes - 1);
    }

    std::string _name;
    mem::Addr _base;
    mem::Addr _limit;
    std::uint32_t _minAlloc;
    std::map<mem::Addr, std::uint32_t> _free;      // start -> size
    std::map<mem::Addr, std::uint32_t> _allocated; // start -> size
    std::uint32_t _bytesLive = 0;
    std::uint32_t _peakBytes = 0;
};

} // namespace runtime

#endif // COHESION_RUNTIME_HEAP_HH
