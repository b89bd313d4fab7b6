/**
 * @file
 * Sparse backing store for the simulated 4 GB physical address space.
 * This is the architectural "DRAM contents"; caches keep their own
 * copies of line data so stale values are genuinely observable, which
 * the SWcc correctness tests depend on.
 */

#ifndef COHESION_MEM_BACKING_STORE_HH
#define COHESION_MEM_BACKING_STORE_HH

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace mem {

/**
 * Sparse page-granular byte store over the 32-bit space.
 *
 * Thread model: a chip touches its store only from the thread that
 * drives it. The page table is a fixed array of atomic pointers whose
 * lazy materialization is published with a CAS, so a page lookup stays
 * safe even if several threads fault in the same 64 KB page.
 */
class BackingStore
{
  public:
    static constexpr unsigned pageShift = 16; // 64 KB pages
    static constexpr unsigned pageBytes = 1u << pageShift;
    static constexpr std::size_t numPages = std::size_t(1)
                                            << (32 - pageShift);

    BackingStore() : _pages(numPages) {}

    ~BackingStore() { releaseAll(); }

    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    /** Read @p bytes at @p a into @p out. Untouched memory reads zero. */
    void
    read(Addr a, void *out, unsigned bytes) const
    {
        auto *dst = static_cast<std::uint8_t *>(out);
        while (bytes > 0) {
            unsigned chunk = chunkWithinPage(a, bytes);
            const std::uint8_t *p = peek(a);
            if (p) {
                std::memcpy(dst, p, chunk);
            } else {
                std::memset(dst, 0, chunk);
            }
            a += chunk;
            dst += chunk;
            bytes -= chunk;
        }
    }

    /** Write @p bytes at @p a from @p src, allocating pages on demand. */
    void
    write(Addr a, const void *src, unsigned bytes)
    {
        auto *s = static_cast<const std::uint8_t *>(src);
        while (bytes > 0) {
            unsigned chunk = chunkWithinPage(a, bytes);
            std::memcpy(poke(a), s, chunk);
            a += chunk;
            s += chunk;
            bytes -= chunk;
        }
    }

    /** Typed convenience accessors. */
    template <typename T>
    T
    readT(Addr a) const
    {
        T v;
        read(a, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeT(Addr a, T v)
    {
        write(a, &v, sizeof(T));
    }

    /** Number of pages materialized (footprint diagnostics). */
    std::size_t
    pagesAllocated() const
    {
        return _allocated.load(std::memory_order_relaxed);
    }

    /** Checkpoint hooks. Pages are written in ascending page-number
     *  order so snapshots of identical memory images are byte-identical
     *  regardless of allocation order. */
    void
    checkpointState(sim::Serializer &ser) const
    {
        ser.tag("store");
        ser.u64(pagesAllocated());
        for (std::size_t page = 0; page < numPages; ++page) {
            const std::uint8_t *p =
                _pages[page].load(std::memory_order_acquire);
            if (!p)
                continue;
            ser.u32(static_cast<std::uint32_t>(page));
            ser.bytes(p, pageBytes);
        }
    }

    void
    restoreState(sim::Deserializer &des)
    {
        des.tag("store");
        releaseAll();
        std::uint64_t n = des.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint32_t page = des.u32();
            auto *p = new std::uint8_t[pageBytes];
            des.bytes(p, pageBytes);
            _pages[page].store(p, std::memory_order_release);
        }
        _allocated.store(n, std::memory_order_relaxed);
    }

  private:
    static unsigned
    chunkWithinPage(Addr a, unsigned bytes)
    {
        unsigned room = pageBytes - (a & (pageBytes - 1));
        return bytes < room ? bytes : room;
    }

    const std::uint8_t *
    peek(Addr a) const
    {
        const std::uint8_t *p =
            _pages[a >> pageShift].load(std::memory_order_acquire);
        if (!p)
            return nullptr;
        return p + (a & (pageBytes - 1));
    }

    std::uint8_t *
    poke(Addr a)
    {
        auto &slot = _pages[a >> pageShift];
        std::uint8_t *p = slot.load(std::memory_order_acquire);
        if (!p) {
            auto *fresh = new std::uint8_t[pageBytes]();
            if (slot.compare_exchange_strong(p, fresh,
                                             std::memory_order_acq_rel)) {
                p = fresh;
                _allocated.fetch_add(1, std::memory_order_relaxed);
            } else {
                delete[] fresh; // another thread published first
            }
        }
        return p + (a & (pageBytes - 1));
    }

    void
    releaseAll()
    {
        for (auto &slot : _pages) {
            delete[] slot.load(std::memory_order_relaxed);
            slot.store(nullptr, std::memory_order_relaxed);
        }
        _allocated.store(0, std::memory_order_relaxed);
    }

    std::vector<std::atomic<std::uint8_t *>> _pages;
    std::atomic<std::size_t> _allocated{0};
};

} // namespace mem

#endif // COHESION_MEM_BACKING_STORE_HH
