/**
 * @file
 * Cohesion region tables (Section 3.4, Figure 5).
 *
 * The coarse-grain region table is a small on-die structure holding
 * address ranges that are permanently in the SWcc domain — code,
 * per-core stacks, and immutable global data. It is consulted in
 * parallel with the directory on every directory miss.
 *
 * The fine-grain region table is *not* an on-die structure: it is a
 * 16 MB bitmap in simulated memory (1 bit per 32 B line of the 4 GB
 * space), cached in the L3 like any other data, and updated only with
 * uncached atomic operations that the directory snoops. This file
 * provides the bit-manipulation helpers; the storage and timing are
 * the memory system's.
 */

#ifndef COHESION_COHESION_REGION_TABLE_HH
#define COHESION_COHESION_REGION_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace cohesion {

/** Why a coarse region is software-coherent (for diagnostics). */
enum class RegionKind : std::uint8_t { Code, Stack, Immutable, Other };
constexpr unsigned numRegionKinds = 4;

const char *regionKindName(RegionKind k);

struct CoarseRegion
{
    mem::Addr start = 0;
    std::uint32_t size = 0;
    RegionKind kind = RegionKind::Other;

    bool
    contains(mem::Addr a) const
    {
        return a >= start && a - start < size;
    }
};

/**
 * The on-die coarse-grain region table. Lookups are combinational
 * (performed in parallel with the directory lookup), so they add no
 * latency in the timing model.
 */
class CoarseRegionTable
{
  public:
    /** Register [start, start+size) as permanently SWcc. */
    void
    add(mem::Addr start, std::uint32_t size, RegionKind kind)
    {
        fatal_if(size == 0, "empty coarse region");
        fatal_if(start & (mem::lineBytes - 1),
                 "coarse region start must be line aligned");
        _regions.push_back(CoarseRegion{start, size, kind});
    }

    /** True if @p a lies in any registered SWcc region. */
    bool
    contains(mem::Addr a) const
    {
        for (const auto &r : _regions) {
            if (r.contains(a))
                return true;
        }
        return false;
    }

    const std::vector<CoarseRegion> &regions() const { return _regions; }
    void clear() { _regions.clear(); }

    /** Snapshot hook. The boot-time regions are deterministic, but
     *  serializing them keeps the snapshot self-contained if a future
     *  runtime registers regions dynamically. */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("coarse-regions");
        std::uint64_t n = _regions.size();
        ar.count(n);
        _regions.resize(n);
        for (CoarseRegion &r : _regions) {
            ar(r.start);
            ar(r.size);
            ar.below(r.kind, numRegionKinds);
        }
    }

  private:
    std::vector<CoarseRegion> _regions;
};

/**
 * Helpers for reading/writing fine-grain table bits in a raw line
 * image or a backing store (boot-time initialization path).
 */
namespace fine_table {

/** Read line(@p a)'s SWcc bit from the 32-bit word image @p word. */
inline bool
bitFromWord(std::uint32_t word, const mem::AddressMap &map, mem::Addr a)
{
    return (word >> map.tableBitIndex(a)) & 1u;
}

/** One table word's share of a region: the word's address and the
 *  bits of the region's lines it holds. */
struct WordUpdate
{
    mem::Addr wordAddr = 0;
    std::uint32_t mask = 0;
};

/**
 * Walks the lines of [start, start+size) one 1 KB block at a time:
 * all 32 lines of a block share a table word, so each step yields that
 * word (via hybrid.tbloff) and the mask of the region's lines in it.
 * Boot-time pokeRegion and the runtime's coh_SWcc_region /
 * coh_HWcc_region atomics both update the table through this walk.
 */
class BlockWalk
{
  public:
    BlockWalk(const mem::AddressMap &map, mem::Addr start,
              std::uint32_t size)
        : _map(map), _next(mem::lineBase(start)),
          _end(std::uint64_t(start) + size)
    {}

    /** The next block's update; false once the region is covered. */
    bool
    next(WordUpdate *out)
    {
        if (_next >= _end)
            return false;
        const std::uint64_t block = _next & ~(blockBytes - 1);
        const std::uint64_t stop = std::min(_end, block + blockBytes);
        const unsigned first = _map.tableBitIndex(mem::Addr(_next));
        const unsigned last = _map.tableBitIndex(mem::Addr(stop - 1));
        out->wordAddr = _map.tableWordAddr(mem::Addr(block));
        out->mask = (~0u << first) & (~0u >> (31 - last));
        _next = stop;
        return true;
    }

  private:
    static constexpr std::uint64_t blockBytes = 32 * mem::lineBytes;

    const mem::AddressMap &_map;
    std::uint64_t _next; ///< Base of the first line not yet covered.
    std::uint64_t _end;
};

/** Boot-time (untimed) set/clear of a line's bit in the store. */
inline void
pokeBit(mem::BackingStore &store, const mem::AddressMap &map, mem::Addr a,
        bool swcc)
{
    mem::Addr word_addr = map.tableWordAddr(a);
    std::uint32_t word = store.readT<std::uint32_t>(word_addr);
    std::uint32_t bit = 1u << map.tableBitIndex(a);
    word = swcc ? (word | bit) : (word & ~bit);
    store.writeT(word_addr, word);
}

/** Boot-time bit read from the store (test support). */
inline bool
peekBit(const mem::BackingStore &store, const mem::AddressMap &map,
        mem::Addr a)
{
    return bitFromWord(store.readT<std::uint32_t>(map.tableWordAddr(a)),
                       map, a);
}

/** Mark a whole region SWcc/HWcc at boot (untimed): one table-word
 *  update per 1 KB block. */
inline void
pokeRegion(mem::BackingStore &store, const mem::AddressMap &map,
           mem::Addr start, std::uint32_t size, bool swcc)
{
    BlockWalk walk(map, start, size);
    for (WordUpdate u; walk.next(&u);) {
        std::uint32_t word = store.readT<std::uint32_t>(u.wordAddr);
        word = swcc ? (word | u.mask) : (word & ~u.mask);
        store.writeT(u.wordAddr, word);
    }
}

} // namespace fine_table
} // namespace cohesion

#endif // COHESION_COHESION_REGION_TABLE_HH
