/**
 * @file
 * On-die fine-grain-table cache (the optional optimization of
 * Section 3.4: "If additional L3 latency for table accesses becomes a
 * concern, the dense structure of the table is amenable to on-die
 * caching"). One small direct-mapped cache of 32-bit table words per
 * L3 bank.
 *
 * No coherence machinery is needed for these caches: the tbloff hash
 * homes each table word to the same bank as the lines it covers, so a
 * word is only ever read (directory-miss lookups) and written
 * (snooped transition atomics) by its own bank — the cache is updated
 * in place on every commit.
 */

#ifndef COHESION_COHESION_TABLE_CACHE_HH
#define COHESION_COHESION_TABLE_CACHE_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/types.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace cohesion {

class TableCache
{
  public:
    /** @param entries Capacity in 32-bit words (0 disables, power of
     *  two otherwise). */
    explicit TableCache(std::uint32_t entries)
    {
        fatal_if(entries && !std::has_single_bit(entries),
                 "table cache entries must be a power of two");
        _entries.resize(entries);
    }

    bool enabled() const { return !_entries.empty(); }
    std::uint32_t capacity() const { return _entries.size(); }

    /** Attach the chip's fault injector (table.stale site); @p lane
     *  is the owning bank's fault lane. */
    void
    setFaultInjector(sim::FaultInjector *f, unsigned lane)
    {
        _faults = f;
        _faultLane = lane;
    }

    /** Look up the cached table word at @p word_addr. Under fault
     *  injection a hit may return the *previous* committed value,
     *  modelling a stale cached table entry. */
    std::optional<std::uint32_t>
    lookup(mem::Addr word_addr)
    {
        if (!enabled())
            return std::nullopt;
        Entry &e = slot(word_addr);
        if (e.valid && e.addr == word_addr) {
            _hits.inc();
            if (_faults && e.prev != e.word &&
                _faults->fire(sim::FaultSite::TableStale, _faultLane)) {
                return e.prev;
            }
            return e.word;
        }
        _misses.inc();
        return std::nullopt;
    }

    /** Install @p word (fetched through the L3) for @p word_addr. */
    void
    fill(mem::Addr word_addr, std::uint32_t word)
    {
        if (!enabled())
            return;
        Entry &e = slot(word_addr);
        e.valid = true;
        e.addr = word_addr;
        e.word = word;
        e.prev = word;
    }

    /**
     * A snooped transition atomic committed a new value: update in
     * place if present (the home bank is the only reader/writer).
     */
    void
    update(mem::Addr word_addr, std::uint32_t word)
    {
        if (!enabled())
            return;
        Entry &e = slot(word_addr);
        if (e.valid && e.addr == word_addr) {
            e.prev = e.word;
            e.word = word;
        }
    }

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }

    /** Snapshot hook. The fault-injector pointer is wiring, not
     *  state — the owner re-attaches it after restore. */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("table-cache");
        ar.expect(_entries.size(), "table-cache capacity");
        for (Entry &e : _entries) {
            ar(e.valid);
            ar(e.addr);
            ar(e.word);
            ar(e.prev);
        }
        ar(_hits);
        ar(_misses);
    }

  private:
    struct Entry
    {
        bool valid = false;
        mem::Addr addr = 0;
        std::uint32_t word = 0;
        std::uint32_t prev = 0; ///< Last superseded value (stale reads).
    };

    Entry &
    slot(mem::Addr word_addr)
    {
        return _entries[(word_addr >> 2) & (_entries.size() - 1)];
    }

    std::vector<Entry> _entries;
    sim::FaultInjector *_faults = nullptr;
    unsigned _faultLane = 0;
    sim::Counter _hits, _misses;
};

} // namespace cohesion

#endif // COHESION_COHESION_TABLE_CACHE_HH
