/**
 * @file
 * Directory organization for one L3 bank. Supports the three
 * configurations evaluated in the paper:
 *
 *  - optimistic: infinite capacity, fully associative (no evictions);
 *  - realistic sparse: 16K entries per bank, 128-way set associative;
 *  - fully-associative finite capacities for the Fig. 9 sweep.
 *
 * The directory is inclusive of the L2s and may hold entries for lines
 * absent from the L3 (the hierarchy is non-inclusive). A conflict or
 * capacity victim must have its sharers invalidated by the protocol
 * engine before the new entry is installed; the directory therefore
 * exposes victim selection separately from insertion.
 */

#ifndef COHESION_COHERENCE_DIRECTORY_HH
#define COHESION_COHERENCE_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "cache/cache_array.hh"
#include "coherence/sharer_set.hh"
#include "mem/types.hh"
#include "sim/flat_table.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace coherence {

/** Directory organization parameters. */
struct DirectoryConfig
{
    /** 0 => infinite (optimistic full-map baseline). */
    std::uint32_t entries = 0;
    /** 0 => fully associative; otherwise ways per set. */
    std::uint32_t assoc = 0;
    /** Sharer representation. */
    SharerKind sharerKind = SharerKind::FullMap;
    /** Pointers for the limited scheme (Dir4B => 4). */
    unsigned pointers = 4;

    bool infinite() const { return entries == 0; }

    std::uint32_t
    numSets() const
    {
        if (infinite() || assoc == 0)
            return 1;
        return entries / assoc;
    }

    /** Paper's realistic sparse directory (Table 3). */
    static DirectoryConfig
    sparseRealistic(SharerKind kind = SharerKind::FullMap)
    {
        return DirectoryConfig{16 * 1024, 128, kind, 4};
    }

    /** Optimistic: infinite, fully associative, full map. */
    static DirectoryConfig
    optimistic()
    {
        return DirectoryConfig{0, 0, SharerKind::FullMap, 4};
    }

    /** Fully-associative finite size (Fig. 9 sweep points). */
    static DirectoryConfig
    fullyAssociative(std::uint32_t entries,
                     SharerKind kind = SharerKind::FullMap)
    {
        return DirectoryConfig{entries, 0, kind, 4};
    }
};

/** One directory entry: MSI state plus the sharer set. */
struct DirEntry
{
    mem::Addr base = 0;
    cache::CohState state = cache::CohState::Invalid;
    SharerSet sharers;

    void
    snapshot(sim::Archive &ar)
    {
        ar(base);
        ar.below(state, cache::numCohStates);
        ar(sharers);
    }
};

/**
 * Sparse/full/infinite directory for one L3 bank. Entries live in a
 * slot pool (addresses are stable until the entry is erased); a flat
 * index maps line numbers to slots, and each set keeps an exact LRU
 * list threaded through the slots by index.
 */
class Directory
{
  public:
    Directory(const DirectoryConfig &config, unsigned num_caches)
        : _config(config), _numCaches(num_caches)
    {
        fatal_if(!config.infinite() && config.assoc != 0 &&
                     config.entries % config.assoc != 0,
                 "directory entries not divisible by associativity");
        _sets.resize(_config.numSets());
    }

    const DirectoryConfig &config() const { return _config; }

    /** Find the entry for @p base, or nullptr. Updates LRU. */
    DirEntry *
    find(mem::Addr base)
    {
        sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::Directory);
        base = mem::lineBase(base);
        std::uint32_t s = _index.find(mem::lineNumber(base));
        if (s == sim::noSlot)
            return nullptr;
        _sets[setOf(base)].lru.moveToBack(_nodes, s); // now MRU
        return &_nodes[s].entry;
    }

    /** The entry for @p base, or nullptr; leaves LRU order alone (for
     *  observers such as the coherence auditor). */
    const DirEntry *
    peek(mem::Addr base) const
    {
        std::uint32_t s = _index.find(mem::lineNumber(base));
        return s == sim::noSlot ? nullptr : &_nodes[s].entry;
    }

    /** True if installing @p base requires evicting another entry. */
    bool
    needsVictim(mem::Addr base) const
    {
        if (_config.infinite())
            return false;
        return _sets[setOf(mem::lineBase(base))].lru.size >= waysPerSet();
    }

    /**
     * The entry that must be evicted before @p base can be installed
     * (LRU of the target set). Only valid when needsVictim() is true.
     */
    DirEntry &
    victim(mem::Addr base)
    {
        const sim::SlotList &lru = _sets[setOf(mem::lineBase(base))].lru;
        panic_if(lru.empty(), "victim() without a conflict");
        return _nodes[lru.head].entry;
    }

    /**
     * Pick an eviction victim for @p base's set, skipping entries for
     * which @p excluded returns true (e.g., lines with transactions in
     * flight). Scans in LRU order; returns nullptr if every candidate
     * is excluded. Only meaningful when needsVictim() is true.
     */
    template <typename Pred>
    DirEntry *
    victimExcluding(mem::Addr base, Pred &&excluded)
    {
        sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::Directory);
        const sim::SlotList &lru = _sets[setOf(mem::lineBase(base))].lru;
        for (std::uint32_t s = lru.head; s != sim::noSlot;
             s = _nodes[s].next) {
            if (!excluded(_nodes[s].entry.base))
                return &_nodes[s].entry;
        }
        return nullptr;
    }

    /** Install a fresh entry for @p base (caller resolved conflicts). */
    DirEntry &
    insert(mem::Addr base)
    {
        sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::Directory);
        base = mem::lineBase(base);
        panic_if(peek(base), "inserting duplicate directory entry for 0x",
                 std::hex, base, std::dec, " state ",
                 static_cast<int>(peek(base)->state));
        panic_if(needsVictim(base), "inserting into a full set");
        DirEntry &e = link(base);
        e.state = cache::CohState::Invalid;
        e.sharers = SharerSet(_config.sharerKind, _numCaches,
                              _config.pointers);
        _insertions.inc();
        if (size() > _peakEntries)
            _peakEntries = size();
        return e;
    }

    /** Remove the entry for @p base (sharer count reached zero). */
    void
    erase(mem::Addr base)
    {
        sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::Directory);
        base = mem::lineBase(base);
        std::uint32_t s = _index.find(mem::lineNumber(base));
        panic_if(s == sim::noSlot, "erasing missing directory entry");
        _sets[setOf(base)].lru.unlink(_nodes, s);
        _index.erase(mem::lineNumber(base));
        _nodes.free(s);
    }

    /** Current number of allocated entries. */
    std::uint32_t size() const { return _index.size(); }

    /** High-water mark of allocated entries. */
    std::uint32_t peakEntries() const { return _peakEntries; }

    /** Total insertions (allocation churn diagnostic). */
    std::uint64_t insertions() const { return _insertions.value(); }

    /** Apply @p fn to each allocated entry, set by set, LRU first
     *  (the order snapshot() writes). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Set &set : _sets) {
            for (std::uint32_t s = set.lru.head; s != sim::noSlot;
                 s = _nodes[s].next)
                fn(_nodes[s].entry);
        }
    }

    /**
     * Snapshot hook. Entries are written per set in LRU order (front
     * first) so the rebuilt lists victimize identically; the index is
     * reconstructed, never serialized, so table layout can't leak into
     * snapshots.
     */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("directory");
        ar.expect(_sets.size(), "directory set count");
        if (ar.loading()) {
            _index.clear();
            _nodes.reset();
            for (Set &set : _sets)
                set.lru = sim::SlotList{};
        }
        for (std::uint32_t si = 0; si < _sets.size(); ++si) {
            std::uint64_t n = _sets[si].lru.size;
            ar.count(n);
            if (!ar.loading()) {
                for (std::uint32_t s = _sets[si].lru.head; s != sim::noSlot;
                     s = _nodes[s].next)
                    ar(_nodes[s].entry);
                continue;
            }
            for (std::uint64_t i = 0; i < n; ++i) {
                DirEntry e{0, cache::CohState::Invalid,
                           SharerSet(_config.sharerKind, _numCaches,
                                     _config.pointers)};
                ar(e);
                if (peek(e.base)) {
                    throw sim::SnapshotError(
                        "snapshot corrupt: duplicate directory entry");
                }
                if (setOf(e.base) != si) {
                    throw sim::SnapshotError(
                        "snapshot corrupt: directory entry in wrong set");
                }
                link(e.base) = e;
            }
        }
        ar(_peakEntries);
        ar(_insertions);
    }

  private:
    std::uint32_t
    waysPerSet() const
    {
        if (_config.assoc != 0)
            return _config.assoc;
        return _config.entries; // fully associative: one set, all ways
    }

    std::uint32_t
    setOf(mem::Addr base) const
    {
        return (base >> mem::lineShift) & (_sets.size() - 1);
    }

    /** Claim a slot for @p base at its set's MRU end. */
    DirEntry &
    link(mem::Addr base)
    {
        std::uint32_t s = _nodes.alloc();
        _index.insert(mem::lineNumber(base), s);
        _sets[setOf(base)].lru.pushBack(_nodes, s);
        DirEntry &e = _nodes[s].entry;
        e.base = base;
        return e;
    }

    struct Node
    {
        DirEntry entry;
        std::uint32_t prev = sim::noSlot;
        std::uint32_t next = sim::noSlot;
    };

    struct Set
    {
        sim::SlotList lru; // head = LRU, tail = MRU
    };

    DirectoryConfig _config;
    unsigned _numCaches;
    std::vector<Set> _sets;
    sim::SlotPool<Node> _nodes;
    sim::FlatIndex _index; ///< line number -> slot in _nodes
    std::uint32_t _peakEntries = 0;
    sim::Counter _insertions;
};

} // namespace coherence

#endif // COHESION_COHERENCE_DIRECTORY_HH
