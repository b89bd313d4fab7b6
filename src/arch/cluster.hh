/**
 * @file
 * A Rigel-style cluster: eight in-order cores sharing a unified L2
 * cache through a pipelined split-phase bus. The cluster cache
 * controller implements the client side of *both* coherence worlds:
 *
 *  - SWcc (incoherent-bit lines): write-allocate stores with per-word
 *    dirty/valid bits, silent clean evictions, explicit software flush
 *    and invalidate instructions;
 *  - HWcc (MSI lines): blocking misses through the directory, read
 *    releases on clean evictions, responses to directory probes.
 *
 * Every message the cluster sends toward the L3 is accounted to one
 * of the eight Fig. 2 message classes.
 */

#ifndef COHESION_ARCH_CLUSTER_HH
#define COHESION_ARCH_CLUSTER_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "arch/core.hh"
#include "arch/msg.hh"
#include "arch/protocol.hh"
#include "cache/cache_array.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/flat_table.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"

namespace arch {

class Chip;

/**
 * Insertion-ordered set of in-flight msgIds with a hard capacity.
 * Used for the cluster's outstanding-writeback/dedup tracking: entries
 * retire when the writeback ack arrives, but a fault campaign that
 * loses acks forever (or duplicates wildly) must not grow the
 * structure without bound. At capacity the oldest entry is evicted
 * and counted; an evicted writeback's eventual ack is then treated as
 * a duplicate (ignored), which errs safe — the drain condition only
 * clears earlier than a lost ack would ever allow anyway.
 */
class BoundedIdSet
{
  public:
    explicit BoundedIdSet(std::size_t cap) : _cap(cap ? cap : 1) {}

    std::size_t capacity() const { return _cap; }
    std::size_t size() const { return _order.size; }
    bool empty() const { return _order.empty(); }
    bool
    contains(std::uint32_t id) const
    {
        return _index.find(id) != sim::noSlot;
    }

    /** Total oldest-entry evictions forced by the capacity bound. */
    const sim::Counter &evictions() const { return _evicted; }

    /** Insert @p id; returns false if already present. Evicts the
     *  oldest entry (counting it) when the bound would be exceeded. */
    bool
    insert(std::uint32_t id)
    {
        if (contains(id))
            return false;
        append(id);
        while (_order.size > _cap) {
            erase(_nodes[_order.head].id);
            _evicted.inc();
        }
        return true;
    }

    /** Remove @p id; returns false when absent (duplicate ack). */
    bool
    erase(std::uint32_t id)
    {
        std::uint32_t s = _index.find(id);
        if (s == sim::noSlot)
            return false;
        _order.unlink(_nodes, s);
        _index.erase(id);
        _nodes.free(s);
        return true;
    }

    void
    snapshot(sim::Archive &ar)
    {
        std::uint64_t n = _order.size;
        ar.count(n);
        if (!ar.loading()) {
            for (std::uint32_t s = _order.head; s != sim::noSlot;
                 s = _nodes[s].next)
                ar(_nodes[s].id);
        } else {
            _index.clear();
            _nodes.reset();
            _order = sim::SlotList{};
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint32_t id = 0;
                ar(id);
                if (contains(id))
                    throw sim::SnapshotError("snapshot corrupt: duplicate id");
                append(id);
            }
        }
        ar(_evicted);
    }

  private:
    struct Node
    {
        std::uint32_t id = 0;
        std::uint32_t prev = sim::noSlot;
        std::uint32_t next = sim::noSlot;
    };

    void
    append(std::uint32_t id)
    {
        std::uint32_t s = _nodes.alloc();
        _nodes[s].id = id;
        _order.pushBack(_nodes, s);
        _index.insert(id, s);
    }

    std::size_t _cap;
    sim::SlotPool<Node> _nodes;
    sim::SlotList _order; ///< head = oldest insertion
    sim::FlatIndex _index; ///< id -> slot in _nodes
    sim::Counter _evicted;
};

/**
 * A cluster's miss status holding registers: at most one entry per
 * line with a fill or upgrade in flight, holding the core operations
 * that wait on it. Entries live in a slot pool behind a flat index,
 * so opening and retiring one allocates nothing once the pool has
 * grown: a retired entry's waiter vector keeps its capacity for the
 * next miss that reuses the slot.
 */
class MshrTable
{
  public:
    /** One core operation parked on a miss. */
    struct Waiter
    {
        Core *core;
        bool isStore;
        mem::Addr addr;
        unsigned bytes;
        std::uint32_t value;
        /** Write-through backends only: this store's words already
         *  rode out on the in-flight Write, so the ack completes it
         *  without re-applying (unless the fill came back SWcc — the
         *  bank ignores write data on the incoherent path). */
        bool sent = false;
        /** Tick the waiter joined the MSHR: the anchor for follow-up
         *  requests synthesized at fill time (their pre-send span is
         *  MSHR wait, not core issue). Needs no serialization — MSHRs
         *  are empty at any checkpoint. */
        sim::Tick born = 0;
    };

    struct Entry
    {
        ReqType sentType = ReqType::Read;
        bool upgradeSent = false;
        std::uint32_t expectId = 0; ///< msgId of the awaited response.
        std::vector<Waiter> waiters;
    };

    /** The open entry for @p base's line, or null. */
    Entry *
    find(mem::Addr base)
    {
        std::uint32_t s = _index.find(mem::lineNumber(base));
        return s == sim::noSlot ? nullptr : &_slots[s];
    }

    bool
    contains(mem::Addr base) const
    {
        return _index.find(mem::lineNumber(base)) != sim::noSlot;
    }

    /** Open an entry for @p base's line, which must have none. */
    Entry &
    open(mem::Addr base, ReqType sent_type)
    {
        std::uint32_t s = _slots.alloc();
        _index.insert(mem::lineNumber(base), s);
        Entry &e = _slots[s];
        e.sentType = sent_type;
        e.upgradeSent = false;
        e.expectId = 0;
        e.waiters.clear(); // keeps the capacity of the slot's last use
        return e;
    }

    /**
     * Close @p base's entry, handing its waiters to the caller: they
     * are swapped into @p waiters (which should be empty), and the
     * slot keeps @p waiters' old buffer for its next use.
     */
    void
    retire(mem::Addr base, std::vector<Waiter> &waiters)
    {
        std::uint32_t s = _index.find(mem::lineNumber(base));
        panic_if(s == sim::noSlot, "retiring an MSHR that is not open");
        waiters.swap(_slots[s].waiters);
        _index.erase(mem::lineNumber(base));
        _slots.free(s);
    }

    std::size_t size() const { return _index.size(); }

    /** Visit every open entry by ascending line base. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> open;
        _index.forEach([&](std::uint32_t line, std::uint32_t s) {
            open.emplace_back(line, s);
        });
        std::sort(open.begin(), open.end());
        for (const auto &[line, s] : open)
            fn(static_cast<mem::Addr>(line << mem::lineShift), _slots[s]);
    }

  private:
    sim::SlotPool<Entry> _slots;
    sim::FlatIndex _index; ///< line number -> slot in _slots
};

class Cluster
{
  public:
    Cluster(Chip &chip, unsigned id);

    unsigned id() const { return _id; }
    Core &core(unsigned local) { return *_cores.at(local); }
    unsigned numCores() const { return _cores.size(); }
    cache::CacheArray &l2() { return _l2; }
    Chip &chip() { return _chip; }

    // --- Core operation implementations (called by Core) ---------------
    MemOp coreLoad(Core &core, mem::Addr addr, unsigned bytes);
    MemOp coreStore(Core &core, mem::Addr addr, std::uint32_t value,
                    unsigned bytes);
    MemOp coreAtomic(Core &core, AtomicOp op, mem::Addr addr,
                     std::uint32_t operand, std::uint32_t operand2);
    MemOp coreFlush(Core &core, mem::Addr addr);
    MemOp coreInv(Core &core, mem::Addr addr);
    MemOp coreDrain(Core &core);
    MemOp coreCompute(Core &core, std::uint64_t instrs);

    // --- Network-facing entry points ------------------------------------
    /** Deliver a response from a bank (called at the arrival event). */
    void handleResponse(const Response &resp);

    /**
     * Apply a directory probe to the L2 (synchronous state change at
     * the probe-arrival event) and return the observation.
     */
    ProbeResult handleProbe(ProbeType type, mem::Addr addr);

    // --- Statistics -----------------------------------------------------
    MsgCounters &msgCounters() { return _msgs; }
    const MsgCounters &msgCounters() const { return _msgs; }

    std::uint64_t flushesIssued() const { return _flushIssued.value(); }
    std::uint64_t flushesUseful() const { return _flushUseful.value(); }
    std::uint64_t invsIssued() const { return _invIssued.value(); }
    std::uint64_t invsUseful() const { return _invUseful.value(); }
    std::uint64_t l2Hits() const { return _l2Hits.value(); }
    std::uint64_t l2Misses() const { return _l2Misses.value(); }
    std::uint64_t evictsClean() const { return _evictClean.value(); }
    std::uint64_t evictsDirty() const { return _evictDirty.value(); }

    /** Register this cluster's stats under @p prefix in @p reg. */
    void registerStats(sim::StatRegistry &reg,
                       const std::string &prefix) const;

    /** SWcc writebacks (flushes + dirty evictions) awaiting L3 acks. */
    unsigned
    outstandingWrites() const
    {
        return static_cast<unsigned>(_pendingWb.size());
    }

    /** Hard bound on tracked in-flight writeback ids (satellite of the
     *  fault-robustness work: lost acks must not grow state forever). */
    static constexpr std::size_t pendingWbCapacity = 4096;

    /** Oldest-id evictions forced by the pendingWb bound. */
    std::uint64_t
    pendingWbEvictions() const
    {
        return _pendingWb.evictions().value();
    }

    /** Outstanding fill/upgrade MSHRs (host occupancy gauge). */
    std::size_t mshrCount() const { return _mshrs.size(); }

    /** Visit every MSHR by ascending line base (watchdog in-flight
     *  dump, the coherence auditor's in-flux filter). */
    void
    forEachMshr(const std::function<void(mem::Addr, ReqType,
                                         unsigned)> &fn) const
    {
        _mshrs.forEach([&](mem::Addr base, const MshrTable::Entry &m) {
            fn(base, m.sentType, static_cast<unsigned>(m.waiters.size()));
        });
    }

  private:
    friend class Chip;

    using Waiter = MshrTable::Waiter;
    using MshrEntry = MshrTable::Entry;

    /** Arbitrate for an L2 port at local time @p when; returns the
     *  tick at which the access completes. */
    sim::Tick l2Access(sim::Tick when);

    /** Walk the I-fetch stream for @p instrs instructions. */
    void ifetch(Core &core, std::uint64_t instrs);

    /** Fetch one code line through L1I/L2 (may send InstrReq). */
    void fetchLine(Core &core, mem::Addr line_base);

    /** Send a request toward @p addr's home bank; assigns and returns
     *  the fresh msgId stamped on the wire message. */
    std::uint32_t sendRequest(const Request &req, MsgClass cls,
                              sim::Tick depart, unsigned data_words);

    /** Install a fill response into the L2 and service MSHR waiters.
     *  Returns false when the response was stale/duplicated and was
     *  ignored (latency accounting must not count it). */
    bool installFill(const Response &resp);

    /** Choose an L2 victim way for @p base, avoiding MSHR-busy lines. */
    cache::Line &selectVictim(mem::Addr base);

    /** Evict a valid line: emit the protocol-required message. */
    void evictLine(cache::Line &line, sim::Tick when);

    /** Drop @p base from every core's L1D (and optionally L1I). */
    void backInvalidateL1(mem::Addr base, bool also_l1i = false);

    /** Fill a core's L1D with a fully-valid L2 line. */
    void fillL1(Core &core, const cache::Line &l2_line);

    /** Serve a load hit from a line; returns the loaded value. */
    std::uint32_t readWord(const cache::Line &line, mem::Addr addr,
                           unsigned bytes) const;

    void applyStore(cache::Line &line, mem::Addr addr, std::uint32_t value,
                    unsigned bytes);

    /** One SWcc writeback ack arrived (duplicates are ignored via the
     *  pending-id set); wake drain waiters at zero. Returns false for
     *  a duplicate/evicted id that changed nothing. */
    bool writebackAcked(std::uint32_t msg_id);

    /** Close an accepted response's timeline (reply-fabric + retry
     *  legs), check the stage-sum invariant, and record it into the
     *  chip's LatencyAccountant. Called only when accounting is on. */
    void recordLatency(const Response &resp);

    Chip &_chip;
    unsigned _id;
    std::vector<std::unique_ptr<Core>> _cores;
    cache::CacheArray _l2;
    std::vector<sim::Tick> _l2PortFree;
    MshrTable _mshrs;
    // installFill's scratch, reused so a fill allocates nothing.
    std::vector<Waiter> _fillWaiters, _upgradeWaiters;
    std::vector<std::pair<Core *, std::uint64_t>> _completions;

    std::uint32_t _msgSeq = 0;
    BoundedIdSet _pendingWb{pendingWbCapacity};
    std::vector<Core *> _drainWaiters;

    MsgCounters _msgs;
    sim::Counter _flushIssued, _flushUseful;
    sim::Counter _invIssued, _invUseful;
    sim::Counter _l2Hits, _l2Misses;
    sim::Counter _evictClean, _evictDirty;

  public:
    /**
     * Snapshot hook. Only legal at a quiescent point: no MSHR in
     * flight and no core parked on a drain — those hold coroutine
     * handles and cannot serialize. Pending writeback ids DO serialize
     * (their acks are still in flight conceptually, but at quiescence
     * the event queue is empty, so a non-empty set only occurs when an
     * injected fault swallowed an ack — the ids must survive so drain
     * accounting matches an uninterrupted run).
     */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("cluster");
        if (_mshrs.size() != 0) {
            throw sim::SnapshotError(
                "checkpoint with cluster MSHRs in flight");
        }
        if (!_drainWaiters.empty()) {
            throw sim::SnapshotError(
                "checkpoint with cores parked on a drain");
        }
        ar.expect(_cores.size(), "core count");
        for (auto &core : _cores)
            ar(*core);
        ar(_l2);
        ar.expect(_l2PortFree.size(), "L2 port count");
        for (sim::Tick &t : _l2PortFree)
            ar(t);
        ar(_msgSeq);
        ar(_pendingWb);
        ar(_msgs);
        ar(_flushIssued);
        ar(_flushUseful);
        ar(_invIssued);
        ar(_invUseful);
        ar(_l2Hits);
        ar(_l2Misses);
        ar(_evictClean);
        ar(_evictDirty);
    }
};

} // namespace arch

#endif // COHESION_ARCH_CLUSTER_HH
