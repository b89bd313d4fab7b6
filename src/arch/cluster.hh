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

#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "arch/core.hh"
#include "arch/msg.hh"
#include "arch/protocol.hh"
#include "cache/cache_array.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
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
    std::size_t size() const { return _ids.size(); }
    bool empty() const { return _ids.empty(); }
    bool contains(std::uint32_t id) const { return _ids.count(id) != 0; }

    /** Total oldest-entry evictions forced by the capacity bound. */
    const sim::Counter &evictions() const { return _evicted; }

    /** Insert @p id; returns false if already present. Evicts the
     *  oldest entry (counting it) when the bound would be exceeded. */
    bool
    insert(std::uint32_t id)
    {
        if (_ids.count(id))
            return false;
        _order.push_back(id);
        _ids.emplace(id, std::prev(_order.end()));
        while (_ids.size() > _cap) {
            _ids.erase(_order.front());
            _order.pop_front();
            _evicted.inc();
        }
        return true;
    }

    /** Remove @p id; returns false when absent (duplicate ack). */
    bool
    erase(std::uint32_t id)
    {
        auto it = _ids.find(id);
        if (it == _ids.end())
            return false;
        _order.erase(it->second);
        _ids.erase(it);
        return true;
    }

    void
    checkpointState(sim::Serializer &ser) const
    {
        ser.u64(_order.size());
        for (std::uint32_t id : _order)
            ser.u32(id);
        _evicted.checkpointState(ser);
    }

    void
    restoreState(sim::Deserializer &des)
    {
        _order.clear();
        _ids.clear();
        std::uint64_t n = des.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint32_t id = des.u32();
            _order.push_back(id);
            _ids.emplace(id, std::prev(_order.end()));
        }
        _evicted.restoreState(des);
    }

  private:
    std::size_t _cap;
    std::list<std::uint32_t> _order; ///< front = oldest insertion.
    std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator>
        _ids;
    sim::Counter _evicted;
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

    /** Visit every MSHR, keyed by line base (watchdog in-flight dump,
     *  the coherence auditor's in-flux filter). */
    void
    forEachMshr(const std::function<void(mem::Addr, ReqType,
                                         unsigned)> &fn) const
    {
        for (const auto &[base, m] : _mshrs)
            fn(base, m.sentType, static_cast<unsigned>(m.waiters.size()));
    }

  private:
    friend class Chip;

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

    struct MshrEntry
    {
        ReqType sentType = ReqType::Read;
        bool upgradeSent = false;
        std::uint32_t expectId = 0; ///< msgId of the awaited response.
        std::vector<Waiter> waiters;
    };

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
    std::unordered_map<mem::Addr, MshrEntry> _mshrs;

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
     * Checkpoint hooks. Only legal at a quiescent point: no MSHR in
     * flight and no core parked on a drain — those hold coroutine
     * handles and cannot serialize. Pending writeback ids DO serialize
     * (their acks are still in flight conceptually, but at quiescence
     * the event queue is empty, so a non-empty set only occurs when an
     * injected fault swallowed an ack — the ids must survive so drain
     * accounting matches an uninterrupted run).
     */
    void
    checkpointState(sim::Serializer &ser) const
    {
        ser.tag("cluster");
        if (!_mshrs.empty()) {
            throw sim::SnapshotError(
                "checkpoint with cluster MSHRs in flight");
        }
        if (!_drainWaiters.empty()) {
            throw sim::SnapshotError(
                "checkpoint with cores parked on a drain");
        }
        ser.u64(_cores.size());
        for (const auto &core : _cores)
            core->checkpointState(ser);
        _l2.checkpointState(ser);
        ser.u64(_l2PortFree.size());
        for (sim::Tick t : _l2PortFree)
            ser.u64(t);
        ser.u32(_msgSeq);
        _pendingWb.checkpointState(ser);
        _msgs.checkpointState(ser);
        _flushIssued.checkpointState(ser);
        _flushUseful.checkpointState(ser);
        _invIssued.checkpointState(ser);
        _invUseful.checkpointState(ser);
        _l2Hits.checkpointState(ser);
        _l2Misses.checkpointState(ser);
        _evictClean.checkpointState(ser);
        _evictDirty.checkpointState(ser);
    }

    void
    restoreState(sim::Deserializer &des)
    {
        des.tag("cluster");
        if (des.u64() != _cores.size())
            throw sim::SnapshotError("snapshot core count mismatch");
        for (auto &core : _cores)
            core->restoreState(des);
        _l2.restoreState(des);
        if (des.u64() != _l2PortFree.size())
            throw sim::SnapshotError("snapshot L2 port count mismatch");
        for (sim::Tick &t : _l2PortFree)
            t = des.u64();
        _msgSeq = des.u32();
        _pendingWb.restoreState(des);
        _msgs.restoreState(des);
        _flushIssued.restoreState(des);
        _flushUseful.restoreState(des);
        _invIssued.restoreState(des);
        _invUseful.restoreState(des);
        _l2Hits.restoreState(des);
        _l2Misses.restoreState(des);
        _evictClean.restoreState(des);
        _evictDirty.restoreState(des);
    }
};

} // namespace arch

#endif // COHESION_ARCH_CLUSTER_HH
