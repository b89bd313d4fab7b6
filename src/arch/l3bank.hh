/**
 * @file
 * One L3 cache bank with its co-located directory slice and the
 * Cohesion transition engine (Sections 3.2, 3.4, 3.6). All requests
 * for a line are serialized through its home bank; each incoming
 * request runs as a coroutine transaction under a per-line lock.
 *
 * The bank implements:
 *  - the home side of the HWcc protocol via a pluggable
 *    coherence::Backend (reads, writes with invalidation/recall, read
 *    releases, writebacks, directory-entry evictions with sharer
 *    invalidation — see backend_msi.hh and backend_dls.hh);
 *  - SWcc support (incoherent fills, per-word merge of flushes and
 *    dirty evictions);
 *  - Cohesion lookups (coarse region table in parallel with the
 *    directory; fine-grain table reads through the L3 on a miss);
 *  - the atomic unit (atom.* executed at the bank, recalling any
 *    HWcc copies first);
 *  - the coherence-domain transition protocol: the bank snoops
 *    atomics to the fine-table range and performs the Fig. 7 flows,
 *    including the SWcc=>HWcc broadcast clean request and the
 *    single-owner upgrade, serialized line by line.
 */

#ifndef COHESION_ARCH_L3BANK_HH
#define COHESION_ARCH_L3BANK_HH

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "arch/await.hh"
#include "arch/protocol.hh"
#include "cache/cache_array.hh"
#include "coherence/backend.hh"
#include "coherence/directory.hh"
#include "cohesion/table_cache.hh"
#include "mem/types.hh"
#include "sim/cotask.hh"
#include "sim/flat_table.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"

namespace coherence {
class MsiBackend;
class DlsBackend;
} // namespace coherence

namespace arch {

class Chip;

class L3Bank
{
  public:
    L3Bank(Chip &chip, unsigned id);
    ~L3Bank();
    L3Bank(const L3Bank &) = delete;
    L3Bank &operator=(const L3Bank &) = delete;

    unsigned id() const { return _id; }

    /** The protocol engine behind this bank. */
    coherence::Backend &backend() { return *_backend; }
    const coherence::Backend &backend() const { return *_backend; }

    /** The backend's directory, or null (DLS). */
    coherence::Directory *directoryOrNull()
    {
        return _backend->directoryOrNull();
    }
    const coherence::Directory *
    directoryOrNull() const
    {
        return _backend->directoryOrNull();
    }

    /** The backend's directory; panics for directoryless backends
     *  (callers that know they configured one keep this shorthand). */
    coherence::Directory &
    directory()
    {
        coherence::Directory *d = _backend->directoryOrNull();
        panic_if(!d, "backend '", _backend->name(), "' has no directory");
        return *d;
    }
    const coherence::Directory &
    directory() const
    {
        const coherence::Directory *d = _backend->directoryOrNull();
        panic_if(!d, "backend '", _backend->name(), "' has no directory");
        return *d;
    }

    cache::CacheArray &l3() { return _l3; }

    /** Accept a request (called at the fabric arrival event). */
    void receiveRequest(const Request &req);

    /** Protocol transactions not yet pruned: the live ones plus the
     *  finished ones awaiting pruneTransactions() (queue-depth proxy). */
    unsigned inFlight() const { return _txns.live(); }

    /** One live protocol transaction (watchdog in-flight dump). */
    struct TxnRecord
    {
        std::uint64_t id = 0;
        ReqType type = ReqType::Read;
        mem::Addr addr = 0;
        unsigned cluster = 0;
        sim::Tick start = 0;
    };

    /** Visit every running transaction record, by ascending id. */
    void forEachTxn(const std::function<void(const TxnRecord &)> &fn) const;

    /** True if @p base's line lock is held by a transaction (used by
     *  the coherence auditor's in-flux filter). */
    bool
    lineBusy(mem::Addr base) const
    {
        return _locks.busy(mem::lineNumber(mem::lineBase(base)));
    }

    /** Protocol transactions completed (watchdog progress signal —
     *  unlike event or message counts, this stagnates in a livelock). */
    std::uint64_t txnsCompleted() const { return _txnsCompleted.value(); }

    /**
     * Test hook: start a transaction that takes @p base's line lock
     * and never releases it, wedging every later request for the line
     * (exercises the deadlock watchdog).
     */
    void debugWedgeLine(mem::Addr base);

    /** Register this bank's stats under @p prefix in @p reg. */
    void registerStats(sim::StatRegistry &reg,
                       const std::string &prefix) const;

    /** Free the slots of finished transactions and rethrow the first
     *  error one of them raised. Called lazily on request arrival; the
     *  checkpoint path calls it eagerly so a quiescent bank reads as
     *  empty. */
    void pruneTransactions();

    /** Rethrow the first error of a finished, not yet pruned
     *  transaction (the run loop's check; frees nothing). */
    void rethrowFailedTransaction() const;

    /**
     * Snapshot hook. Only legal when no transaction coroutine is live
     * (then every line lock is also free — locks are erased on release
     * with no waiters). The transaction-id sequence serializes so
     * post-restore trace/causal ids continue where they left off.
     */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("bank");
        if (_txns.live() != 0) {
            throw sim::SnapshotError(
                "checkpoint with bank transactions in flight");
        }
        ar(_l3);
        ar(*_backend);
        ar(_tableCache);
        ar(_l3PortFree);
        ar(_txnSeq);
        ar(_transitions);
        ar(_tableLookups);
        ar(_dirEvictions);
        ar(_atomics);
        ar(_mergeConflicts);
        ar(_l3Hits);
        ar(_l3Misses);
        ar(_txnsCompleted);
    }

    // --- Statistics -----------------------------------------------------
    std::uint64_t transitions() const { return _transitions.value(); }
    std::uint64_t tableLookups() const { return _tableLookups.value(); }
    std::uint64_t dirEvictions() const { return _dirEvictions.value(); }
    std::uint64_t atomics() const { return _atomics.value(); }
    /** Fig. 7b case 5b: overlapping multi-writer merges observed. */
    std::uint64_t mergeConflicts() const { return _mergeConflicts.value(); }
    std::uint64_t l3Hits() const { return _l3Hits.value(); }
    std::uint64_t l3Misses() const { return _l3Misses.value(); }
    const cohesion::TableCache &tableCache() const { return _tableCache; }

    /** Directory occupancy, routed through the backend (zero when
     *  directoryless). */
    std::uint32_t dirEntries() const { return _backend->dirEntries(); }
    std::uint32_t
    dirPeakEntries() const
    {
        return _backend->dirPeakEntries();
    }
    std::uint64_t
    dirInsertions() const
    {
        return _backend->dirInsertions();
    }

  private:
    /** One transaction's slot: its coroutine and its record. */
    struct TxnSlot
    {
        sim::CoTask task;
        TxnRecord rec;
        bool running = false; ///< begun and not yet exited
    };

    /**
     * Lives in a transaction's frame: when the coroutine exits, by
     * return or by an escaping exception, its slot joins the
     * retirement queue, so pruning touches finished transactions only.
     */
    class Retire
    {
      public:
        Retire(L3Bank &bank, std::uint32_t slot, const TxnRecord &rec);
        ~Retire();
        Retire(const Retire &) = delete;
        Retire &operator=(const Retire &) = delete;

      private:
        L3Bank &_bank;
        std::uint32_t _slot;
    };

    /** Top-level protocol transaction for one request, in slot
     *  @p slot. */
    sim::CoTask transaction(Request req, std::uint32_t slot);

    /** Atomic RMW at the bank (non-table addresses). */
    sim::CoTask handleAtomic(Request req, sim::lat::Cursor *lat);
    /** Snooped fine-table update: coherence domain transitions. */
    sim::CoTask handleTableUpdate(Request req, sim::lat::Cursor *lat);
    /** Writebacks / releases / flushes. */
    sim::CoTask handleWriteback(Request req, sim::lat::Cursor *lat);

    /** SWcc => HWcc transition for one line (Fig. 7b). */
    sim::CoTask swccToHwcc(mem::Addr base, std::uint32_t txn,
                           sim::lat::Cursor *lat);

    /** Decide SWcc/HWcc domain for a directory miss; may touch the
     *  fine table through the L3. Result via @p out_swcc. */
    sim::CoTask lookupDomain(mem::Addr base, std::uint32_t txn,
                             bool *out_swcc);

    /** Fan probes out to @p targets and collect results. */
    void sendProbes(const std::vector<unsigned> &targets, ProbeType type,
                    mem::Addr addr, std::uint32_t txn,
                    std::vector<std::pair<unsigned, ProbeResult>> *results,
                    AckGate *gate);

    /**
     * Ensure @p base is resident in the L3 (filling from DRAM and
     * writing back a dirty victim as needed); returns the line and
     * the tick at which the access completes. State changes are
     * applied immediately; the caller awaits the returned tick.
     * @p dram, when non-null, receives the DRAM-fill portion of the
     * access (zero on an L3 hit) for the latency-accounting split.
     */
    std::pair<cache::Line *, sim::Tick>
    l3AccessPrep(mem::Addr base, bool write, sim::Tick start,
                 sim::Tick *dram = nullptr);

    /** Merge @p mask words of @p data into the L3 copy of @p base. */
    sim::CoTask mergeIntoL3(mem::Addr base,
                            const std::array<std::uint8_t,
                                             mem::lineBytes> &data,
                            mem::WordMask mask);

    /** Reply to the requester (data words sized by @p data_words).
     *  With a live @p lat cursor, closes the residual span to Service
     *  and copies the stage timeline into the response. */
    void respond(const Request &req, Response resp, unsigned data_words,
                 sim::lat::Cursor *lat);

    /** Apply one atomic op; returns the old value. */
    std::uint32_t applyAtomic(cache::Line &line, mem::Addr addr,
                              AtomicOp op, std::uint32_t operand,
                              std::uint32_t operand2);

    /** Prune finished transactions, then claim a slot for a new one. */
    std::uint32_t claimSlot();

    /** The coroutine behind debugWedgeLine. */
    sim::CoTask wedge(mem::Addr base, std::uint32_t slot);

    // Backends are the other half of this class: they own the sharer
    // metadata and the read/write/recall flows, but drive the bank's
    // L3 port, lock table, probes, and responses directly.
    friend class coherence::MsiBackend;
    friend class coherence::DlsBackend;

    Chip &_chip;
    unsigned _id;
    cache::CacheArray _l3;
    cohesion::TableCache _tableCache;
    LineLockTable _locks;
    std::unique_ptr<coherence::Backend> _backend;
    sim::Tick _l3PortFree = 0;
    sim::SlotPool<TxnSlot> _txns;
    std::vector<std::uint32_t> _retired; ///< finished, not yet pruned
    std::uint64_t _txnSeq = 0;

    sim::Counter _transitions, _tableLookups, _dirEvictions, _atomics;
    sim::Counter _mergeConflicts, _l3Hits, _l3Misses;
    sim::Counter _txnsCompleted;
};

} // namespace arch

#endif // COHESION_ARCH_L3BANK_HH
