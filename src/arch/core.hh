/**
 * @file
 * In-order core model. Cores execute kernel code as C++20 coroutines;
 * every architectural operation (load/store/atomic/flush/inv/compute)
 * is issued through this class and returns a MemOp awaitable that
 * either completed synchronously (L1/L2 hit — no simulation event) or
 * parks the coroutine until the memory system resumes it.
 *
 * Each core has private 2 KB L1I and 1 KB L1D caches (Table 3). The
 * L1D is write-through to the cluster L2, which is the coherence
 * point; per-word dirty state lives in the L2. Instruction fetch is
 * modelled by walking a per-task code loop through the L1I.
 */

#ifndef COHESION_ARCH_CORE_HH
#define COHESION_ARCH_CORE_HH

#include <coroutine>
#include <cstdint>

#include "arch/msg.hh"
#include "cache/cache_array.hh"
#include "mem/types.hh"
#include "sim/cotask.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace arch {

class Cluster;

/** Deferred description of a core operation (see MemOp). */
struct OpDesc
{
    enum class Kind : std::uint8_t {
        Load,
        Store,
        Atomic,
        Flush,
        Inv,
        Drain,
        Compute
    };

    Kind kind = Kind::Compute;
    mem::Addr addr = 0;
    std::uint32_t value = 0;
    unsigned bytes = 4;
    AtomicOp op = AtomicOp::AddU32;
    std::uint32_t operand2 = 0;
    std::uint64_t count = 0;
};

/**
 * Awaitable result of a core operation.
 *
 * Operations are issued *lazily, at await time*: Core::load() et al.
 * only capture an OpDesc, and await_ready() performs the access. This
 * guarantees a core never has more than one completion outstanding —
 * required because expressions like `f(co_await load(a)) -
 * f(co_await load(b))` evaluate their operands unsequenced, so an
 * eager design could issue both accesses before either await and
 * deliver the completions to the wrong awaits.
 *
 * ready(v) carries an already-synchronous value; pending(core) parks
 * the coroutine on the core's resumption slot immediately (used by
 * the memory system and runtime internals, which always await at
 * once).
 */
class MemOp
{
  public:
    MemOp() = default;

    static MemOp
    ready(std::uint64_t value)
    {
        MemOp op;
        op._immediate = value;
        return op;
    }

    static MemOp
    pending(class Core &core)
    {
        MemOp op;
        op._core = &core;
        return op;
    }

    static MemOp
    lazy(class Core &core, const OpDesc &desc)
    {
        MemOp op;
        op._core = &core;
        op._desc = desc;
        op._lazy = true;
        return op;
    }

    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    std::uint64_t await_resume() const;

  private:
    friend class Core;

    void resolve();

    class Core *_core = nullptr;
    std::uint64_t _immediate = 0;
    bool _lazy = false;
    OpDesc _desc;
};

class Core
{
  public:
    Core(Cluster &cluster, unsigned global_id, unsigned local_id,
         std::uint32_t l1i_bytes, unsigned l1i_assoc,
         std::uint32_t l1d_bytes, unsigned l1d_assoc);

    unsigned globalId() const { return _globalId; }
    unsigned localId() const { return _localId; }
    Cluster &cluster() { return _cluster; }

    /** Core-local clock; always >= the event-queue time at issue. */
    sim::Tick localTime() const { return _localTime; }
    void setLocalTime(sim::Tick t) { _localTime = t; }
    void
    advanceLocalTime(sim::Tick t)
    {
        if (t > _localTime)
            _localTime = t;
    }

    // --- Kernel-facing operations (co_await the returned MemOp) --------
    // All of these are lazy: the access is issued when awaited.

    /** Load @p bytes (1/2/4) at @p addr; resolves to the value. */
    MemOp
    load(mem::Addr addr, unsigned bytes = 4)
    {
        OpDesc d;
        d.kind = OpDesc::Kind::Load;
        d.addr = addr;
        d.bytes = bytes;
        return MemOp::lazy(*this, d);
    }

    /** Store the low @p bytes of @p value at @p addr. */
    MemOp
    store(mem::Addr addr, std::uint32_t value, unsigned bytes = 4)
    {
        OpDesc d;
        d.kind = OpDesc::Kind::Store;
        d.addr = addr;
        d.value = value;
        d.bytes = bytes;
        return MemOp::lazy(*this, d);
    }

    /** Atomic RMW executed at the home L3 bank; resolves to the old
     *  value. Bypasses the L1/L2 (uncached). */
    MemOp
    atomic(AtomicOp op, mem::Addr addr, std::uint32_t operand,
           std::uint32_t operand2 = 0)
    {
        OpDesc d;
        d.kind = OpDesc::Kind::Atomic;
        d.addr = addr;
        d.value = operand;
        d.op = op;
        d.operand2 = operand2;
        return MemOp::lazy(*this, d);
    }

    /** SWcc writeback instruction for the line containing @p addr. */
    MemOp
    flushLine(mem::Addr addr)
    {
        OpDesc d;
        d.kind = OpDesc::Kind::Flush;
        d.addr = addr;
        return MemOp::lazy(*this, d);
    }

    /** SWcc invalidate instruction for the line containing @p addr. */
    MemOp
    invLine(mem::Addr addr)
    {
        OpDesc d;
        d.kind = OpDesc::Kind::Inv;
        d.addr = addr;
        return MemOp::lazy(*this, d);
    }

    /** Wait until all of this cluster's SWcc writebacks are globally
     *  visible (used before barriers). */
    MemOp
    drainWrites()
    {
        OpDesc d;
        d.kind = OpDesc::Kind::Drain;
        return MemOp::lazy(*this, d);
    }

    /** Execute @p instrs single-issue instructions (with I-fetch). */
    MemOp
    compute(std::uint64_t instrs)
    {
        OpDesc d;
        d.kind = OpDesc::Kind::Compute;
        d.count = instrs;
        return MemOp::lazy(*this, d);
    }

    /** Issue a described operation now (called by MemOp::resolve). */
    MemOp perform(const OpDesc &desc);

    /** Set the code loop the I-fetch model walks during compute(). */
    void
    setCodeRegion(mem::Addr base, std::uint32_t bytes)
    {
        _codeBase = base;
        _codeBytes = bytes ? bytes : mem::lineBytes;
        _fetchOffset = 0;
        _ifetchWarm = false;
        _ifetchHitRun = 0;
    }

    // --- Completion interface used by the memory system ----------------

    /** Complete the outstanding operation with @p result and resume.
     *  The value is latched into the awaiting MemOp itself: compilers
     *  may defer await_resume() of one co_await past a sibling
     *  unsequenced co_await, so a shared per-core slot would be
     *  overwritten by the later completion. */
    void
    completeOp(std::uint64_t result)
    {
        _opResult = result;
        if (_pendingOp) {
            MemOp *op = _pendingOp;
            _pendingOp = nullptr;
            latchInto(op, result);
        }
        _resumer.fire();
    }

    /** Register the awaiting MemOp (called from await_suspend). */
    void setPendingOp(MemOp *op) { _pendingOp = op; }

    bool opPending() const { return _resumer.armed(); }
    std::uint64_t opResult() const { return _opResult; }
    sim::Resumer &resumer() { return _resumer; }

    cache::CacheArray &l1i() { return _l1i; }
    cache::CacheArray &l1d() { return _l1d; }

    /** Instructions retired (compute + memory + coherence ops). */
    std::uint64_t instructions() const { return _instructions.value(); }
    void countInstructions(std::uint64_t n) { _instructions.inc(n); }

    /**
     * Snapshot hook. At a quiescent point no operation is pending and
     * no coroutine is parked, so only the architectural state
     * serializes: the local clock, both L1s, the I-fetch loop state,
     * and the instruction counter. The resumer/pending-op machinery is
     * asserted idle instead.
     */
    void
    snapshot(sim::Archive &ar)
    {
        if (_resumer.armed() || _pendingOp) {
            throw sim::SnapshotError(
                "checkpoint with a core operation in flight");
        }
        ar(_localTime);
        ar(_l1i);
        ar(_l1d);
        ar(_codeBase);
        ar(_codeBytes);
        ar(_fetchOffset);
        ar(_ifetchWarm);
        ar(_ifetchHitRun);
        ar(_opResult);
        ar(_instructions);
    }

  private:
    friend class Cluster;

    Cluster &_cluster;
    unsigned _globalId;
    unsigned _localId;
    sim::Tick _localTime = 0;

    cache::CacheArray _l1i;
    cache::CacheArray _l1d;

    static void latchInto(MemOp *op, std::uint64_t result);

    sim::Resumer _resumer;
    std::uint64_t _opResult = 0;
    MemOp *_pendingOp = nullptr;

    // I-fetch state: a loop of _codeBytes starting at _codeBase. Once
    // a full pass over the loop hits in the L1I, the loop is "warm"
    // and fetch modelling is skipped (it would always hit).
    mem::Addr _codeBase = 0;
    std::uint32_t _codeBytes = mem::lineBytes;
    std::uint32_t _fetchOffset = 0;
    bool _ifetchWarm = false;
    std::uint32_t _ifetchHitRun = 0;

    sim::Counter _instructions;
};

inline void
MemOp::resolve()
{
    if (!_lazy)
        return;
    _lazy = false;
    MemOp inner = _core->perform(_desc);
    // The inner op is either synchronous (value available) or pending
    // on this same core's resumption slot.
    if (inner._core == nullptr) {
        _core = nullptr;
        _immediate = inner._immediate;
    }
}

inline bool
MemOp::await_ready()
{
    resolve();
    return _core == nullptr;
}

inline void
MemOp::await_suspend(std::coroutine_handle<> h)
{
    _core->resumer().arm(h);
    _core->setPendingOp(this);
}

inline std::uint64_t
MemOp::await_resume() const
{
    // _core is cleared (and _immediate latched) at completion; a
    // still-set _core means the op finished synchronously before any
    // suspension bookkeeping, where the shared slot is safe.
    return _core ? _core->opResult() : _immediate;
}

inline void
Core::latchInto(MemOp *op, std::uint64_t result)
{
    op->_immediate = result;
    op->_core = nullptr;
}

} // namespace arch

#endif // COHESION_ARCH_CORE_HH
