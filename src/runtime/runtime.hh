/**
 * @file
 * The Cohesion runtime: the programmer-visible API of Table 2
 * (malloc / free / coh_malloc / coh_free / coh_SWcc_region /
 * coh_HWcc_region), boot-time region-table initialization
 * (Section 3.5), the barrier-synchronized task-queue programming
 * model the benchmarks use (Section 4.1), and SWcc-management policy
 * queries (which addresses need software flush/invalidate in the
 * current machine mode).
 */

#ifndef COHESION_RUNTIME_RUNTIME_HH
#define COHESION_RUNTIME_RUNTIME_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "arch/chip.hh"
#include "runtime/heap.hh"
#include "runtime/layout.hh"
#include "sim/cotask.hh"

namespace runtime {

/** A 16-byte task descriptor in the global work queue. */
struct TaskDesc
{
    std::uint32_t arg0 = 0;
    std::uint32_t arg1 = 0;
    std::uint32_t arg2 = 0;
    std::uint32_t arg3 = 0;
};

/**
 * Global barrier for all cores. Arrival is one uncached atomic
 * fetch-add at the counter's home bank (counted in the Uncached/
 * Atomic message class); release is a hardware-style wakeup broadcast
 * one network latency later. A fresh counter word is used per episode
 * so no reset traffic is needed.
 *
 * The winner is decided by the fetch-add's result at the counter's
 * home bank (bank-serialized, so exactly one arrival sees
 * old+1 == parties). Parked waiters and release counters are kept per
 * cluster, and the winner posts one release per cluster through the
 * chip's router (Chip::postBarrierWake), which gives the wakeup its
 * one-network-latency timing and its place in the router's canonical
 * delivery order.
 */
class Barrier
{
  public:
    Barrier(arch::Chip &chip, mem::Addr counter_base, unsigned parties)
        : _chip(chip), _counterBase(counter_base), _parties(parties),
          _coreEpisode(parties, 0), _waiting(chip.numClusters()),
          _released(chip.numClusters(), 0)
    {}

    /** Block @p core until all parties have arrived. */
    sim::CoTask wait(arch::Core &core);

    /** Completed episodes. Stable only at quiescence (between kernel
     *  phases every core agrees). */
    std::uint64_t episodes() const { return _episodesReleased; }

    /** Snapshot hook. The episode index picks the live counter word
     *  (a fresh word per episode, modulo the window), so it must
     *  survive a restore or post-restore barriers would reread a stale
     *  counter. No core may be parked at the barrier, and at a
     *  quiescent point all per-core/per-cluster views agree, so the
     *  record is a single episode word. */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("barrier");
        for (const auto &w : _waiting) {
            if (!w.empty()) {
                throw sim::SnapshotError(
                    "checkpoint with cores parked at the barrier");
            }
        }
        for (std::uint64_t e : _coreEpisode) {
            if (e != _episodesReleased) {
                throw sim::SnapshotError(
                    "checkpoint with barrier arrivals in flight");
            }
        }
        for (std::uint64_t r : _released) {
            if (r != _episodesReleased) {
                throw sim::SnapshotError(
                    "checkpoint with barrier releases in flight");
            }
        }
        ar(_episodesReleased);
        std::fill(_coreEpisode.begin(), _coreEpisode.end(),
                  _episodesReleased);
        std::fill(_released.begin(), _released.end(), _episodesReleased);
    }

  private:
    struct Waiter
    {
        arch::Core *core;
        std::uint64_t episode;
    };

    void releaseAll();

    arch::Chip &_chip;
    mem::Addr _counterBase;
    unsigned _parties;
    /** Episodes this barrier has released (winner-written; episodes
     *  are serialized in simulated time, so no two writes race). */
    std::uint64_t _episodesReleased = 0;
    std::vector<std::uint64_t> _coreEpisode;       ///< [global core id]
    std::vector<std::vector<Waiter>> _waiting;     ///< [cluster]
    std::vector<std::uint64_t> _released;          ///< [cluster]
};

/**
 * A barrier-phased global task queue: a set of phases, each an array
 * of task descriptors plus an uncached dequeue counter. Dequeue is a
 * single atomic fetch-add; descriptors are then read through the
 * normal cached path (read-shared data).
 */
class TaskQueue
{
  public:
    explicit TaskQueue(arch::Chip &chip) : _chip(chip) {}

    /** Create a phase from @p tasks; returns the phase id. Descriptors
     *  are installed untimed at setup (see DESIGN.md). @p desc_region
     *  is the simulated address to place descriptors at. */
    unsigned addPhase(const std::vector<TaskDesc> &tasks,
                      mem::Addr desc_region, mem::Addr counter_addr);

    unsigned numPhases() const { return _phases.size(); }
    std::uint32_t phaseTasks(unsigned p) const
    {
        return _phases.at(p).count;
    }

    /**
     * Pop the next task of phase @p p. Sets *@p got to false when the
     * phase is exhausted, else fills *@p out.
     */
    sim::CoTask pop(arch::Core &core, unsigned p, TaskDesc *out, bool *got);

    /** Snapshot hook: phase descriptors are simulated-memory pointers
     *  plus counts — plain data, no coroutine state. */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("taskqueue");
        std::uint64_t n = _phases.size();
        ar.count(n);
        _phases.resize(n);
        for (Phase &p : _phases) {
            ar(p.counter);
            ar(p.descs);
            ar(p.count);
        }
    }

  private:
    struct Phase
    {
        mem::Addr counter = 0;
        mem::Addr descs = 0;
        std::uint32_t count = 0;
    };

    arch::Chip &_chip;
    std::vector<Phase> _phases;
};

/** The runtime proper. One instance per simulated machine. */
class CohesionRuntime
{
  public:
    explicit CohesionRuntime(arch::Chip &chip);

    arch::Chip &chip() { return _chip; }
    Barrier &barrier() { return _barrier; }
    TaskQueue &taskQueue() { return _queue; }

    // --- Table 2 API -----------------------------------------------------

    /** Allocate on the coherent heap: data is always HWcc. */
    mem::Addr malloc(std::uint32_t bytes) { return _cohHeap.alloc(bytes); }

    void free(mem::Addr a) { _cohHeap.free(a); }

    /**
     * Allocate on the incoherent heap: data may transition coherence
     * domains; the initial state is SWcc and the data is not present
     * in any private cache. Minimum allocation is 64 bytes.
     */
    mem::Addr cohMalloc(std::uint32_t bytes)
    {
        return _incHeap.alloc(bytes);
    }

    void cohFree(mem::Addr a) { _incHeap.free(a); }

    /**
     * Move [ptr, ptr+size) into the SWcc domain: the issuing core
     * performs atom.or updates to the fine-grain table (one per
     * covered table word, addressed via the tbloff hash) and blocks
     * until the directory completes each transition.
     */
    sim::CoTask cohSWccRegion(arch::Core &core, mem::Addr ptr,
                              std::uint32_t size);

    /** Move [ptr, ptr+size) into the HWcc domain (atom.and updates). */
    sim::CoTask cohHWccRegion(arch::Core &core, mem::Addr ptr,
                              std::uint32_t size);

    // --- Policy queries ---------------------------------------------------

    /**
     * True if software must manage coherence (flush/invalidate) for
     * @p a in this machine mode: everything under SWcc-only, nothing
     * under HWcc-only, and SWcc-domain data (incoherent heap, stacks,
     * coarse regions) under Cohesion.
     */
    bool swccManaged(mem::Addr a) const;

    // --- Setup helpers ----------------------------------------------------

    /** Untimed scratch allocation in the metadata segment (counters,
     *  descriptor arrays); never recycled, so stale copies of a prior
     *  phase's metadata can never be observed. */
    mem::Addr metaAlloc(std::uint32_t bytes);

    /** Untimed write of @p v into simulated memory (workload setup). */
    template <typename T>
    void
    poke(mem::Addr a, T v)
    {
        _chip.debugWriteT(a, v);
    }

    template <typename T>
    T
    peek(mem::Addr a) const
    {
        return _chip.debugReadT<T>(a);
    }

    /** Coherent (hierarchy-aware) 32-bit read for verification. */
    std::uint32_t verifyRead32(mem::Addr a) { return _chip.coherentRead32(a); }

    float
    verifyReadF32(mem::Addr a)
    {
        return std::bit_cast<float>(verifyRead32(a));
    }

    /** Coherent read of the @p n-element float array at @p a for
     *  verification (one arch::Chip::coherentRead). */
    std::vector<float> verifyReadF32(mem::Addr a, std::size_t n);

    /**
     * Snapshot hook for the runtime's own state: the three heaps (so
     * allocation addresses continue identically), the barrier episode,
     * and the task-queue phases. Boot-time region-table and fine-table
     * contents live in the chip snapshot. The chip itself is
     * snapshotted separately by the session.
     */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("runtime");
        ar(_cohHeap);
        ar(_incHeap);
        ar(_metaHeap);
        ar(_barrier);
        ar(_queue);
    }

  private:
    /** Boot: coarse regions, fine-table defaults, segment classifier. */
    void boot();

    sim::CoTask setRegionDomain(arch::Core &core, mem::Addr ptr,
                                std::uint32_t size, bool swcc);

    arch::Chip &_chip;
    Heap _cohHeap;
    Heap _incHeap;
    Heap _metaHeap;
    Barrier _barrier;
    TaskQueue _queue;
};

} // namespace runtime

#endif // COHESION_RUNTIME_RUNTIME_HH
