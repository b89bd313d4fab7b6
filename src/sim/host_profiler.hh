/**
 * @file
 * Host-side self-profiler: attributes the *simulator's* CPU/wall time
 * to named phases, the mirror image of the stat registry and flight
 * recorder (which instrument the *simulated* machine). It answers one
 * question: where does a run actually spend host time — cluster event
 * handling, bank transactions, the directory, the region table, or the
 * event queue itself?
 *
 * Discipline (mirrors the FlightRecorder):
 *
 *  - cheap enough to leave compiled in: a Scope on a disabled profiler
 *    is a single relaxed flag test, so instrumentation sites stay in
 *    release builds;
 *  - two phase kinds. *Exact* phases (the run-loop cadences: dispatch
 *    bursts, window barriers, audit passes, the fault pump, the
 *    sampler, setup/verify/export) are long and rare, so every
 *    occurrence is timed with steady_clock and their sum tiles a
 *    run's wall time. *Sampled* phases (per-component event
 *    handling) fire per event, where two clock reads would blow the
 *    <=2% events/sec budget; they count every entry but time only one
 *    in 2^sampleShift, reporting the scaled estimate
 *    `timedNs * count / timedCount`;
 *  - thread-local accumulation: each thread owns one accumulator and
 *    reads only its own (threadSnapshot), so SweepEngine workers
 *    profile concurrently without sharing a cache line; a campaign
 *    total is the merge of the Profiles its jobs return;
 *  - strictly observer: a Scope never touches simulation state, so a
 *    profiled run is bit-identical to an unprofiled one. Everything
 *    exported from here lives under the `host.*` stat subtree, which
 *    is segregated from determinism golden hashes (host timings are
 *    nondeterministic by nature).
 *
 * Sampled phases are *inclusive*: a region-table scope opened inside a
 * bank-transaction scope accrues to both. The component ranking this
 * produces says which per-component slices dominate dispatch time.
 */

#ifndef COHESION_SIM_HOST_PROFILER_HH
#define COHESION_SIM_HOST_PROFILER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace sim {

class HostProfiler
{
  public:
    /** The phase taxonomy (DESIGN.md §11). Exact phases tile the run
     *  wall time; sampled phases attribute dispatch to components. */
    enum class Phase : std::uint8_t {
        None = 0,    ///< sentinel: "no phase", never accumulated
        // --- exact phases (timed on every occurrence) ---------------
        Setup,       ///< machine construction, kernel setup, task start
        EqDispatch,  ///< event-queue bursts inside runUntilQuiescent
        Barrier,     ///< window-barrier bookkeeping between bursts
        Audit,       ///< coherence auditor invariant passes
        FaultPump,   ///< cache bit-flip pump cadence
        Sampler,     ///< time-series sampling cadence
        Verify,      ///< kernel numerical verification
        StatsExport, ///< stat-registry build + JSON/CSV dump
        TraceExport, ///< trace-JSON finish, recorder serialize/dump
        // --- sampled phases (per-component event handling) ----------
        ClusterCore, ///< core coroutine resumes (kernel execution)
        ClusterMsg,  ///< response/probe delivery at a cluster
        ClusterSwcc, ///< SWcc flush/invalidate instruction handling
        BankMsg,     ///< bank request receipt + transaction segments
        Directory,   ///< directory lookup/insert/evict walks
        RegionTable, ///< fine region-table reads/updates (+cache)
        numPhases,
    };

    static constexpr unsigned numPhases =
        static_cast<unsigned>(Phase::numPhases);

    /** First sampled phase; everything before it is exact. */
    static constexpr Phase firstSampled = Phase::ClusterCore;

    static bool
    phaseSampled(Phase p)
    {
        return p >= firstSampled && p < Phase::numPhases;
    }

    /** Stable dotted name ("eq.dispatch", "bank.msg", ...). */
    static const char *phaseName(Phase p);

    // --- Enable / disable -----------------------------------------------

    /**
     * Turn profiling on process-wide. @p sample_shift sets the sampled
     * phases' timing stride to 1-in-2^shift (0 times every occurrence
     * — used by tests; the default 7 keeps the hot-path cost inside
     * the 2% events/sec budget: a timed transaction pays two clock
     * reads per segment, continuations included, so the stride has to
     * amortize whole Delay chains, not single scopes). Re-enabling
     * adjusts the stride but keeps accumulated data; call reset() for
     * a clean slate.
     */
    static void enable(unsigned sample_shift = defaultSampleShift);
    static void disable();

    static bool
    enabled()
    {
        return _on.load(std::memory_order_relaxed);
    }

    static unsigned
    sampleShift()
    {
        return _sampleShift.load(std::memory_order_relaxed);
    }
    static constexpr unsigned defaultSampleShift = 7;

    /** Zero the calling thread's accumulator. */
    static void reset();

    // --- Accumulated data -----------------------------------------------

    struct PhaseAcc
    {
        /** Scope entries observed. For sampled phases this counts
         *  transactions: coroutine-continuation re-opens (the Resume
         *  scopes) accrue time to their transaction, not new entries. */
        std::uint64_t count = 0;
        std::uint64_t timedCount = 0; ///< entries actually timed
        std::uint64_t timedNs = 0;    ///< nanoseconds in timed entries
    };

    /** A snapshot (copyable, thread-independent). */
    struct Profile
    {
        std::array<PhaseAcc, numPhases> phases{};
        unsigned sampleShift = defaultSampleShift;

        const PhaseAcc &
        operator[](Phase p) const
        {
            return phases[static_cast<unsigned>(p)];
        }

        /**
         * Best-estimate nanoseconds for @p p: exact phases report
         * timedNs verbatim; sampled phases scale by the stride
         * (timedNs * count / timedCount).
         */
        std::uint64_t estNs(Phase p) const;

        /** Sum of estNs over the exact phases — the attributed slice
         *  of a run's wall time (sampled phases nest inside
         *  EqDispatch and would double-count). */
        std::uint64_t attributedNs() const;

        void merge(const Profile &other);

        /** Per-phase difference (this - earlier); saturates at 0 so a
         *  reset between snapshots cannot underflow. */
        Profile since(const Profile &earlier) const;

        bool
        empty() const
        {
            for (const PhaseAcc &a : phases)
                if (a.count)
                    return false;
            return true;
        }
    };

    /**
     * This thread's accumulation. Pair two calls around a region (e.g.
     * one sweep job) and subtract with Profile::since to get a per-job
     * profile even while sibling workers run.
     */
    static Profile threadSnapshot();

    // --- Scoped timer ---------------------------------------------------

    class Scope
    {
      public:
        explicit Scope(Phase p)
        {
            if (p == Phase::None || !enabled()) {
                _acc = nullptr;
                return;
            }
            open(p);
        }

        /** Tag for re-opening a phase around a coroutine continuation
         *  (see resumePhase()). */
        struct Resume
        {};

        /**
         * Continuation segment of a timed sampled entry. Timed
         * unconditionally — the stride already chose the transaction
         * at its initial entry — and accrues nanoseconds only: the
         * transaction was counted (and its timedCount taken) when it
         * entered, so estNs scales whole-transaction samples.
         */
        Scope(Phase p, Resume)
        {
            if (p == Phase::None || !enabled())
                return;
            _acc = &threadAcc().phases[static_cast<unsigned>(p)];
            _prevPhase = tlPhase();
            tlPhase() = p;
            _restorePhase = true;
            _continuation = true;
            _t0 = clock::now();
        }

        ~Scope() { close(); }

        /**
         * Hand this exact-phase scope over to exact phase @p p. One
         * clock read ends the current interval and starts the next,
         * so back-to-back exact phases leave no unattributed gap. A
         * closed scope reopens as @p p.
         */
        void
        switchTo(Phase p)
        {
            if (!_acc) {
                if (p != Phase::None && enabled())
                    open(p);
                return;
            }
            const clock::time_point now = clock::now();
            _acc->timedNs += static_cast<std::uint64_t>((now - _t0).count());
            ++_acc->timedCount;
            _acc = &threadAcc().phases[static_cast<unsigned>(p)];
            ++_acc->count;
            _t0 = now;
        }

        /** End the scope early (used where a block does not fit the
         *  region, e.g. setup spanning declarations). Idempotent. */
        void
        close()
        {
            // _acc is only set for timed entries (always, for exact
            // phases; one in 2^sampleShift for sampled ones), so an
            // untimed close is a single null test.
            if (!_acc)
                return;
            _acc->timedNs += static_cast<std::uint64_t>(
                (clock::now() - _t0).count());
            if (!_continuation)
                ++_acc->timedCount;
            if (_restorePhase)
                tlPhase() = _prevPhase;
            _acc = nullptr;
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        using clock = std::chrono::steady_clock;

        /** Enabled-path entry. Inline because sampled phases open per
         *  simulated event: the common (untimed) case must stay at a
         *  TLS load plus two increments. */
        void
        open(Phase p)
        {
            ThreadAcc &t = threadAcc();
            unsigned idx = static_cast<unsigned>(p);
            PhaseAcc &acc = t.phases[idx];
            ++acc.count;
            if (phaseSampled(p)) {
                if ((t.stride[idx]++ & ((1u << sampleShift()) - 1)) != 0)
                    return; // count-only entry; close() is a no-op
                // Timed entry: the thread-phase marker makes coroutine
                // continuations of *this* entry re-open the phase (see
                // resumePhase), so the stride samples whole
                // transactions, suspended segments included.
                _prevPhase = tlPhase();
                tlPhase() = p;
                _restorePhase = true;
            }
            _acc = &acc;
            _t0 = clock::now();
        }

        PhaseAcc *_acc = nullptr;
        clock::time_point _t0;
        Phase _prevPhase = Phase::None;
        bool _restorePhase = false;
        bool _continuation = false;
    };

    /**
     * The sampled phase a *timed* entry currently has open on this
     * thread (None otherwise). Awaitables capture it at suspension and
     * re-open it around the resume — same-transaction continuations
     * (Delay) with a Scope(p, Resume{}), timed unconditionally, so a
     * bank transaction's delay segments stay attributed to the bank
     * across event boundaries; cross-transaction lock hand-offs
     * (LineLockTable::release) with a plain Scope(p) that re-rolls the
     * stride, so timing cannot cascade down waiter chains. The
     * sampling unit is a maximal Delay-chain starting at a request
     * receipt or a lock grant; count-only entries stay at two
     * increments.
     */
    static Phase resumePhase() { return tlPhase(); }

  private:
    /** One thread's accumulators plus its per-phase sampling strides. */
    struct ThreadAcc
    {
        std::array<PhaseAcc, numPhases> phases{};
        std::array<std::uint32_t, numPhases> stride{};
    };

    /** The calling thread's accumulator. A function-local thread_local
     *  like tlPhase(): constant-initialized, so a Scope reaches it with
     *  no registration or first-use check. */
    static ThreadAcc &
    threadAcc()
    {
        static thread_local ThreadAcc acc;
        return acc;
    }

    static std::atomic<bool> _on;
    /** Atomic: concurrent sweep jobs may each enable() the profiler
     *  (last writer wins; every run passes the default shift). */
    static std::atomic<unsigned> _sampleShift;

    /** The sampled phase a timed entry has open on this thread (see
     *  resumePhase). A function-local thread_local: every translation
     *  unit reaches the one constant-initialized variable directly. */
    static Phase &
    tlPhase()
    {
        static thread_local Phase phase = Phase::None;
        return phase;
    }
};

} // namespace sim

#endif // COHESION_SIM_HOST_PROFILER_HH
