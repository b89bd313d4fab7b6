/**
 * @file
 * Per-transaction cycle accounting: where did a memory request's
 * cycles go? Every completed request/response transaction carries a
 * compact stage timeline (issue -> MSHR wait -> request fabric ->
 * bank line-lock wait -> directory/backend service with probe
 * round-trips as a nested span -> DRAM -> reply fabric), stamped at
 * the existing protocol seams and aggregated per message class and
 * per coherence mode (the paper-relevant HWcc vs. SWcc cut).
 *
 * The hard invariant: for every completed transaction the stage
 * cycles sum *exactly* to the end-to-end latency (retire tick minus
 * the operation's anchor tick). Any violation increments a counter
 * that tests pin to zero — there is no "other" bucket to hide in.
 *
 * Observer-only, like the host profiler and flight recorder:
 * accounting off (the default) registers no stats and leaves
 * simulation results byte-identical; accounting on changes nothing
 * but the export (DESIGN.md SS15).
 */

#ifndef COHESION_SIM_LATENCY_ACCOUNTING_HH
#define COHESION_SIM_LATENCY_ACCOUNTING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hh"

namespace sim {

class StatRegistry;

namespace lat {

/** The stage taxonomy. Every accounted cycle lands in exactly one. */
enum class Stage : std::uint8_t {
    Issue,      ///< Core issue to request departure (L1/L2 time).
    Mshr,       ///< Waited on an MSHR for an earlier miss (follow-up
                ///< and upgrade requests synthesized at fill time).
    ReqFabric,  ///< Cluster -> bank fabric hop (retries excluded).
    Retry,      ///< Drop/retransmit backoff, both fabric directions.
    BankLock,   ///< Bank line-lock / transaction-queue wait.
    Dir,        ///< Directory port + lookup + domain decision.
    Probe,      ///< Probe round-trips (nested span of the bank time).
    Dram,       ///< DRAM fill portion of the L3 access.
    Service,    ///< Remaining backend service (L3 port, merges, RMW).
    RespFabric, ///< Bank -> cluster fabric hop (retries excluded).
};

constexpr unsigned numStages = 10;

/** Stable display name ("issue", "mshr", "req_fabric", ...). */
const char *stageName(Stage s);

/** Coherence-mode blame cut for one transaction. */
enum class Mode : std::uint8_t {
    Hwcc,       ///< Served under hardware coherence.
    Swcc,       ///< Served incoherently / software-managed.
    Transition, ///< A Fig. 7 domain-transition (table update) flow.
};

constexpr unsigned numModes = 3;

const char *modeName(Mode m);

/**
 * Stage accrual cursor for one transaction, built bank-side on the
 * transaction coroutine's frame and carried to the cluster in the
 * Response. mark(s, now) attributes [last, now) to stage @p s; the
 * telescoping makes the bank span tile exactly.
 */
struct Cursor
{
    std::array<std::uint32_t, numStages> cycles{};
    Tick last = 0; ///< Tick of the previous mark.

    void
    add(Stage s, std::uint64_t d)
    {
        cycles[static_cast<unsigned>(s)] +=
            static_cast<std::uint32_t>(d);
    }

    /** Attribute [last, now) to @p s and advance the cursor. */
    void
    mark(Stage s, Tick now)
    {
        add(s, now - last);
        last = now;
    }

    /** The L3-access split: attribute up to @p dram_ticks of
     *  [last, now) to Dram and the rest (port wait, array latency) to
     *  Service, then advance the cursor. */
    void
    markAccess(Tick now, Tick dram_ticks)
    {
        Tick elapsed = now - last;
        Tick d = dram_ticks < elapsed ? dram_ticks : elapsed;
        add(Stage::Dram, d);
        add(Stage::Service, elapsed - d);
        last = now;
    }
};

} // namespace lat

/** Folded aggregate blame breakdown (export / report snapshot). */
struct LatencyTotals
{
    struct Bucket
    {
        std::uint64_t count = 0;
        std::uint64_t e2e = 0; ///< Sum of end-to-end cycles.
        std::array<std::uint64_t, lat::numStages> stage{};
    };

    std::array<Bucket, lat::numModes> mode{};
    /** Per message class; sized by the caller (arch::numMsgClasses). */
    std::vector<Bucket> cls;
    /** Transactions whose stages did not sum to end-to-end. Tests pin
     *  this to zero; it is exported so a violation is never silent. */
    std::uint64_t violations = 0;

    std::uint64_t
    completed() const
    {
        std::uint64_t n = 0;
        for (const Bucket &b : mode)
            n += b.count;
        return n;
    }
};

/**
 * Register @p t's blame breakdown under "<prefix>." in @p reg (scalars
 * copied by value): <prefix>.mode.<m>.{count,e2e,<stage>...},
 * <prefix>.class.<class_name(c)>.{...}, <prefix>.violations.
 */
void registerLatencyTotals(StatRegistry &reg, const std::string &prefix,
                           const LatencyTotals &t,
                           const char *(*class_name)(unsigned));

/**
 * Aggregation of completed-transaction timelines, recorded by the
 * cluster's retire path. Disabled (the default), record() is never
 * called and registerStats() adds nothing.
 */
class LatencyAccountant
{
  public:
    /** @p num_classes mirrors arch::numMsgClasses (sim/ cannot see
     *  arch/). */
    void
    configure(unsigned num_classes)
    {
        _totals = LatencyTotals{};
        _totals.cls.assign(num_classes, LatencyTotals::Bucket{});
    }

    void enable() { _enabled = true; }
    bool enabled() const { return _enabled; }

    /**
     * Record one completed transaction. @p ok is the stage-sum
     * invariant, checked by the caller (which holds both the timeline
     * and the end-to-end anchor ticks).
     */
    void
    record(unsigned msg_class, lat::Mode mode,
           const std::array<std::uint32_t, lat::numStages> &stages,
           std::uint64_t e2e, bool ok)
    {
        if (!ok)
            ++_totals.violations;
        bump(_totals.mode[static_cast<unsigned>(mode)], stages, e2e);
        if (msg_class < _totals.cls.size())
            bump(_totals.cls[msg_class], stages, e2e);
    }

    const LatencyTotals &totals() const { return _totals; }

    /**
     * Register the breakdown under "<prefix>." (scalars are copied
     * in). The class-bucket names come from @p class_name(index).
     */
    void registerStats(StatRegistry &reg, const std::string &prefix,
                       const char *(*class_name)(unsigned)) const;

  private:
    static void
    bump(LatencyTotals::Bucket &b,
         const std::array<std::uint32_t, lat::numStages> &stages,
         std::uint64_t e2e)
    {
        ++b.count;
        b.e2e += e2e;
        for (unsigned s = 0; s < lat::numStages; ++s)
            b.stage[s] += stages[s];
    }

    bool _enabled = false;
    LatencyTotals _totals;
};

} // namespace sim

#endif // COHESION_SIM_LATENCY_ACCOUNTING_HH
