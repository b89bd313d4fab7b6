/**
 * @file
 * Deterministic, seeded fault injection. A FaultInjector owns one
 * dedicated Rng stream and a set of named injection *sites* — points
 * in the fabric and memory hierarchy where the wiring asks "does a
 * fault fire here?" once per opportunity. Because every draw happens
 * at a deterministic point in the event schedule, a (seed, plan) pair
 * reproduces the exact same fault sequence bit-for-bit.
 *
 * Sites are configured from a FaultPlan, built either from quick CLI
 * knobs (--fault-seed / --fault-drop-rate) or a JSON plan document:
 *
 *     {
 *       "seed": 7,
 *       "pump_period": 1024,
 *       "sites": {
 *         "fabric.c2b.drop":  { "rate": 0.01 },
 *         "fabric.b2c.delay": { "rate": 0.05, "delay": 128 },
 *         "l2.meta.flip":     { "rate": 0.2,  "max": 3 }
 *       }
 *     }
 *
 * Counter semantics: injected() counts fired faults per site;
 * recovered() counts faults the machinery demonstrably absorbed
 * (today: dropped messages that were retransmitted and delivered).
 * Flip/stale faults have no automatic recovery signal — the Auditor
 * or the kernel verifier is their detector.
 */

#ifndef COHESION_SIM_FAULT_HH
#define COHESION_SIM_FAULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stat_registry.hh"

namespace sim {

/** Named injection sites (see faultSiteName for the wire names). */
enum class FaultSite : std::uint8_t {
    FabricC2BDrop,  ///< Drop an L2->L3 message (retransmitted).
    FabricC2BDup,   ///< Duplicate an L2->L3 message.
    FabricC2BDelay, ///< Delay an L2->L3 message.
    FabricB2CDrop,  ///< Drop an L3->L2 response (retransmitted).
    FabricB2CDup,   ///< Duplicate an L3->L2 response.
    FabricB2CDelay, ///< Delay an L3->L2 response.
    L2DataFlip,     ///< Flip one data bit of a valid L2 line.
    L2MetaFlip,     ///< Flip one valid/dirty mask bit of an L2 line.
    L3DataFlip,     ///< Flip one data bit of a valid L3 line.
    L3MetaFlip,     ///< Flip one valid/dirty mask bit of an L3 line.
    TableStale,     ///< Fine-table cache hit returns a stale word.
    MemDataFlip,    ///< Targeted: corrupt the newest visible copy of
                    ///< a word (verifier-guard tests; never random).
};

constexpr unsigned numFaultSites = 12;

/** Wire name of a site (e.g. "fabric.c2b.drop"). */
const char *faultSiteName(FaultSite s);

/** Parse a wire name; returns false if unknown. */
bool faultSiteFromName(std::string_view name, FaultSite *out);

/** Per-site knobs. */
struct FaultSiteConfig
{
    double rate = 0.0;      ///< Fault probability per opportunity.
    std::uint64_t max = 0;  ///< Injection cap (0 = unlimited).
    Tick delay = 64;        ///< Extra ticks for delay sites.
};

/** A complete fault campaign configuration. */
struct FaultPlan
{
    /** Rng seed for the fault stream; 0 derives one from the default
     *  workload seed via deriveSeed(12345, "fault") (see random.hh). */
    std::uint64_t seed = 0;
    /** Cadence of the state-flip pump (cache/table sites). */
    Tick pumpPeriod = 1024;
    std::array<FaultSiteConfig, numFaultSites> sites{};

    FaultSiteConfig &
    site(FaultSite s)
    {
        return sites[static_cast<unsigned>(s)];
    }

    const FaultSiteConfig &
    site(FaultSite s) const
    {
        return sites[static_cast<unsigned>(s)];
    }

    /** True if any site has a nonzero rate. */
    bool anyEnabled() const;

    /**
     * Parse a JSON plan document (schema in the file header). Calls
     * fatal() on malformed input or unknown site names.
     */
    static FaultPlan parse(std::string_view json_text);
};

/**
 * Each site owns one independent Rng *lane* per source component —
 * C2B fabric sites are laned by source cluster, B2C fabric sites and
 * TableStale by bank, and the flip sites (whose opportunities happen at
 * the run loop's fault pump) share one lane. Each lane's seed is
 * derived from (fault seed, site name, lane index), so a lane's draw
 * sequence depends only on the simulated traffic through that one
 * component: traffic or faults elsewhere never shift its decisions.
 * Per-site injection caps (`max`) apply *per lane*.
 */
class FaultInjector
{
  public:
    /**
     * Install @p plan and reset all counters and Rng lanes.
     * @p clusters / @p banks define the lane geometry (machine
     * topology).
     */
    void configure(const FaultPlan &plan, unsigned clusters = 1,
                   unsigned banks = 1);

    FaultInjector() = default;
    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    bool enabled() const { return _enabled; }
    const FaultPlan &plan() const { return _plan; }
    /** The effective (post-derivation) fault seed. */
    std::uint64_t seed() const { return _seed; }

    unsigned
    lanes(FaultSite s) const
    {
        return static_cast<unsigned>(_lanes[static_cast<unsigned>(s)].size());
    }

    /** True if @p s can still fire in lane @p lane. */
    bool
    armed(FaultSite s, unsigned lane) const
    {
        const FaultSiteConfig &c = _plan.site(s);
        return _enabled && c.rate > 0.0 &&
               (c.max == 0 || laneAt(s, lane).injected < c.max);
    }

    /** True if @p s can still fire in *any* lane (pump eligibility). */
    bool
    armed(FaultSite s) const
    {
        const FaultSiteConfig &c = _plan.site(s);
        if (!_enabled || c.rate <= 0.0)
            return false;
        if (c.max == 0)
            return true;
        for (const Lane &l : _lanes[static_cast<unsigned>(s)]) {
            if (l.injected < c.max)
                return true;
        }
        return false;
    }

    /**
     * One injection opportunity at @p s in lane @p lane: draws the
     * lane's Rng and returns true (counting the injection) if a fault
     * fires. Every call consumes at most one draw from that lane, at a
     * deterministic point in the component's event order, so campaigns
     * replay exactly.
     */
    bool
    fire(FaultSite s, unsigned lane)
    {
        if (!armed(s, lane))
            return false;
        Lane &l = laneAt(s, lane);
        if (l.rng.uniform() >= _plan.site(s).rate)
            return false;
        ++l.injected;
        return true;
    }

    Tick delayTicks(FaultSite s) const { return _plan.site(s).delay; }

    /** Count a directed (test-driven) injection at @p s. */
    void
    countInjected(FaultSite s, unsigned lane = 0)
    {
        ++laneAt(s, lane).injected;
    }

    /** The machinery absorbed one fault injected at @p s (observed at
     *  the receiver). */
    void
    countRecovered(FaultSite s)
    {
        ++_recovered[static_cast<unsigned>(s)];
    }

    /** Total injections at @p s, summed over lanes. Quiescent-only. */
    std::uint64_t
    injected(FaultSite s) const
    {
        std::uint64_t n = 0;
        for (const Lane &l : _lanes[static_cast<unsigned>(s)])
            n += l.injected;
        return n;
    }

    std::uint64_t
    recovered(FaultSite s) const
    {
        return _recovered[static_cast<unsigned>(s)];
    }

    std::uint64_t totalInjected() const;
    std::uint64_t totalRecovered() const;

    /** The fault pump's dedicated Rng stream (victim selection for
     *  flip sites; drawn only at window barriers). */
    Rng &pumpRng() { return _pumpRng; }

    /** Register per-site injected/recovered counters under @p prefix. */
    void registerStats(StatRegistry &reg, const std::string &prefix) const;

    /** Checkpoint hooks: every lane's Rng stream and counters resume
     *  so post-restore fault decisions replay the uninterrupted
     *  campaign exactly. The plan itself is configuration, rebuilt by
     *  the caller before restore. */
    void
    checkpointState(Serializer &ser) const
    {
        ser.tag("faults");
        ser.b(_enabled);
        ser.u64(_seed);
        for (const auto &site : _lanes) {
            ser.u64(site.size());
            for (const Lane &l : site) {
                for (std::uint64_t w : l.rng.rawState())
                    ser.u64(w);
                ser.u64(l.injected);
            }
        }
        for (std::uint64_t v : _recovered)
            ser.u64(v);
        for (std::uint64_t w : _pumpRng.rawState())
            ser.u64(w);
    }

    void
    restoreState(Deserializer &des)
    {
        des.tag("faults");
        bool enabled = des.b();
        if (enabled != _enabled) {
            throw SnapshotError("snapshot fault-injection state does not "
                                "match this configuration");
        }
        _seed = des.u64();
        for (auto &site : _lanes) {
            if (des.u64() != site.size()) {
                throw SnapshotError(
                    "snapshot fault-lane geometry does not match this "
                    "machine configuration");
            }
            for (Lane &l : site) {
                std::array<std::uint64_t, 4> s;
                for (std::uint64_t &w : s)
                    w = des.u64();
                l.rng.setRawState(s);
                l.injected = des.u64();
            }
        }
        for (std::uint64_t &v : _recovered)
            v = des.u64();
        std::array<std::uint64_t, 4> s;
        for (std::uint64_t &w : s)
            w = des.u64();
        _pumpRng.setRawState(s);
    }

  private:
    struct Lane
    {
        Rng rng;
        std::uint64_t injected = 0;
    };

    Lane &
    laneAt(FaultSite s, unsigned lane)
    {
        return _lanes[static_cast<unsigned>(s)][lane];
    }

    const Lane &
    laneAt(FaultSite s, unsigned lane) const
    {
        return _lanes[static_cast<unsigned>(s)][lane];
    }

    bool _enabled = false;
    std::uint64_t _seed = 0;
    FaultPlan _plan;
    std::array<std::vector<Lane>, numFaultSites> _lanes;
    std::array<std::uint64_t, numFaultSites> _recovered{};
    Rng _pumpRng;
};

} // namespace sim

#endif // COHESION_SIM_FAULT_HH
