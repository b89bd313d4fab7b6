/**
 * @file
 * Top-level chip: clusters, interconnect, L3 banks with directory
 * slices, DRAM channels, the coarse region table, and the backing
 * store holding architectural memory contents. Also provides untimed
 * debug access for workload setup/verification and the directory
 * occupancy sampler used by Fig. 9c.
 *
 * Execution (DESIGN.md §13): one calendar queue, driven by the calling
 * thread in windows bounded by conservative lookahead over the fabric
 * latency. Every cross-component message (requests, responses, both
 * probe legs, barrier wakeups) travels through the sim::Router in a
 * canonical (tick, source, sequence) order; that order, the window
 * cadences and the staged flight-recorder merge together define the
 * schedule the committed goldens pin.
 *
 * A chip, and everything it allocates, belongs to the thread that
 * builds and drives it (see harness/sweep.hh), so its counters, its
 * backing store and its queued events are plain, unsynchronized state.
 */

#ifndef COHESION_ARCH_CHIP_HH
#define COHESION_ARCH_CHIP_HH

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/cluster.hh"
#include "arch/fabric.hh"
#include "arch/l3bank.hh"
#include "arch/machine_config.hh"
#include "cohesion/region_table.hh"
#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/flight_recorder.hh"
#include "sim/latency_accounting.hh"
#include "sim/router.hh"
#include "sim/stat_registry.hh"
#include "sim/timeseries.hh"

namespace coherence {
class Auditor;
class LineProfiler;
}

namespace sim {
class TraceJsonWriter;
}

namespace arch {

/**
 * Thrown by the deadlock/livelock watchdog in runUntilQuiescent when
 * the machine makes no forward progress for a full watchdog window (or
 * exceeds the absolute cycle limit). Carries the in-flight transaction
 * dump so the failure is diagnosable without rerunning under a tracer.
 */
class DeadlockError : public std::runtime_error
{
  public:
    DeadlockError(const std::string &reason, std::string in_flight)
        : std::runtime_error(in_flight.empty() ? reason
                                               : reason + "\n" + in_flight),
          _dump(std::move(in_flight))
    {}

    /** The in-flight transaction table at detection time. */
    const std::string &dump() const { return _dump; }

  private:
    std::string _dump;
};

/** Segment classes for directory-occupancy accounting (Fig. 9c). */
enum class Segment : std::uint8_t { Code, Stack, HeapGlobal };
constexpr unsigned numSegments = 3;

class Chip
{
  public:
    explicit Chip(const MachineConfig &config, mem::Addr table_base);
    ~Chip();

    const MachineConfig &config() const { return _config; }

    /** The chip's event queue. Cross-component delivery goes through
     *  the router, never straight into this queue. */
    sim::EventQueue &eq() { return _eq; }

    mem::AddressMap &map() { return _map; }
    mem::BackingStore &store() { return _store; }
    mem::DramModel &dram() { return _dram; }
    Fabric &fabric() { return _fabric; }
    cohesion::CoarseRegionTable &coarseTable() { return _coarseTable; }

    Cluster &cluster(unsigned i) { return *_clusters.at(i); }
    unsigned numClusters() const { return _clusters.size(); }
    L3Bank &bank(unsigned i) { return *_banks.at(i); }
    unsigned numBanks() const { return _banks.size(); }

    /** Core by global id (cluster-major order). */
    Core &
    core(unsigned global_id)
    {
        return cluster(global_id / _config.coresPerCluster)
            .core(global_id % _config.coresPerCluster);
    }

    unsigned totalCores() const { return _config.totalCores(); }

    bool cohesionEnabled() const
    {
        return _config.mode == CoherenceMode::Cohesion;
    }

    // --- Coherence backend ------------------------------------------------

    /** Resolved backend name (never empty after construction). */
    const std::string &backendName() const { return _config.backend; }

    /** Registry traits of the resolved backend. */
    const coherence::BackendTraits &backendTraits() const
    {
        return _backendTraits;
    }

    /** Clusters must write through (no M/E grants, no upgrades). */
    bool writeThroughBackend() const { return _backendTraits.writeThrough; }

    /** Auditor applicability mask for the resolved backend. */
    std::uint32_t auditMask() const { return _backendTraits.auditMask; }

    /** Events executed so far. */
    std::uint64_t totalEventsRun() const { return _eq.eventsRun(); }

    /** The run's final tick. Valid at quiescence (runUntilQuiescent
     *  normalizes the queue's clock to the last fired event). */
    sim::Tick finalTick() const { return _eq.now(); }

    /** Wakeup used by the runtime barrier: run @p cb at @p when, in
     *  canonical router order. */
    void postBarrierWake(sim::Tick when, sim::Event cb);

    // --- Messaging helpers (used by clusters and banks) -----------------

    /**
     * Deliver a cluster request to its home bank through the fabric.
     * All L2->L3 fault sites (drop/duplicate/delay) live here; dropped
     * messages are retransmitted with bounded exponential backoff and
     * per-channel FIFO is preserved via the fabric's delivery floors.
     * Delivery goes through the router.
     */
    void deliverRequest(unsigned cluster, Request req, unsigned data_words,
                        sim::Tick depart);

    /** Deliver a bank response to a cluster through the fabric. */
    void sendResponse(unsigned bank, unsigned cluster, Response resp,
                      unsigned data_words);

    /**
     * Send a probe from @p bank to @p cluster; the probe is applied at
     * arrival, the cluster's ProbeResponse is counted and sent back,
     * and @p done runs at the response's arrival at the bank. @p txn
     * is the causal id (the triggering request's msgId) threaded
     * through for the flight recorder.
     */
    void sendProbe(unsigned bank, unsigned cluster, ProbeType type,
                   mem::Addr addr, std::uint32_t txn,
                   std::function<void(unsigned, const ProbeResult &)> done);

    // --- Untimed debug access (setup / verification) --------------------

    void
    debugWrite(mem::Addr a, const void *src, unsigned bytes)
    {
        _store.write(a, src, bytes);
    }

    void
    debugRead(mem::Addr a, void *out, unsigned bytes) const
    {
        _store.read(a, out, bytes);
    }

    template <typename T>
    void
    debugWriteT(mem::Addr a, T v)
    {
        _store.writeT(a, v);
    }

    template <typename T>
    T
    debugReadT(mem::Addr a) const
    {
        return _store.readT<T>(a);
    }

    /**
     * Read @p words consecutive 32-bit words from word-aligned @p a
     * with full visibility into the hierarchy. Per word, the newest
     * visible copy wins: the lowest-numbered cluster whose L2 holds the
     * word dirty and valid, then a valid word in the home L3, then
     * memory. Each line is resolved once. Used by kernel verification
     * so results need not be flushed first.
     */
    void coherentRead(mem::Addr a, std::uint32_t *out, std::size_t words);

    /** One-word coherentRead. */
    std::uint32_t
    coherentRead32(mem::Addr a)
    {
        std::uint32_t v = 0;
        coherentRead(a, &v, 1);
        return v;
    }

    // --- Fault injection -------------------------------------------------

    sim::FaultInjector &faults() { return _faults; }
    const sim::FaultInjector &faults() const { return _faults; }

    /**
     * Directed (test-driven) injection at @p site, xoring @p xor_mask
     * into the word at @p addr. MemDataFlip corrupts the newest
     * visible copy (the one coherentRead returns, found by the same
     * line resolution) so a verifier must observe it; L2/L3 variants
     * corrupt a resident copy if one exists (meta sites xor the low
     * byte into dirtyMask and the next byte into validMask). Counts as
     * injected on the site.
     */
    void injectFault(sim::FaultSite site, mem::Addr addr,
                     std::uint32_t xor_mask);

    // --- Runtime auditing ------------------------------------------------

    /**
     * Enable the coherence auditor: full invariant passes on a
     * cost-scaled cadence while the run is live plus a final pass
     * after quiescence. Violations surface as coherence::AuditError
     * out of runUntilQuiescent.
     */
    void enableAudit();

    /** One full audit pass right now (throws coherence::AuditError). */
    void auditNow();

    /** auditNow() without moving the chip.audit.* counters (the
     *  pre-checkpoint verification pass; see coherence::Auditor). */
    void verifyNow();

    coherence::Auditor *auditor() { return _auditor.get(); }

    /** Human-readable table of in-flight bank transactions, cluster
     *  MSHRs, and outstanding writebacks (watchdog diagnostics). */
    std::string inFlightDump() const;

    /** Responses delivered to clusters (watchdog progress signal). */
    std::uint64_t
    responsesDelivered() const
    {
        return _respDelivered.value();
    }

    // --- Observability ---------------------------------------------------

    /** Latency of a request/probe-response message of class @p cls,
     *  measured depart-to-accept through the fabric. */
    void
    sampleReqLatency(MsgClass cls, sim::Tick lat)
    {
        _reqLatency[static_cast<unsigned>(cls)].sample(lat);
    }

    void sampleRespLatency(sim::Tick lat) { _respLatency.sample(lat); }

    const sim::Histogram &
    reqLatency(MsgClass cls) const
    {
        return _reqLatency[static_cast<unsigned>(cls)];
    }

    const sim::Histogram &respLatency() const { return _respLatency; }
    const sim::Histogram &probeLatency() const { return _probeLatency; }

    /**
     * Turn on per-transaction cycle accounting (chip.latency.*; see
     * sim/latency_accounting.hh). Observer-only like the recorder:
     * off (the default) leaves the hot path untouched and exports no
     * new keys, so existing stat fingerprints are unchanged.
     */
    void enableLatencyAccounting() { _latAcc.enable(); }
    bool latencyOn() const { return _latAcc.enabled(); }
    sim::LatencyAccountant &latAcc() { return _latAcc; }
    const sim::LatencyAccountant &latAcc() const { return _latAcc; }

    sim::TimeSeries &timeSeries() { return _timeSeries; }
    const sim::TimeSeries &timeSeries() const { return _timeSeries; }

    // --- Flight recorder / line profiler ---------------------------------

    /** Turn the flight recorder on with a ring of @p capacity records
     *  (one allocation; see sim::FlightRecorder). */
    void enableRecorder(std::uint32_t capacity = 1u << 14);

    /** Aggregate per-line sharing-pattern telemetry (exported under
     *  "chip.lines" by registerStats). @p top_n sizes the contended-
     *  lines table. */
    void enableLineProfiler(unsigned top_n = 8);

    /**
     * Narrate merged records to the thread's log sink, one
     * describeRecord() line each: every record whose kind is in
     * @p kinds (arch::parseTraceGroups), plus every record touching
     * @p watch_line's line (~0: none). Works with the ring disabled.
     * (0, ~0) turns narration off.
     */
    void setNarration(std::uint32_t kinds, mem::Addr watch_line);

    /**
     * Render every merged record into @p w (arch::renderRecord), name
     * the component tracks, and mirror time-series samples as counter
     * events; nullptr detaches. The writer is not owned.
     */
    void renderTo(sim::TraceJsonWriter *w);

    sim::FlightRecorder &recorder() { return _recorder; }
    const sim::FlightRecorder &recorder() const { return _recorder; }
    coherence::LineProfiler *lineProfiler() { return _profiler.get(); }

    /**
     * Emit one protocol event. The disabled path is this single byte
     * test, so instrumented hot paths stay effectively free when no
     * observer of the record stream is on (the ring, the line
     * profiler, narration, the trace-event renderer). Otherwise the
     * record is *staged* and merged at the next window barrier in
     * canonical (tick, component) order (drainRecStage), so every
     * observer sees that order, not execution order.
     */
    void
    rec(sim::FlightRecorder::Ev kind, std::uint16_t comp, mem::Addr line,
        std::uint32_t txn, std::uint8_t a = 0, std::uint32_t b = 0)
    {
        if (!_recAny)
            return;
        sim::FlightRecorder::Record r;
        r.tick = _eq.now();
        r.line = line;
        r.txn = txn;
        r.comp = comp;
        r.kind = static_cast<std::uint8_t>(kind);
        r.a = a;
        r.b = b;
        _recStage.push_back(r);
    }

    /** Decoded recorder history for one line (newest @p max_records),
     *  one indented record per row. Empty if the ring is off. */
    std::string lineHistory(mem::Addr line_base,
                            std::size_t max_records = 16) const;

    /** Recorder histories for every line implicated in the in-flight
     *  dump (watchdog/audit post-mortems). */
    std::string postMortemHistory() const;

    /** Fabric drops survived by delivered requests of class @p cls. */
    std::uint64_t
    reqRetries(MsgClass cls) const
    {
        return _reqRetries[static_cast<unsigned>(cls)].value();
    }

    std::uint64_t
    respRetries() const
    {
        return _respRetries.value();
    }

    /** Register every chip-level stat under "chip." in @p reg. */
    void registerStats(sim::StatRegistry &reg) const;

    // --- Directory occupancy sampling (Fig. 9c) -------------------------

    using SegmentClassifier = std::function<Segment(mem::Addr)>;

    void setSegmentClassifier(SegmentClassifier fn)
    {
        _classifier = std::move(fn);
    }

    /**
     * Enable periodic sampling (default: paper's 1000 cycles).
     * Registers the occupancy / queue-depth / message-rate series with
     * the time-series sampler and arms it on the event queue.
     */
    void enableOccupancySampling(sim::Tick period = 1000);

    /** Time-average directory entries in @p seg across banks. */
    double occupancyAverage(Segment seg) const
    {
        return _occupancy[static_cast<unsigned>(seg)].timeAverage();
    }

    double occupancyAverageTotal() const { return _occupancyTotal.timeAverage(); }
    double occupancyMax() const { return _occupancyTotal.maximum(); }

    // --- Execution -------------------------------------------------------

    /**
     * Live-progress heartbeat: called from inside runUntilQuiescent
     * roughly every @p interval_sec of host time with (current tick,
     * events run so far). The host clock is only consulted at window
     * barriers and never feeds back into window boundaries, so the
     * simulated results stay byte-identical with the hook installed.
     */
    using ProgressFn = std::function<void(sim::Tick, std::uint64_t)>;

    void
    setProgressHook(ProgressFn fn, double interval_sec = 0.25)
    {
        _progressFn = std::move(fn);
        _progressIntervalSec = interval_sec;
    }

    /**
     * Run until the queue and the router drain. Execution proceeds in
     * conservative-lookahead windows: each window flushes the router
     * messages due inside it and runs the queue up to
     *   stop = min(B + netLatency - 1, next cadence tick, limits)
     * where B is the earliest pending event or message — every routed
     * message arrives at least netLatency+1 past its departure, so
     * nothing posted inside a window can land inside it. Audit passes,
     * the fault pump, the sampler, the watchdog and the heartbeat all
     * run at the window barrier. Throws DeadlockError on stagnation or
     * the maxCycles limit, and rethrows the error of a bank
     * transaction that died (before either, and at the latest when the
     * run ends).
     * @return final tick (the last fired event; the queue's clock is
     * normalized to it, so a later run or checkpoint continues from
     * one well-defined point).
     */
    sim::Tick runUntilQuiescent();

    /** Aggregate L2 output message counters across clusters. */
    MsgCounters aggregateMessages() const;

    /** Total instructions retired across all cores. */
    std::uint64_t totalInstructions() const;

  private:
    /** Route one request (or its duplicate) to its bank. */
    void routeRequest(unsigned cluster_id, unsigned bank_id, Request req,
                      sim::Tick nominal, sim::Tick depart, unsigned drops);

    /** Per word of @p base's line: the line holding the newest visible
     *  copy (coherentRead's order), or nullptr where memory holds it.
     *  Only the words in @p want are resolved. */
    std::array<cache::Line *, mem::wordsPerLine>
    newestCopies(mem::Addr base, mem::WordMask want);

    /** Probe application at the cluster + response leg back. */
    void probeArrived(unsigned bank_id, unsigned cluster_id, ProbeType type,
                      mem::Addr addr, std::uint32_t txn,
                      std::function<void(unsigned, const ProbeResult &)> done);

    /** Merge staged flight-recorder records (canonical order) into
     *  the ring and the other observers. Barrier-only. */
    void drainRecStage();

    /** The observers beyond the ring: line profiler, narration and
     *  the trace-event renderer. */
    void observe(const sim::FlightRecorder::Record &r);
    void updateRecAny();

    void sampleOccupancy();

    /** True when any cache-flip fault site is armed; the run loop then
     *  invokes faultPump() at the plan's pump cadence. */
    bool pumpEligible() const;
    void faultPump();

    /** Rethrow the first error of a finished bank transaction that no
     *  later request has pruned yet (no-op when none failed). */
    void rethrowFailedTransaction() const;

    unsigned srcKeyCluster(unsigned c) const { return c; }
    unsigned srcKeyBank(unsigned b) const { return _config.numClusters + b; }
    unsigned
    srcKeyBarrier() const
    {
        return _config.numClusters + _config.numL3Banks;
    }

    /** Watchdog progress signature: stagnation across a full window
     *  means deadlock or livelock (retry storms keep event counts and
     *  message counters moving, so those are deliberately excluded). */
    struct Progress
    {
        std::uint64_t instructions = 0;
        std::uint64_t txnsCompleted = 0;
        std::uint64_t respDelivered = 0;
        bool operator==(const Progress &) const = default;
    };
    Progress progress() const;

    MachineConfig _config; ///< backend resolved.
    coherence::BackendTraits _backendTraits;
    sim::EventQueue _eq;
    sim::Router _router;
    mem::AddressMap _map;
    mem::BackingStore _store;
    mem::DramModel _dram;
    Fabric _fabric;
    sim::FaultInjector _faults;
    cohesion::CoarseRegionTable _coarseTable;
    std::vector<std::unique_ptr<Cluster>> _clusters;
    std::vector<std::unique_ptr<L3Bank>> _banks;
    std::unique_ptr<coherence::Auditor> _auditor;
    sim::Tick _auditPeriod = 0;
    sim::Counter _respDelivered;

    ProgressFn _progressFn;
    double _progressIntervalSec = 0.25;

    SegmentClassifier _classifier;
    sim::Tick _samplePeriod = 0;
    std::array<sim::TimeSampler, numSegments> _occupancy;
    sim::TimeSampler _occupancyTotal;

    // Cached by sampleOccupancy() so the time-series probes read the
    // directory walk's result instead of repeating it per series.
    std::array<double, numSegments> _lastOccupancy{};
    double _lastOccupancyTotal = 0;

    sim::TimeSeries _timeSeries;
    std::array<sim::Histogram, numMsgClasses> _reqLatency;
    sim::Histogram _respLatency;
    sim::Histogram _probeLatency;
    /** Stage-blame aggregation; deliberately not checkpointed —
     *  aggregates restart at restore (§15). */
    sim::LatencyAccountant _latAcc;

    sim::FlightRecorder _recorder;
    std::vector<sim::FlightRecorder::Record> _recStage;
    std::unique_ptr<coherence::LineProfiler> _profiler;
    std::uint32_t _narrateKinds = 0;
    mem::Addr _watchLine = ~mem::Addr(0);
    sim::TraceJsonWriter *_json = nullptr;
    bool _recAny = false;  ///< any observer of the record stream on
    bool _recSlow = false; ///< an observer beyond the ring on
    std::array<sim::Counter, numMsgClasses> _reqRetries;
    sim::Counter _respRetries;
    sim::Counter _retryExhausted;

  public:
    /** Messages force-delivered after the drop-retransmit budget was
     *  spent (previously silent; see deliverRequest/sendResponse). */
    std::uint64_t
    retriesExhausted() const
    {
        return _retryExhausted.value();
    }

    /**
     * Checkpoint hooks (tentpole of the crash-resilience work). Only
     * legal at a quiescent point: the queue and the router must be
     * drained and no bank transaction, cluster MSHR, or parked core
     * may exist — coroutine frames cannot serialize. The queue record
     * is its (tick, events run, next seq) triple. Callers should run a
     * full audit pass first; checkpointState() enforces the structural
     * conditions itself and throws sim::SnapshotError otherwise.
     */
    void checkpointState(sim::Serializer &ser) const;
    void restoreState(sim::Deserializer &des);
};

} // namespace arch

#endif // COHESION_ARCH_CHIP_HH
