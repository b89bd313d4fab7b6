/**
 * @file
 * Experiment runner: builds a machine in a given configuration, boots
 * the runtime, executes a kernel to completion on every core, verifies
 * the result, and collects the statistics every figure of the paper is
 * derived from.
 */

#ifndef COHESION_HARNESS_RUNNER_HH
#define COHESION_HARNESS_RUNNER_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "arch/chip.hh"
#include "arch/machine_config.hh"
#include "kernels/kernel.hh"
#include "sim/host_profiler.hh"
#include "sim/timeseries.hh"

namespace harness {

/** Everything the benches need from one simulation. */
struct RunResult
{
    sim::Tick cycles = 0;
    std::uint64_t instructions = 0;
    /** Discrete events fired by the run (simulator throughput metric). */
    std::uint64_t eventsRun = 0;

    arch::MsgCounters msgs; ///< L2 output messages by Fig. 2 class.

    // Fig. 3: SWcc coherence-instruction efficiency.
    std::uint64_t flushIssued = 0;
    std::uint64_t flushUseful = 0;
    std::uint64_t invIssued = 0;
    std::uint64_t invUseful = 0;

    // Fig. 9c: directory occupancy (time-averaged, 1000-cycle samples).
    double dirAvgTotal = 0;
    std::array<double, arch::numSegments> dirAvgBySegment{};
    double dirMax = 0;

    // Protocol activity.
    std::uint64_t transitions = 0;
    std::uint64_t tableLookups = 0;
    std::uint64_t tableCacheHits = 0;
    std::uint64_t tableCacheMisses = 0;
    std::uint64_t dirEvictions = 0;
    std::uint64_t atomics = 0;
    std::uint64_t mergeConflicts = 0;
    std::uint64_t dirInsertions = 0;
    std::uint64_t dirPeak = 0;

    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l3Hits = 0;
    std::uint64_t l3Misses = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t fabricBytes = 0;

    // Message-latency histograms (depart -> arrival through the fabric),
    // per Fig. 2 class plus responses and directory probes.
    std::array<sim::Histogram, arch::numMsgClasses> reqLatency{};
    sim::Histogram respLatency;
    sim::Histogram probeLatency;
    sim::Histogram fabricDelayUp;
    sim::Histogram fabricDelayDown;

    /** Sampled series (empty unless sampling was enabled). */
    sim::TimeSeriesData timeSeries;

    /** Effective workload seed (kernels::Params::seed). */
    std::uint64_t seed = 0;
    /** Effective fault seed (0 when fault injection was off). */
    std::uint64_t faultSeed = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsRecovered = 0;

    /** Fabric drops survived by delivered messages (fault injection),
     *  split by request class plus responses. */
    std::array<std::uint64_t, arch::numMsgClasses> reqRetries{};
    std::uint64_t respRetries = 0;

    /** Serialized flight-recorder ring (binary dump format; empty when
     *  the recorder was disabled). Deterministic for a deterministic
     *  run, so sweeps can compare dumps across --jobs values. */
    std::string recorderDump;
    /** Total events the recorder observed (wrapped ones included). */
    std::uint64_t recorderRecorded = 0;

    /** Host-side self-profile of this run (this thread's accumulation
     *  delta across runKernel; empty when RunOptions::hostProfile is
     *  off). Nondeterministic — never feed into golden hashes. */
    sim::HostProfiler::Profile hostProfile;
    /** Host wall-clock seconds spent inside runKernel (always set). */
    double hostWallSec = 0;

    /** Per-stage cycle-blame breakdown (all buckets zero unless
     *  RunOptions::latency was on). Deterministic — see DESIGN.md
     *  SS15. */
    sim::LatencyTotals latency;
};

/** Options controlling a run. */
struct RunOptions
{
    /** Sample the directory every 1000 cycles (Fig. 9c). */
    bool sampleOccupancy = false;
    /** Skip numerical verification (sweep speed). */
    bool skipVerify = false;
    /** Record kinds to narrate to the log sink, bit k for
     *  FlightRecorder::Ev k (arch::parseTraceGroups; 0: off). */
    std::uint32_t traceMask = 0;
    /** Time-series sampling period (0: 1000 iff sampleOccupancy). */
    sim::Tick samplePeriod = 0;
    /** Render the record stream as a Chrome trace-event JSON document
     *  here (arch::renderRecord; not owned). */
    std::ostream *traceJson = nullptr;
    /** Dump the hierarchical stat registry as JSON here (not owned). */
    std::ostream *statsJson = nullptr;
    /** Run the coherence auditor (periodic passes + one final pass). */
    bool audit = true;
    /** Flight-recorder ring capacity in records (0 disables). The
     *  recorder is on by default so every failure has a post-mortem. */
    std::uint32_t recorderCapacity = 1u << 14;
    /** Write the binary recorder dump here after the run (empty: keep
     *  it only in RunResult::recorderDump). */
    std::string recorderDumpPath;
    /** Also narrate every record touching this line, whatever its
     *  kind (~0: off). Matches the line containing the address. */
    mem::Addr watchLine = ~mem::Addr(0);
    /** Per-line sharing-pattern profiler top-N table size. 0 defers to
     *  the default: enabled (top 8) whenever statsJson is requested. */
    unsigned profileTopN = 0;
    /** Enable the host-side self-profiler (sim/host_profiler.hh):
     *  fills RunResult::hostProfile and adds the host.* subtree to
     *  statsJson. Strictly observer — simulated results are identical
     *  with it on or off. */
    bool hostProfile = false;
    /** Live-progress heartbeat, invoked with (tick, events run) every
     *  ~0.25 s of host time while the machine runs (null: off). */
    arch::Chip::ProgressFn progress;
    /** Write a CCKPT1 machine snapshot here after the run completes
     *  (empty: off). See harness::Session. */
    std::string checkpointAt;
    /** Restore machine state from this CCKPT1 snapshot before running
     *  (empty: off). Throws sim::SnapshotError on a bad snapshot. */
    std::string restoreFrom;
    /** Enable per-transaction latency accounting (chip.latency.* stats
     *  and RunResult::latency). Observer-only: simulated results are
     *  byte-identical with it on or off. */
    bool latency = false;
};

/**
 * Run @p kernel on a machine configured by @p cfg.
 * Calls fatal() on deadlock or verification failure.
 */
RunResult runKernel(const arch::MachineConfig &cfg, kernels::Kernel &kernel,
                    const RunOptions &opts = {});

/** Convenience: build the kernel from a factory and run it. */
RunResult runKernel(const arch::MachineConfig &cfg,
                    kernels::KernelFactory factory,
                    const kernels::Params &params,
                    const RunOptions &opts = {});

} // namespace harness

#endif // COHESION_HARNESS_RUNNER_HH
