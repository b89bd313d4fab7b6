/**
 * @file
 * The Table-3 performance ledger: the benchmark's workloads, the pass
 * runner that times them from outside the simulator, the simulated
 * fingerprint that doubles as the correctness check, and the metrics
 * derived from one or more passes.
 *
 * Everything here drives the simulator through its public entry points
 * only (harness::Session, sim::SweepEngine with custom job bodies,
 * RunOptions/RunResult), so the ledger measures the program as a user
 * sees it. Spans are recorded around the calls into each layer and the
 * run's internal split comes from RunResult::hostProfile.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arch/machine_config.hh"
#include "harness/sweep.hh"
#include "kernels/kernel.hh"
#include "sim/host_profiler.hh"

namespace perfbench {

/** One simulation of a workload: a kernel on a machine. */
struct JobSpec
{
    std::string label;
    arch::MachineConfig cfg;
    kernels::Params params;
    kernels::KernelFactory factory = nullptr;
    /** Run the coherence auditor (RunOptions::audit). */
    bool audit = true;
    /** Export the stat registry as JSON into a discarded sink. */
    bool exportStats = false;
};

/** A named set of jobs run on a fixed number of sweep workers. */
struct Workload
{
    std::string name;
    std::vector<JobSpec> jobs;
    unsigned workers = 1;
};

const std::vector<std::string> &workloadNames();

/** Build workload @p name with every job seeded by @p seed. Throws
 *  std::invalid_argument on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/**
 * The input seed a run with seed @p run_seed simulates: @p run_seed
 * itself if it is one of the @p recorded seeds, else one of them
 * picked by a hash of @p run_seed. So every job of the run is checked
 * against a recorded fingerprint and runs on inputs known to verify.
 * Some seeds give inputs that a kernel's own verification rejects
 * (cg's residual check at scale 1, for one), so the benchmark does not
 * feed arbitrary seeds to the kernels. With no recorded seeds,
 * @p run_seed itself.
 */
std::uint64_t inputSeed(std::uint64_t run_seed,
                        const std::vector<std::uint64_t> &recorded);

/** The deterministic, simulated summary of one job. */
struct Fingerprint
{
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l2Msgs = 0;
    /** FNV-1a over the chip stat registry (CSV form). The chip never
     *  registers host.* or latency.host_*, so host timing stays out. */
    std::uint64_t statDigest = 0;

    std::string str() const;
    bool operator==(const Fingerprint &) const = default;
};

/** Recorded fingerprints: workload -> seed -> job label -> str(). */
class FingerprintBook
{
  public:
    /** Parse @p text; returns false and sets @p err when malformed. */
    bool parse(const std::string &text, std::string *err);
    std::string dump() const;

    /** The recorded fingerprint, if this (workload, seed, job) has one. */
    std::optional<std::string> find(const std::string &workload,
                                    std::uint64_t seed,
                                    const std::string &label) const;
    void set(const std::string &workload, std::uint64_t seed,
             const std::string &label, const std::string &fp);

    /** The seeds recorded for @p workload, ascending. */
    std::vector<std::uint64_t> seeds(const std::string &workload) const;

  private:
    std::map<std::string,
             std::map<std::string, std::map<std::string, std::string>>>
        _book;
};

/** A host-time interval recorded by the benchmark, in seconds from
 *  the start of its pass. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1; ///< Index into the pass's span list; -1: root.
    int job = -1;    ///< Job index; -1 for the pass itself.

    double dur() const { return end - start; }
};

/** What one job of a pass produced. */
struct JobRecord
{
    std::string label;
    sim::JobOutcome outcome = sim::JobOutcome::Ok;
    std::string what;
    /** The job finished but its fingerprint differs from the recorded
     *  one for this seed. */
    bool fingerprintMismatch = false;
    Fingerprint fp;

    // Host seconds from the start of the pass.
    double start = 0, constructEnd = 0, runEnd = 0, fingerprintEnd = 0;
    double end = 0;

    sim::HostProfiler::Profile profile; ///< Traced passes only.
    std::uint64_t l2Hits = 0, l2Misses = 0, l3Hits = 0, l3Misses = 0;
    std::uint64_t fabricBytes = 0, recorderRecords = 0;
    std::uint64_t dirInsertions = 0, dirEvictions = 0, probeResponses = 0;
    std::uint64_t tableLookups = 0, transitions = 0, dramAccesses = 0;

    bool ok() const
    {
        return outcome == sim::JobOutcome::Ok && !fingerprintMismatch;
    }
    double constructSec() const { return constructEnd - start; }
    double runSec() const { return runEnd - constructEnd; }
    double teardownSec() const { return end - fingerprintEnd; }
    double wallSec() const { return end - start; }
};

/** One pass over every job of a workload. */
struct PassResult
{
    bool traced = false;
    unsigned workers = 1;
    double wallSec = 0;
    std::vector<JobRecord> jobs;
    /** Traced passes: pass, job, construct, run, fingerprint and
     *  teardown spans. */
    std::vector<Span> spans;

    std::size_t failed() const;
};

/**
 * Run every job of @p w once. A traced pass turns on the host
 * profiler and records spans; an untraced pass times only the pass
 * and each job's Session construction. Jobs whose recorded
 * fingerprint in @p book (may be null) differs count as failed.
 */
PassResult runPass(const Workload &w, bool traced,
                   const FingerprintBook *book);

/** A named measurement. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** End-to-end metrics over untraced passes (medians of host times). */
std::vector<Metric> endToEndMetrics(const std::vector<PassResult> &passes,
                                    double peak_rss_mb);

/** Per-layer metrics of a traced pass, with @p base the untraced pass
 *  run beside it (for the tracing overhead) and @p micro appended. */
std::vector<Metric> perLayerMetrics(const PassResult &base,
                                    const PassResult &traced,
                                    const std::vector<Metric> &micro);

/** Self time of each span: its duration minus the union of its
 *  children's intervals. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Component micro-rates (ns/op) at Table-3 shapes, inputs from
 *  @p seed. */
std::vector<Metric> runMicro(std::uint64_t seed);

/** Peak resident set of this process in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
