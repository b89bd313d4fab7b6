/**
 * @file
 * Parallel sweep engine for multi-configuration campaigns.
 *
 * Every headline result of the paper (Figs. 8-10, Table 3, the
 * directory-size sweep, the SWcc/HWcc ablations, the fault campaign)
 * is a *family* of independent simulations over kernels x machine
 * configs x directory geometries x seeds x fault plans. SweepEngine
 * runs such a family on a work-stealing std::thread pool, one fully
 * isolated Machine per job:
 *
 *  - a job owns its Chip, runtime, kernel and StatRegistry; nothing
 *    mutable is shared between concurrent jobs (the event capture
 *    pool is thread-local, log output and protocol narration are
 *    captured per job via sim::LogCapture, and every Rng is seeded
 *    from the job's own config), so results are byte-identical for
 *    any --jobs value;
 *  - results come back in job-submission order regardless of which
 *    worker ran what, so table-printing call sites stay simple;
 *  - a job that throws is classified (audit / deadlock / panic /
 *    verify) and reported in its JobResult together with its captured
 *    log; sibling jobs are unaffected.
 *
 * The declarative layer (SweepSpec) describes a campaign as the
 * cross-product of axes and expands it into jobs; call sites with
 * bespoke per-run logic (the ablation bench's chip surgery, the
 * transition-stress kernel) submit custom job bodies instead.
 */

#ifndef COHESION_HARNESS_SWEEP_HH
#define COHESION_HARNESS_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "arch/machine_config.hh"
#include "harness/runner.hh"
#include "kernels/kernel.hh"

namespace sim {

/** How a sweep job ended. Everything but Ok carries `what`. */
enum class JobOutcome : std::uint8_t
{
    Ok,       ///< Ran to completion (and verified, unless skipped).
    Audit,    ///< coherence::AuditError — invariant violated.
    Deadlock, ///< arch::DeadlockError — watchdog caught a hang.
    Panic,    ///< std::logic_error — a panic() path was reached.
    Verify,   ///< std::runtime_error — fatal(), typically a verify
              ///< mismatch or a configuration error.
    Unknown,  ///< Any other exception type.
    Skipped,  ///< Never ran: a cooperative stop (SIGINT/SIGTERM) was
              ///< requested before the job started.
};

const char *jobOutcomeName(JobOutcome o);

/**
 * Live-telemetry slot for one job: the job's progress hook stores,
 * the sweep monitor thread loads. Lock-free and strictly one-way —
 * nothing a reader does can perturb the job, so progress-enabled
 * sweeps stay byte-identical.
 */
struct JobTelemetry
{
    enum State : std::uint8_t { Pending, Running, Done, Failed };

    std::atomic<std::uint8_t> state{Pending};
    std::atomic<std::uint64_t> tick{0};
    std::atomic<std::uint64_t> events{0};
};

/** One schedulable unit: a label and a body that builds, runs and
 *  tears down a private Machine, returning its statistics. */
struct SweepJob
{
    std::string label;
    std::function<harness::RunResult()> body;
    /** Optional telemetry-aware body, preferred when the engine runs
     *  with progress enabled; receives the job's live slot (never
     *  null). Falls back to body when unset. */
    std::function<harness::RunResult(JobTelemetry *)> bodyT;
};

/** What came back from one job. */
struct JobResult
{
    std::string label;
    JobOutcome outcome = JobOutcome::Ok;
    harness::RunResult run; ///< Valid iff outcome == Ok.
    std::string what;       ///< Exception message otherwise.
    std::string log;        ///< warn()/logLine()/panic() output of this
                            ///< job only (never interleaved).
    double wallSec = 0;     ///< Host wall-clock spent in the body.

    bool ok() const { return outcome == JobOutcome::Ok; }
};

/**
 * Work-stealing thread pool over isolated simulation jobs.
 *
 * Jobs are dealt round-robin onto per-worker deques; a worker drains
 * its own deque LIFO-from-front and steals from the back of a victim's
 * when empty, which keeps long tails (one slow directory point) from
 * idling the pool. The result vector is indexed by submission order,
 * so scheduling never changes what the caller observes.
 */
/** Campaign-level live telemetry controls (SweepEngine::run). */
struct SweepProgress
{
    bool enabled = false;
    /** Human one-liners on stderr (on unless a script only wants the
     *  JSON-lines stream). */
    bool human = true;
    /** Optional JSON-lines sink (not owned; null: none). */
    std::ostream *jsonl = nullptr;
    /** Seconds between heartbeats. */
    double intervalSec = 1.0;
    /**
     * Cooperative stop flag (not owned; null: none). When it becomes
     * true, jobs already running finish normally and their results are
     * delivered, but no further job starts; never-started jobs come
     * back with JobOutcome::Skipped. Settable from a signal handler —
     * the engine only loads it.
     */
    std::atomic<bool> *stop = nullptr;
    /**
     * Completion hook, invoked with (submission index, result) right
     * after each job finishes, before the engine returns. Calls are
     * serialized under a mutex regardless of --jobs, so a journal
     * writer needs no locking of its own. Skipped jobs do not fire it.
     */
    std::function<void(std::size_t, const JobResult &)> onJobDone;
};

class SweepEngine
{
  public:
    /** @p threads 0 selects the host's hardware concurrency. */
    explicit SweepEngine(unsigned threads = 0);

    unsigned threads() const { return _threads; }

    /**
     * Run every job and return results in submission order. With one
     * thread (or one job) everything runs inline on the caller's
     * thread — `--jobs 1` is the bit-exact serial reference.
     */
    std::vector<JobResult> run(const std::vector<SweepJob> &jobs) const;

    /** As above, with a live heartbeat: a monitor thread samples every
     *  job's telemetry slot on @p progress.intervalSec and emits
     *  campaign one-liners / JSON lines. The monitor only reads
     *  atomics — results are identical to the plain overload. */
    std::vector<JobResult> run(const std::vector<SweepJob> &jobs,
                               const SweepProgress &progress) const;

    /** Convenience: run one body outside any pool with the same
     *  classification and log capture. @p telemetry (optional) is
     *  handed to the job's telemetry-aware body. */
    static JobResult runOne(const SweepJob &job,
                            JobTelemetry *telemetry = nullptr);

  private:
    unsigned _threads;
};

/** One fully-specified simulation in a declarative sweep. */
struct SweepPoint
{
    std::string label;
    std::string kernel;
    arch::MachineConfig cfg;
    kernels::Params params;
    bool sampleOccupancy = false;
    bool skipVerify = false;
    bool audit = true;
    /** Enable the host-side self-profiler in each job. */
    bool hostProfile = false;
    /**
     * Cache-warming kernel runs executed on the job's machine before
     * the measured run (statistics accumulate across all of them, as
     * on hardware). Jobs sharing identical warm-up state reuse one
     * machine snapshot via a process-global cache instead of each
     * re-simulating the warm-up — results are bit-identical either
     * way (see harness::Session).
     */
    unsigned warmupRuns = 0;
};

/** Lower a declarative point to a runnable job. */
SweepJob makeJob(const SweepPoint &p);

/**
 * Declarative campaign: the cross-product of kernels x coherence modes
 * x directory geometries x seeds x fault plans on one machine scale.
 * Axes left empty get a single default entry, so the minimal spec
 * {"kernels": ["heat"]} is one job.
 *
 * JSON schema (all fields optional unless noted):
 *
 *   {
 *     "machine":     {"clusters": 4, "paper": false, "scale": 1},
 *     "kernels":     ["heat", "dmm"],         // or ["all"]
 *     "modes":       ["cohesion", "hwcc", "swcc"],
 *     "backends":    ["msi-fullmap", "dir4b", "dls"],  // or ["all"]
 *     "seeds":       [12345, 99],
 *     "directories": [
 *        {"label": "opt"},                    // infinite full-map
 *        {"label": "8k-fa", "entries": 8192},
 *        {"label": "16k-128w-dir4b", "entries": 16384, "assoc": 128,
 *         "sharers": "dir4b"}
 *     ],
 *     "faults":      [
 *        {"label": "none"},
 *        {"label": "drop2", "plan": { ...sim/fault.hh schema... }}
 *     ],
 *     "options":     {"skip_verify": false, "audit": true,
 *                     "occupancy": false, "table_cache": 0}
 *   }
 */
struct SweepSpec
{
    struct DirAxis
    {
        std::string label = "opt";
        coherence::DirectoryConfig dir =
            coherence::DirectoryConfig::optimistic();
    };

    struct FaultAxis
    {
        std::string label = "none";
        FaultPlan plan;
    };

    unsigned clusters = 4;
    bool paper = false;
    unsigned scale = 1;
    std::uint32_t tableCacheEntries = 0;

    std::vector<std::string> kernels;
    std::vector<arch::CoherenceMode> modes;
    std::vector<DirAxis> dirs;
    /**
     * Coherence-backend axis (registered names; see
     * coherence::backendNames()). Empty keeps the legacy default
     * backend and — for label/journal stability — omits the backend
     * token from job labels entirely.
     */
    std::vector<std::string> backends;
    std::vector<std::uint64_t> seeds;
    std::vector<FaultAxis> faults;

    bool sampleOccupancy = false;
    bool skipVerify = false;
    bool audit = true;
    /** options.warmup: warm-up runs per job (see SweepPoint). */
    unsigned warmupRuns = 0;

    /** Parse the JSON schema above. Returns false and sets @p err on
     *  malformed input. */
    static bool parse(std::string_view json_text, SweepSpec *out,
                      std::string *err);

    /** Expand the cross-product into fully-specified points, in the
     *  deterministic order kernel > mode > directory > backend > seed
     *  > fault. */
    std::vector<SweepPoint> expand() const;
};

} // namespace sim

#endif // COHESION_HARNESS_SWEEP_HH
