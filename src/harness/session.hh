/**
 * @file
 * A simulation session: one persistent machine (chip + runtime) that
 * can execute several kernel runs back to back, checkpoint its full
 * architectural state to a versioned snapshot between runs, and be
 * reconstructed from such a snapshot in a fresh process.
 *
 * Checkpoints are only taken at quiescent points — the event queue
 * drained, no bank transaction or cluster MSHR in flight, no coroutine
 * parked — because kernel workers are C++20 coroutines whose frames
 * cannot serialize. In practice that means "between kernel runs": the
 * session model is run(k1); checkpoint(); ... later, in any process:
 * restore(); run(k2); and the result of run(k2) is bit-identical to
 * having executed run(k1); run(k2) in one uninterrupted session.
 */

#ifndef COHESION_HARNESS_SESSION_HH
#define COHESION_HARNESS_SESSION_HH

#include <memory>
#include <string>

#include "arch/chip.hh"
#include "arch/machine_config.hh"
#include "harness/runner.hh"
#include "kernels/kernel.hh"
#include "runtime/runtime.hh"

namespace harness {

class Session
{
  public:
    /**
     * Build a fresh machine from @p cfg. @p workload_seed chains the
     * fault-injection stream (cfg.faults.seed left 0 derives it from
     * the workload seed, exactly as runKernel always has).
     */
    Session(const arch::MachineConfig &cfg, std::uint64_t workload_seed);
    ~Session();

    arch::Chip &chip() { return *_chip; }
    runtime::CohesionRuntime &runtime() { return *_rt; }

    /**
     * Execute @p kernel to completion on every core of the persistent
     * machine and harvest cumulative statistics (counters monotonically
     * accumulate across the session's runs, as they would on hardware).
     * Calls fatal() on deadlock or verification failure.
     */
    RunResult run(kernels::Kernel &kernel, const RunOptions &opts = {});

    /**
     * Serialize the machine into a framed CCKPT1 snapshot blob. Runs a
     * full coherence-audit pass first; throws sim::SnapshotError if the
     * machine is not quiescent and coherence::AuditError if the audit
     * fails.
     */
    std::string checkpoint();

    /** Write checkpoint()'s bytes, as they are, to @p path (throws
     *  sim::SnapshotError). */
    void checkpointTo(const std::string &path);

    /**
     * Restore machine state from a framed snapshot blob produced by
     * checkpoint() on an identically-configured session. Only legal
     * before the first run. Throws sim::SnapshotError on a corrupt,
     * truncated, wrong-version, or mismatched snapshot.
     */
    void restore(const std::string &framed);

    /** restore() from the snapshot file at @p path. */
    void restoreFrom(const std::string &path);

  private:
    /** The snapshot payload: the chip, then the runtime. */
    void snapshot(sim::Archive &ar);

    arch::MachineConfig _cfg;     ///< As given (registry/report view).
    arch::MachineConfig _cfgEff;  ///< With the chained fault seed.
    std::unique_ptr<arch::Chip> _chip;
    std::unique_ptr<runtime::CohesionRuntime> _rt;
};

} // namespace harness

#endif // COHESION_HARNESS_SESSION_HH
