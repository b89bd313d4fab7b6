/**
 * @file
 * Export helpers for the host-side self-profiler: registering the
 * `host.*` stat subtree and writing the standalone `--host-profile`
 * JSON report. Kept separate from report.cc because everything here
 * describes the *simulator*, not the simulated machine, and must stay
 * segregated from determinism-sensitive statistics.
 */

#ifndef COHESION_HARNESS_HOSTPROF_HH
#define COHESION_HARNESS_HOSTPROF_HH

#include <cstdint>
#include <iosfwd>

#include "sim/host_profiler.hh"
#include "sim/stat_registry.hh"

namespace harness {

/**
 * Register the `host.*` subtree for @p p: wall time, attributed time,
 * and per-phase seconds/calls/percent-of-run. Only the runner calls
 * this, and only when the profiler is on — Chip::registerStats never
 * emits host stats, which is what keeps determinism golden hashes
 * (computed over the chip registry) independent of profiling.
 */
void addHostStats(sim::StatRegistry &reg,
                  const sim::HostProfiler::Profile &p, double wall_sec);

/**
 * Write the standalone host-profile report: per-phase totals, call
 * counts, percent-of-run, and the sampled per-component ranking
 * (sorted by estimated host time).
 */
void writeHostProfileJson(std::ostream &os,
                          const sim::HostProfiler::Profile &p,
                          double wall_sec, std::uint64_t events_run);

} // namespace harness

#endif // COHESION_HARNESS_HOSTPROF_HH
