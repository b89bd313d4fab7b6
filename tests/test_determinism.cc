/** @file
 * Golden determinism check: the simulator must be a pure function of
 * its configuration and seed. One kernel is run twice in the same
 * process and the runs must agree on the final tick, the number of
 * events fired, and a hash over the full flattened stat registry —
 * any hidden global state, iteration-order dependence (e.g. hashing
 * pointers), or queue-ordering instability shows up as a mismatch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "arch/flight_decode.hh"
#include "arch/machine_config.hh"
#include "kernels/registry.hh"
#include "runtime/ctx.hh"
#include "runtime/layout.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"
#include "sim/stat_registry.hh"
#include "sim/trace_json.hh"

namespace {

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

struct Fingerprint
{
    sim::Tick finalTick = 0;
    std::uint64_t eventsRun = 0;
    std::uint64_t statHash = 0;

    bool
    operator==(const Fingerprint &o) const
    {
        return finalTick == o.finalTick && eventsRun == o.eventsRun &&
               statHash == o.statHash;
    }
};

/** One complete kernel run, reduced to its deterministic fingerprint.
 *  @p progress installs a hook on the shortest interval, maximising
 *  the number of extra event-queue burst boundaries. @p traced turns
 *  on every observer of the record stream: narration of all kinds and
 *  of a watched line, and the trace-event renderer. */
Fingerprint
runOnce(const std::string &kernel_name, bool progress = false,
        bool traced = false)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    arch::Chip chip(cfg, runtime::Layout::tableBase);
    runtime::CohesionRuntime rt(chip);
    if (progress)
        chip.setProgressHook([](sim::Tick, std::uint64_t) {}, 0.0);
    sim::LogCapture narration;
    std::ostringstream json;
    sim::TraceJsonWriter writer(json);
    if (traced) {
        chip.setNarration(arch::parseTraceGroups("all"),
                          runtime::Layout::incHeapBase);
        chip.renderTo(&writer);
    }

    kernels::Params params;
    params.scale = 1;
    auto kernel = kernels::kernelFactory(kernel_name)(params);
    kernel->setup(rt);

    std::vector<sim::CoTask> workers;
    workers.reserve(chip.totalCores());
    for (unsigned c = 0; c < chip.totalCores(); ++c)
        workers.push_back(kernel->worker(runtime::Ctx(rt, chip.core(c))));
    for (auto &w : workers)
        w.start();

    Fingerprint fp;
    fp.finalTick = chip.runUntilQuiescent();
    for (auto &w : workers)
        w.rethrow();
    kernel->verify(rt);
    fp.eventsRun = chip.totalEventsRun();

    sim::StatRegistry reg;
    chip.registerStats(reg);
    std::ostringstream csv;
    reg.dumpCsv(csv);
    fp.statHash = fnv1a(csv.str());
    if (traced) {
        EXPECT_FALSE(narration.empty());
        EXPECT_GT(writer.events(), 0u);
        chip.renderTo(nullptr);
    }
    return fp;
}

TEST(Determinism, RepeatedRunIsBitIdentical)
{
    Fingerprint a = runOnce("heat");
    Fingerprint b = runOnce("heat");
    EXPECT_EQ(a.finalTick, b.finalTick);
    EXPECT_EQ(a.eventsRun, b.eventsRun);
    EXPECT_EQ(a.statHash, b.statHash);
    EXPECT_TRUE(a == b);
    // A trivially-empty run would make the equality vacuous.
    EXPECT_GT(a.finalTick, 0u);
    EXPECT_GT(a.eventsRun, 0u);
}

/** The host profiler, the progress hook and the record stream's
 *  observers are strictly observers: the golden fingerprint (which
 *  hashes the chip's stat registry — host.* never registers there)
 *  must not move when any of them is on. */
TEST(Determinism, ProfilerAndProgressDoNotPerturb)
{
    Fingerprint base = runOnce("heat");

    sim::HostProfiler::enable();
    Fingerprint profiled = runOnce("heat");
    // Progress chunking bounds dispatch bursts; run it together with
    // the profiler, the way --progress --host-profile runs do.
    Fingerprint both = runOnce("heat", /*progress=*/true);
    sim::HostProfiler::disable();
    Fingerprint progressed = runOnce("heat", /*progress=*/true);
    Fingerprint traced =
        runOnce("heat", /*progress=*/false, /*traced=*/true);

    EXPECT_TRUE(base == profiled);
    EXPECT_TRUE(base == progressed);
    EXPECT_TRUE(base == both);
    EXPECT_TRUE(base == traced);

    // And the profiler actually observed the profiled runs.
    sim::HostProfiler::Profile p = sim::HostProfiler::threadSnapshot();
    EXPECT_GT(p[sim::HostProfiler::Phase::EqDispatch].count, 0u);
}

} // namespace
