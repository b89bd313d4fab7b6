/** @file
 * Latency-accounting tests: the stage-sum invariant ("every accounted
 * cycle lands in exactly one stage, and the stages sum exactly to the
 * end-to-end latency") must hold for every coherence backend, with
 * and without fabric faults, and the accounting must be a pure
 * observer — simulated results byte-identical with it on or off.
 *
 * The violations counter is the honesty mechanism: there is no
 * "other" bucket for mis-attributed cycles to hide in, so any seam
 * that forgets to mark after a co_await shows up here as a nonzero
 * count, not as a silently wrong waterfall.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "arch/machine_config.hh"
#include "arch/msg.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "kernels/registry.hh"
#include "sim/latency_accounting.hh"

namespace {

harness::RunResult
runWithLatency(const std::string &kernel, const std::string &backend,
               const sim::FaultPlan *faults = nullptr)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.backend = backend;
    if (faults)
        cfg.faults = *faults;
    kernels::Params params;
    params.scale = 1;
    harness::RunOptions opts;
    opts.latency = true;
    return harness::runKernel(cfg, kernels::kernelFactory(kernel),
                              params, opts);
}

/** Every bucket must tile exactly: e2e == sum of its stage cycles. */
void
expectBucketsTile(const sim::LatencyTotals &t, const std::string &what)
{
    EXPECT_EQ(t.violations, 0u) << what;
    auto check = [&](const sim::LatencyTotals::Bucket &b,
                     const std::string &name) {
        std::uint64_t sum = 0;
        for (unsigned s = 0; s < sim::lat::numStages; ++s)
            sum += b.stage[s];
        EXPECT_EQ(sum, b.e2e) << what << " " << name;
    };
    for (unsigned m = 0; m < sim::lat::numModes; ++m) {
        check(t.mode[m],
              sim::lat::modeName(static_cast<sim::lat::Mode>(m)));
    }
    for (unsigned c = 0; c < t.cls.size(); ++c)
        check(t.cls[c], std::string("class ") + std::to_string(c));
}

/** Stat CSV with the latency-accounting keys stripped, for comparing
 *  a latency-on run against a latency-off run. (latency.req.* /
 *  latency.resp / latency.probe are pre-existing protocol histograms
 *  and stay in.) */
std::string
csvWithoutBlame(const arch::MachineConfig &cfg,
                const harness::RunResult &r)
{
    std::ostringstream os;
    harness::printCsv(os, cfg, r);
    std::istringstream in(os.str());
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.rfind("latency.mode.", 0) == 0 ||
            line.rfind("latency.class.", 0) == 0 ||
            line.rfind("latency.violations", 0) == 0)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

TEST(LatencyAccounting, StageSumInvariantPerBackend)
{
    for (const char *backend : {"msi-fullmap", "dir4b", "dls"}) {
        for (const char *kernel : {"heat", "kmeans"}) {
            harness::RunResult r = runWithLatency(kernel, backend);
            ASSERT_GT(r.latency.completed(), 0u)
                << backend << "/" << kernel;
            expectBucketsTile(r.latency,
                              std::string(backend) + "/" + kernel);
        }
    }
}

TEST(LatencyAccounting, ClassAndModeCutsAgree)
{
    harness::RunResult r = runWithLatency("heat", "msi-fullmap");
    // The two cuts partition the same transactions: totals must match.
    std::uint64_t mode_count = 0, mode_e2e = 0;
    for (const auto &b : r.latency.mode) {
        mode_count += b.count;
        mode_e2e += b.e2e;
    }
    std::uint64_t cls_count = 0, cls_e2e = 0;
    for (const auto &b : r.latency.cls) {
        cls_count += b.count;
        cls_e2e += b.e2e;
    }
    EXPECT_EQ(mode_count, cls_count);
    EXPECT_EQ(mode_e2e, cls_e2e);
    ASSERT_EQ(r.latency.cls.size(), arch::numMsgClasses);
}

TEST(LatencyAccounting, FaultDropsLandInRetryStage)
{
    sim::FaultPlan plan;
    plan.site(sim::FaultSite::FabricC2BDrop).rate = 0.05;
    plan.site(sim::FaultSite::FabricB2CDrop).rate = 0.05;
    harness::RunResult r =
        runWithLatency("heat", "msi-fullmap", &plan);
    ASSERT_GT(r.faultsInjected, 0u) << "fault plan never fired";
    expectBucketsTile(r.latency, "heat under fabric drops");
    std::uint64_t retry = 0;
    for (const auto &b : r.latency.mode)
        retry += b.stage[static_cast<unsigned>(sim::lat::Stage::Retry)];
    EXPECT_GT(retry, 0u)
        << "drop/retransmit backoff must be blamed on the retry stage";
}

TEST(LatencyAccounting, ObserverOnlyOnOffByteIdentical)
{
    kernels::Params params;
    params.scale = 1;
    for (const char *backend : {"msi-fullmap", "dir4b", "dls"}) {
        arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
        cfg.backend = backend;

        harness::RunOptions off;
        harness::RunResult r_off = harness::runKernel(
            cfg, kernels::kernelFactory("kmeans"), params, off);

        harness::RunOptions on;
        on.latency = true;
        harness::RunResult r_on = harness::runKernel(
            cfg, kernels::kernelFactory("kmeans"), params, on);

        EXPECT_EQ(r_off.cycles, r_on.cycles) << backend;
        EXPECT_EQ(r_off.instructions, r_on.instructions) << backend;
        EXPECT_EQ(csvWithoutBlame(cfg, r_off), csvWithoutBlame(cfg, r_on))
            << backend;

        // Off: the accounting contributed nothing, and the blame keys
        // are absent from the export (golden fingerprints untouched).
        EXPECT_EQ(r_off.latency.completed(), 0u) << backend;
        std::ostringstream raw;
        harness::printCsv(raw, cfg, r_off);
        EXPECT_EQ(raw.str().find("latency.mode."), std::string::npos)
            << backend;
        EXPECT_GT(r_on.latency.completed(), 0u) << backend;
    }
}

TEST(LatencyAccounting, TopNReportRendersAndWarnsHonestly)
{
    harness::RunResult r = runWithLatency("heat", "msi-fullmap");
    std::ostringstream os;
    harness::printLatencyTopN(os, r, 5);
    EXPECT_NE(os.str().find("Latency blame"), std::string::npos);
    EXPECT_NE(os.str().find("per-mode waterfall"), std::string::npos);
    EXPECT_EQ(os.str().find("WARNING"), std::string::npos);

    harness::RunResult empty;
    std::ostringstream os2;
    harness::printLatencyTopN(os2, empty, 5);
    EXPECT_NE(os2.str().find("no completed transactions"),
              std::string::npos);
}

// Regression guard for the DLS write-through follow-up path: the
// follow-up WriteRequest synthesized when a write miss's fill
// completes inherits the *original* operation's anchor (opStart) and
// is blamed on the MSHR stage, so its end-to-end latency spans the
// whole read-fill + write-through chain but must stay bounded — a
// stale sendTick (the bug class this pins) would show up as an
// absurd max latency on the write class.
TEST(LatencyAccounting, DlsFollowUpWriteThroughLatencyBounded)
{
    harness::RunResult r = runWithLatency("kmeans", "dls");
    const auto &wr = r.reqLatency[static_cast<unsigned>(
        arch::MsgClass::WriteRequest)];
    ASSERT_GT(wr.count(), 0u);
    // Empirically ~1.4k cycles max at this scale; 16k leaves an order
    // of magnitude of headroom while still catching an un-rebased
    // sendTick (which would land near the full run length, >100k).
    EXPECT_LT(wr.max(), 16384u);
    EXPECT_LT(wr.max(), r.cycles);
    expectBucketsTile(r.latency, "dls write-through");
}

} // namespace
