/** @file
 * Host-side self-profiler unit tests: the disabled path is a no-op,
 * scopes nest inclusively, sampled phases scale their estimate by the
 * stride, per-thread accumulators merge across SweepEngine workers,
 * the --host-profile JSON report is well-formed, and the live
 * progress streams (run heartbeats, sweep heartbeats) emit parseable,
 * monotone JSON lines.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/hostprof.hh"
#include "harness/progress.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "sim/host_profiler.hh"
#include "sim/json.hh"

namespace {

using sim::HostProfiler;
using Phase = sim::HostProfiler::Phase;

/** Spin for a short, definitely-measurable amount of host time. */
void
burn()
{
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::microseconds(200);
    while (std::chrono::steady_clock::now() < until) {
    }
}

/** RAII: leave the process-wide profiler off whatever happens. */
struct ProfilerGuard
{
    explicit ProfilerGuard(unsigned shift)
    {
        HostProfiler::enable(shift);
        HostProfiler::reset();
    }
    ~ProfilerGuard() { HostProfiler::disable(); }
};

TEST(HostProfiler, DisabledScopesAreNoOps)
{
    HostProfiler::disable();
    HostProfiler::reset();
    {
        HostProfiler::Scope a(Phase::EqDispatch);
        HostProfiler::Scope b(Phase::BankMsg);
        burn();
    }
    HostProfiler::Profile p = HostProfiler::threadSnapshot();
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.attributedNs(), 0u);
    EXPECT_EQ(HostProfiler::resumePhase(), Phase::None);
}

TEST(HostProfiler, NestedScopesAccrueInclusively)
{
    ProfilerGuard guard(/*shift=*/0); // time every sampled entry
    {
        HostProfiler::Scope outer(Phase::EqDispatch);
        {
            HostProfiler::Scope bank(Phase::BankMsg);
            EXPECT_EQ(HostProfiler::resumePhase(), Phase::BankMsg);
            {
                HostProfiler::Scope table(Phase::RegionTable);
                EXPECT_EQ(HostProfiler::resumePhase(),
                          Phase::RegionTable);
                burn();
            }
            // Inner close restores the enclosing sampled phase.
            EXPECT_EQ(HostProfiler::resumePhase(), Phase::BankMsg);
        }
    }
    HostProfiler::Profile p = HostProfiler::threadSnapshot();
    EXPECT_EQ(p[Phase::EqDispatch].count, 1u);
    EXPECT_EQ(p[Phase::BankMsg].count, 1u);
    EXPECT_EQ(p[Phase::RegionTable].count, 1u);
    // Inclusive: the burn() inside the region-table scope accrues to
    // every enclosing scope as well.
    EXPECT_GE(p.estNs(Phase::BankMsg), p.estNs(Phase::RegionTable));
    EXPECT_GE(p.estNs(Phase::EqDispatch), p.estNs(Phase::BankMsg));
    EXPECT_GT(p.estNs(Phase::RegionTable), 0u);
    // attributedNs sums exact phases only.
    EXPECT_EQ(p.attributedNs(), p.estNs(Phase::EqDispatch));
}

TEST(HostProfiler, SampledStrideScalesEstimate)
{
    ProfilerGuard guard(/*shift=*/2); // time 1 in 4
    for (int i = 0; i < 64; ++i) {
        HostProfiler::Scope s(Phase::ClusterMsg);
    }
    HostProfiler::Profile p = HostProfiler::threadSnapshot();
    EXPECT_EQ(p[Phase::ClusterMsg].count, 64u);
    EXPECT_EQ(p[Phase::ClusterMsg].timedCount, 16u);
    // estNs scales timedNs by count/timedCount (here 4x). The timed
    // entries are near-empty, so just check the scaling identity.
    EXPECT_EQ(p.estNs(Phase::ClusterMsg),
              p[Phase::ClusterMsg].timedNs * 4);
}

// Coroutine-continuation re-opens (Resume scopes) time the segment
// unconditionally but accrue nanoseconds only: the transaction was
// counted, and its timedCount taken, at its initial entry, so estNs
// scales whole-transaction samples.
TEST(HostProfiler, ResumeScopesAccrueTimeWithoutNewEntries)
{
    ProfilerGuard guard(/*shift=*/2); // time 1 in 4
    std::uint64_t initial_ns = 0;
    {
        // One timed initial entry (stride 1-in-4 times the first).
        HostProfiler::Scope s(Phase::BankMsg);
        EXPECT_EQ(HostProfiler::resumePhase(), Phase::BankMsg);
        burn();
        s.close();
        initial_ns =
            HostProfiler::threadSnapshot()[Phase::BankMsg].timedNs;
    }
    EXPECT_EQ(HostProfiler::resumePhase(), Phase::None);
    {
        // Its continuation: timed despite the stride, no new entry.
        HostProfiler::Scope s(Phase::BankMsg,
                              HostProfiler::Scope::Resume{});
        EXPECT_EQ(HostProfiler::resumePhase(), Phase::BankMsg);
        burn();
    }
    // A continuation of a count-only entry captures None; a None
    // resume scope must stay a no-op.
    {
        HostProfiler::Scope s(Phase::None, HostProfiler::Scope::Resume{});
    }
    HostProfiler::Profile p = HostProfiler::threadSnapshot();
    EXPECT_EQ(p[Phase::BankMsg].count, 1u);
    EXPECT_EQ(p[Phase::BankMsg].timedCount, 1u);
    EXPECT_GT(p[Phase::BankMsg].timedNs, initial_ns);
    EXPECT_EQ(p[Phase::None].count, 0u);
}

TEST(HostProfiler, SinceSubtractsAndSaturates)
{
    ProfilerGuard guard(/*shift=*/0);
    {
        HostProfiler::Scope s(Phase::Audit);
        burn();
    }
    HostProfiler::Profile before = HostProfiler::threadSnapshot();
    {
        HostProfiler::Scope s(Phase::Audit);
        burn();
    }
    HostProfiler::Profile delta =
        HostProfiler::threadSnapshot().since(before);
    EXPECT_EQ(delta[Phase::Audit].count, 1u);
    // Subtracting a later snapshot saturates at zero, not underflow.
    HostProfiler::Profile neg =
        before.since(HostProfiler::threadSnapshot());
    EXPECT_EQ(neg[Phase::Audit].count, 0u);
    EXPECT_EQ(neg[Phase::Audit].timedNs, 0u);
}

TEST(HostProfiler, MergesAcrossThreads)
{
    ProfilerGuard guard(/*shift=*/0);
    HostProfiler::Profile base = HostProfiler::processSnapshot();
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 5; ++i) {
                HostProfiler::Scope s(Phase::Directory);
                burn();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    // The registry keeps per-thread accumulators alive past thread
    // exit, so the snapshot sees all 15 scopes.
    HostProfiler::Profile p =
        HostProfiler::processSnapshot().since(base);
    EXPECT_EQ(p[Phase::Directory].count, 15u);
    EXPECT_GT(p.estNs(Phase::Directory), 0u);
}

TEST(HostProfiler, SweepJobsProfileIndependently)
{
    // Two profiled jobs through the real engine on 2 workers: each
    // job's RunResult carries its own thread-local profile slice.
    std::vector<sim::SweepJob> jobs;
    for (int i = 0; i < 2; ++i) {
        sim::SweepPoint pt;
        pt.label = "heat-" + std::to_string(i);
        pt.kernel = "heat";
        pt.cfg = arch::MachineConfig::scaled(2);
        pt.params.scale = 1;
        pt.hostProfile = true;
        jobs.push_back(sim::makeJob(pt));
    }
    sim::SweepEngine engine(2);
    std::vector<sim::JobResult> results = engine.run(jobs);
    ASSERT_EQ(results.size(), 2u);
    for (const sim::JobResult &r : results) {
        ASSERT_TRUE(r.ok()) << r.what;
        EXPECT_FALSE(r.run.hostProfile.empty());
        EXPECT_GT(r.run.hostProfile[Phase::EqDispatch].count, 0u);
        EXPECT_GT(r.run.hostWallSec, 0.0);
        // The attributed share of this job's wall time is the
        // tentpole's acceptance bar: >= 90%.
        double attributed =
            double(r.run.hostProfile.attributedNs()) / 1e9;
        EXPECT_GT(attributed / r.run.hostWallSec, 0.9);
    }
    HostProfiler::disable();
}

TEST(HostProfiler, JsonReportIsWellFormed)
{
    ProfilerGuard guard(/*shift=*/0);
    {
        HostProfiler::Scope setup(Phase::Setup);
        burn();
    }
    {
        HostProfiler::Scope disp(Phase::EqDispatch);
        HostProfiler::Scope bank(Phase::BankMsg);
        burn();
    }
    HostProfiler::Profile p = HostProfiler::threadSnapshot();

    std::ostringstream os;
    harness::writeHostProfileJson(os, p, /*wall_sec=*/0.5,
                                  /*events_run=*/1000);
    sim::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sim::parseJson(os.str(), &doc, &err)) << err;

    const sim::JsonValue *schema = doc.find("schema");
    ASSERT_TRUE(schema && schema->isString());
    EXPECT_EQ(schema->str, "cohesion-host-profile-v1");
    const sim::JsonValue *wall = doc.find("wall_sec");
    ASSERT_TRUE(wall && wall->isNumber());
    EXPECT_DOUBLE_EQ(wall->number, 0.5);
    const sim::JsonValue *phases = doc.find("phases");
    ASSERT_TRUE(phases && phases->isArray());
    EXPECT_GE(phases->arr.size(), 2u); // setup + eq.dispatch
    for (const sim::JsonValue &ph : phases->arr) {
        EXPECT_TRUE(ph.find("name") && ph.find("calls") &&
                    ph.find("sec") && ph.find("pct_of_wall"));
    }
    const sim::JsonValue *comps = doc.find("components");
    ASSERT_TRUE(comps && comps->isArray());
    ASSERT_EQ(comps->arr.size(), 1u); // bank.msg
    EXPECT_EQ(comps->arr[0].find("name")->str, "bank.msg");
}

TEST(HostProfiler, HostStatsStayUnderHostPrefix)
{
    ProfilerGuard guard(/*shift=*/0);
    {
        HostProfiler::Scope s(Phase::Verify);
        burn();
    }
    sim::StatRegistry reg;
    harness::addHostStats(reg, HostProfiler::threadSnapshot(), 0.25);
    std::ostringstream csv;
    reg.dumpCsv(csv);
    std::istringstream lines(csv.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#' || line == "stat,value")
            continue;
        EXPECT_EQ(line.rfind("host.", 0), 0u) << line;
        ++n;
    }
    EXPECT_GT(n, 0u);
}

TEST(Progress, RunHeartbeatJsonlIsParseableAndMonotone)
{
    std::ostringstream jsonl;
    harness::RunProgress prog("heat", &jsonl, /*human=*/false);
    prog.beat(100, 1000);
    prog.beat(250, 5000);
    prog.beat(400, 9000);

    std::istringstream lines(jsonl.str());
    std::string line;
    std::uint64_t prev_tick = 0, prev_events = 0;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        sim::JsonValue doc;
        std::string err;
        ASSERT_TRUE(sim::parseJson(line, &doc, &err))
            << err << ": " << line;
        EXPECT_EQ(doc.find("type")->str, "run");
        EXPECT_EQ(doc.find("label")->str, "heat");
        auto tick = std::uint64_t(doc.find("tick")->number);
        auto events = std::uint64_t(doc.find("events")->number);
        EXPECT_GE(tick, prev_tick);
        EXPECT_GE(events, prev_events);
        prev_tick = tick;
        prev_events = events;
        ++n;
    }
    EXPECT_EQ(n, 3u);
}

TEST(Progress, SweepHeartbeatJsonlIsParseable)
{
    std::ostringstream jsonl;
    harness::SweepBeat b;
    b.done = 3;
    b.failed = 1;
    b.running = 4;
    b.total = 24;
    b.events = 1000000;
    b.elapsedSec = 2.0;
    b.eventsPerSec = 500000;
    b.etaSec = 42;
    harness::writeSweepBeatJsonl(jsonl, b);
    b.done = 24;
    b.running = 0;
    b.etaSec = -1;
    b.final = true;
    harness::writeSweepBeatJsonl(jsonl, b);

    std::istringstream lines(jsonl.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    sim::JsonValue first;
    std::string err;
    ASSERT_TRUE(sim::parseJson(line, &first, &err)) << err;
    EXPECT_EQ(first.find("type")->str, "sweep");
    EXPECT_EQ(first.find("done")->number, 3);
    ASSERT_TRUE(first.find("eta_sec"));
    EXPECT_EQ(first.find("eta_sec")->number, 42);
    EXPECT_FALSE(first.find("final")->boolean);

    ASSERT_TRUE(std::getline(lines, line));
    sim::JsonValue last;
    ASSERT_TRUE(sim::parseJson(line, &last, &err)) << err;
    EXPECT_EQ(last.find("eta_sec"), nullptr); // not estimable: omitted
    EXPECT_TRUE(last.find("final")->boolean);
}

TEST(Progress, FormatRate)
{
    EXPECT_EQ(harness::formatRate(1430000), "1.43M");
    EXPECT_EQ(harness::formatRate(73), "73");
}

} // namespace
