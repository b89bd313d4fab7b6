/** @file
 * SweepEngine contract tests:
 *
 *  - results come back in submission order for any worker count;
 *  - per-job stat CSVs are byte-identical whether the family runs on
 *    1, 2 or 8 workers (full isolation: no hidden shared state);
 *  - a throwing job is classified and reported without poisoning its
 *    siblings;
 *  - log output is captured per job, never interleaved;
 *  - the declarative SweepSpec parses and expands deterministically.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "arch/machine_config.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "kernels/registry.hh"
#include "runtime/ctx.hh"
#include "runtime/layout.hh"
#include "sim/logging.hh"
#include "sim/stat_registry.hh"

namespace {

/** The small family used throughout: 2 kernels x 2 modes at scale 1. */
std::vector<sim::SweepPoint>
smallFamily()
{
    std::vector<sim::SweepPoint> points;
    for (const std::string k : {"heat", "gjk"}) {
        for (auto mode : {arch::CoherenceMode::Cohesion,
                          arch::CoherenceMode::HWccOnly}) {
            sim::SweepPoint p;
            p.kernel = k;
            p.cfg = arch::MachineConfig::scaled(2);
            p.cfg.mode = mode;
            p.params.scale = 1;
            p.label = sim::cat(k, ".", static_cast<int>(mode));
            points.push_back(p);
        }
    }
    return points;
}

std::vector<sim::SweepJob>
lower(const std::vector<sim::SweepPoint> &points)
{
    std::vector<sim::SweepJob> jobs;
    for (const auto &p : points)
        jobs.push_back(sim::makeJob(p));
    return jobs;
}

TEST(SweepEngine, ResultsArriveInSubmissionOrder)
{
    std::vector<sim::SweepPoint> points = smallFamily();
    for (unsigned workers : {1u, 2u, 8u}) {
        sim::SweepEngine engine(workers);
        std::vector<sim::JobResult> results = engine.run(lower(points));
        ASSERT_EQ(results.size(), points.size()) << workers << " workers";
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(results[i].label, points[i].label)
                << "submission order broken at " << i << " with "
                << workers << " workers";
            EXPECT_TRUE(results[i].ok())
                << results[i].what << '\n' << results[i].log;
        }
    }
}

TEST(SweepEngine, MetricsIdenticalForAnyWorkerCount)
{
    std::vector<sim::SweepPoint> points = smallFamily();
    sim::SweepEngine serial(1);
    std::vector<sim::JobResult> ref = serial.run(lower(points));
    for (unsigned workers : {2u, 8u}) {
        sim::SweepEngine engine(workers);
        std::vector<sim::JobResult> got = engine.run(lower(points));
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE(sim::cat(ref[i].label, " on ", workers,
                                  " workers"));
            ASSERT_TRUE(got[i].ok()) << got[i].what;
            EXPECT_EQ(got[i].run.cycles, ref[i].run.cycles);
            EXPECT_EQ(got[i].run.eventsRun, ref[i].run.eventsRun);
            EXPECT_EQ(got[i].run.instructions, ref[i].run.instructions);
            EXPECT_EQ(got[i].run.msgs.total(), ref[i].run.msgs.total());
        }
    }
}

/** One full machine run that dumps its flattened stat registry as CSV
 *  into the caller's slot — the strongest isolation probe we have: any
 *  cross-job interference perturbs some counter somewhere. */
sim::SweepJob
csvJob(const std::string &kernel, arch::CoherenceMode mode,
       std::string *slot)
{
    sim::SweepJob job;
    job.label = kernel;
    job.body = [kernel, mode, slot]() {
        arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
        cfg.mode = mode;
        arch::Chip chip(cfg, runtime::Layout::tableBase);
        runtime::CohesionRuntime rt(chip);
        kernels::Params params;
        params.scale = 1;
        auto kernel_obj = kernels::kernelFactory(kernel)(params);
        kernel_obj->setup(rt);
        std::vector<sim::CoTask> workers;
        for (unsigned c = 0; c < chip.totalCores(); ++c)
            workers.push_back(
                kernel_obj->worker(runtime::Ctx(rt, chip.core(c))));
        for (auto &w : workers)
            w.start();
        harness::RunResult r;
        r.cycles = chip.runUntilQuiescent();
        for (auto &w : workers)
            w.rethrow();
        kernel_obj->verify(rt);

        sim::StatRegistry reg;
        chip.registerStats(reg);
        std::ostringstream csv;
        reg.dumpCsv(csv);
        *slot = csv.str(); // each job writes only its own slot
        return r;
    };
    return job;
}

TEST(SweepEngine, StatCsvsByteIdenticalAcrossWorkerCounts)
{
    struct Cell
    {
        const char *kernel;
        arch::CoherenceMode mode;
    };
    const Cell cells[] = {
        {"heat", arch::CoherenceMode::Cohesion},
        {"gjk", arch::CoherenceMode::HWccOnly},
        {"heat", arch::CoherenceMode::SWccOnly},
        {"gjk", arch::CoherenceMode::Cohesion},
    };
    const std::size_t n = std::size(cells);

    std::vector<std::string> ref(n);
    {
        std::vector<sim::SweepJob> jobs;
        for (std::size_t i = 0; i < n; ++i)
            jobs.push_back(csvJob(cells[i].kernel, cells[i].mode, &ref[i]));
        for (const sim::JobResult &r : sim::SweepEngine(1).run(jobs))
            ASSERT_TRUE(r.ok()) << r.label << ": " << r.what;
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_FALSE(ref[i].empty()) << "serial CSV " << i << " is empty";

    for (unsigned workers : {2u, 8u}) {
        std::vector<std::string> got(n);
        std::vector<sim::SweepJob> jobs;
        for (std::size_t i = 0; i < n; ++i)
            jobs.push_back(csvJob(cells[i].kernel, cells[i].mode, &got[i]));
        for (const sim::JobResult &r : sim::SweepEngine(workers).run(jobs))
            ASSERT_TRUE(r.ok()) << r.label << ": " << r.what;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(got[i], ref[i])
                << "stat CSV " << i << " (" << cells[i].kernel
                << ") differs between 1 and " << workers << " workers";
        }
    }
}

TEST(SweepEngine, ThrowingJobDoesNotPoisonSiblings)
{
    std::vector<sim::SweepPoint> points = smallFamily();
    std::vector<sim::SweepJob> jobs = lower(points);

    sim::SweepJob bad;
    bad.label = "boom";
    bad.body = []() -> harness::RunResult {
        throw std::runtime_error("intentional test failure");
    };
    jobs.insert(jobs.begin() + 1, bad);

    sim::SweepEngine engine(2);
    std::vector<sim::JobResult> results = engine.run(jobs);
    ASSERT_EQ(results.size(), points.size() + 1);

    EXPECT_EQ(results[1].outcome, sim::JobOutcome::Verify);
    EXPECT_NE(results[1].what.find("intentional test failure"),
              std::string::npos);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 1)
            continue;
        EXPECT_TRUE(results[i].ok())
            << results[i].label << ": " << results[i].what;
        EXPECT_GT(results[i].run.cycles, 0u);
    }
}

TEST(SweepEngine, OutcomeClassification)
{
    auto outcomeOf = [](std::function<harness::RunResult()> body) {
        sim::SweepJob job;
        job.label = "classify";
        job.body = std::move(body);
        return sim::SweepEngine::runOne(job).outcome;
    };
    EXPECT_EQ(outcomeOf([]() -> harness::RunResult {
                  throw std::logic_error("p");
              }),
              sim::JobOutcome::Panic);
    EXPECT_EQ(outcomeOf([]() -> harness::RunResult {
                  throw std::runtime_error("v");
              }),
              sim::JobOutcome::Verify);
    EXPECT_EQ(outcomeOf([]() -> harness::RunResult { throw 42; }),
              sim::JobOutcome::Unknown);
    EXPECT_STREQ(sim::jobOutcomeName(sim::JobOutcome::Audit),
                 "audit-error");
}

TEST(SweepEngine, LogsAreCapturedPerJob)
{
    std::vector<sim::SweepJob> jobs;
    for (int i = 0; i < 4; ++i) {
        sim::SweepJob job;
        job.label = sim::cat("chatty-", i);
        job.body = [i]() {
            for (int n = 0; n < 8; ++n)
                warn("marker-", i, " line ", n);
            return harness::RunResult{};
        };
        jobs.push_back(std::move(job));
    }
    sim::SweepEngine engine(2);
    std::vector<sim::JobResult> results = engine.run(jobs);
    ASSERT_EQ(results.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        const std::string own = sim::cat("marker-", i);
        EXPECT_NE(results[i].log.find(own), std::string::npos)
            << "job " << i << " lost its own log";
        for (int other = 0; other < 4; ++other) {
            if (other == i)
                continue;
            EXPECT_EQ(results[i].log.find(sim::cat("marker-", other)),
                      std::string::npos)
                << "job " << i << " captured job " << other
                << "'s output";
        }
    }
}

TEST(LogCapture, NestsAndRestores)
{
    sim::LogCapture outer;
    warn("to-outer");
    {
        sim::LogCapture inner;
        warn("to-inner");
        EXPECT_NE(inner.text().find("to-inner"), std::string::npos);
        EXPECT_EQ(inner.text().find("to-outer"), std::string::npos);
    }
    warn("to-outer-again");
    EXPECT_NE(outer.text().find("to-outer"), std::string::npos);
    EXPECT_NE(outer.text().find("to-outer-again"), std::string::npos);
    EXPECT_EQ(outer.text().find("to-inner"), std::string::npos);
}

TEST(SweepSpec, ParsesAndExpandsCrossProduct)
{
    const char *text = R"({
        "machine": {"clusters": 2, "scale": 1},
        "kernels": ["heat", "dmm"],
        "modes": ["cohesion", "hwcc"],
        "seeds": [12345, 99],
        "directories": [
            {"label": "opt"},
            {"label": "1k-fa", "entries": 1024}
        ],
        "faults": [
            {"label": "none"},
            {"label": "drop2",
             "plan": {"sites": {"fabric.c2b.drop": {"rate": 0.02}}}}
        ],
        "options": {"audit": true}
    })";
    sim::SweepSpec spec;
    std::string err;
    ASSERT_TRUE(sim::SweepSpec::parse(text, &spec, &err)) << err;
    std::vector<sim::SweepPoint> points = spec.expand();
    // 2 kernels x 2 modes x 2 dirs x 2 seeds x 2 faults.
    ASSERT_EQ(points.size(), 32u);
    // Deterministic expansion order: kernel > mode > dir > seed > fault.
    EXPECT_EQ(points[0].label, "heat.cohesion.opt.s12345.none");
    EXPECT_EQ(points[1].label, "heat.cohesion.opt.s12345.drop2");
    EXPECT_EQ(points[2].label, "heat.cohesion.opt.s99.none");
    EXPECT_EQ(points.back().label, "dmm.hwcc.1k-fa.s99.drop2");
    EXPECT_EQ(points[0].cfg.numClusters, 2u);
    EXPECT_EQ(points[0].params.seed, 12345u);
    // The fault axis reaches the machine config.
    EXPECT_GT(points[1].cfg.faults
                  .site(sim::FaultSite::FabricC2BDrop).rate, 0.0);
}

/** Compose the deterministic results doc for a set of finished jobs,
 *  the way cohesion-sweep does in journal mode. */
std::string
resultsDocFor(const std::vector<std::string> &objs)
{
    std::ostringstream os;
    harness::writeResultsDoc(os, objs);
    return os.str();
}

/** The crash-resume contract, in process: run a campaign to
 *  completion for the reference document; run it again with a
 *  cooperative stop after two jobs (journaling as cohesion-sweep
 *  does); then resume from the journal, running only the missing jobs,
 *  and demand the stitched document equals the reference byte for
 *  byte. */
TEST(SweepResume, KillAndResumeProducesByteIdenticalResults)
{
    const std::string journal_path = "sweep_resume_test.journal";
    std::remove(journal_path.c_str());
    std::vector<sim::SweepPoint> points = smallFamily();

    // Reference: the uninterrupted campaign.
    std::string want;
    {
        std::vector<sim::JobResult> results =
            sim::SweepEngine(1).run(lower(points));
        std::vector<std::string> objs;
        for (const sim::JobResult &r : results) {
            ASSERT_TRUE(r.ok()) << r.label << ": " << r.what;
            objs.push_back(harness::jobObjectJson(r));
        }
        want = resultsDocFor(objs);
    }

    // Interrupted campaign: stop cooperatively after two jobs.
    {
        harness::ResultsJournal journal;
        std::string err;
        ASSERT_TRUE(journal.open(journal_path, &err)) << err;
        std::atomic<bool> stop{false};
        std::size_t done = 0;
        sim::SweepProgress sp;
        sp.stop = &stop;
        sp.onJobDone = [&](std::size_t, const sim::JobResult &r) {
            journal.append(r.label, harness::jobObjectJson(r));
            if (++done == 2)
                stop.store(true);
        };
        std::vector<sim::JobResult> results =
            sim::SweepEngine(1).run(lower(points), sp);
        ASSERT_EQ(results.size(), points.size());
        EXPECT_EQ(results[0].outcome, sim::JobOutcome::Ok);
        EXPECT_EQ(results[1].outcome, sim::JobOutcome::Ok);
        EXPECT_EQ(results[2].outcome, sim::JobOutcome::Skipped);
        EXPECT_EQ(results[3].outcome, sim::JobOutcome::Skipped);
    }

    // Resume: load the journal, run only what is missing, stitch.
    {
        std::map<std::string, std::string> journaled;
        std::string err;
        ASSERT_TRUE(harness::ResultsJournal::load(journal_path,
                                                  &journaled, &err))
            << err;
        ASSERT_EQ(journaled.size(), 2u);

        std::vector<sim::SweepJob> pending;
        std::vector<std::size_t> pending_idx;
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (journaled.count(points[i].label))
                continue;
            pending.push_back(sim::makeJob(points[i]));
            pending_idx.push_back(i);
        }
        ASSERT_EQ(pending.size(), 2u);
        std::vector<sim::JobResult> fresh =
            sim::SweepEngine(1).run(pending);

        std::vector<std::string> objs(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            auto it = journaled.find(points[i].label);
            if (it != journaled.end())
                objs[i] = it->second;
        }
        for (std::size_t j = 0; j < fresh.size(); ++j) {
            ASSERT_TRUE(fresh[j].ok()) << fresh[j].what;
            objs[pending_idx[j]] = harness::jobObjectJson(fresh[j]);
        }
        EXPECT_EQ(resultsDocFor(objs), want)
            << "resumed results document diverged from the "
               "uninterrupted reference";
    }
    std::remove(journal_path.c_str());
}

/** A crash mid-append leaves a torn trailing line; the loader must
 *  keep every intact entry (verbatim bytes) and drop only the torn
 *  one. */
TEST(SweepResume, JournalLoadToleratesTornTrailingLine)
{
    const std::string path = "sweep_journal_torn_test.journal";
    std::remove(path.c_str());

    const std::string obj = R"({"label": "a", "cycles": 42})";
    {
        harness::ResultsJournal journal;
        std::string err;
        ASSERT_TRUE(journal.open(path, &err)) << err;
        journal.append("a", obj);
    }
    {
        // Simulate the crash: a half-written line with no newline.
        std::ofstream app(path, std::ios::app | std::ios::binary);
        app << R"({"label": "b", "job": {"cyc)";
    }

    std::map<std::string, std::string> journaled;
    std::string err;
    ASSERT_TRUE(harness::ResultsJournal::load(path, &journaled, &err))
        << err;
    EXPECT_EQ(journaled.size(), 1u);
    ASSERT_TRUE(journaled.count("a"));
    EXPECT_EQ(journaled["a"], obj) << "journaled bytes not verbatim";
    std::remove(path.c_str());
}

/** Warm-up snapshot reuse must be invisible in the results: the same
 *  point run twice in one process (second run hits the process-global
 *  warm-up cache and restores instead of re-simulating) yields
 *  identical measured metrics. */
TEST(SweepWarmup, SnapshotReuseIsBitIdentical)
{
    sim::SweepPoint p = smallFamily()[0];
    p.warmupRuns = 2;
    sim::JobResult cold = sim::SweepEngine::runOne(sim::makeJob(p));
    ASSERT_TRUE(cold.ok()) << cold.what << '\n' << cold.log;
    sim::JobResult warm = sim::SweepEngine::runOne(sim::makeJob(p));
    ASSERT_TRUE(warm.ok()) << warm.what << '\n' << warm.log;
    EXPECT_EQ(cold.run.cycles, warm.run.cycles);
    EXPECT_EQ(cold.run.eventsRun, warm.run.eventsRun);
    EXPECT_EQ(cold.run.instructions, warm.run.instructions);
    EXPECT_EQ(cold.run.msgs.total(), warm.run.msgs.total());
    EXPECT_EQ(harness::jobObjectJson(cold), harness::jobObjectJson(warm));
}

TEST(SweepSpec, RejectsMalformedInput)
{
    sim::SweepSpec spec;
    std::string err;
    EXPECT_FALSE(sim::SweepSpec::parse("{", &spec, &err));
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_FALSE(sim::SweepSpec::parse(
        R"({"kernels": ["no-such-kernel"]})", &spec, &err));
    EXPECT_NE(err.find("no-such-kernel"), std::string::npos);

    err.clear();
    EXPECT_FALSE(sim::SweepSpec::parse(
        R"({"modes": ["mostly-coherent"]})", &spec, &err));
    EXPECT_FALSE(err.empty());
}

} // namespace
