/**
 * @file
 * The ledger's own checks: metric names are well-formed and match
 * BENCHMARK.json and ledger.json, a failing job is counted rather than
 * thrown, tracing leaves simulated results unchanged, and sweep-short
 * is independent of its worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>

#include "kernels/registry.hh"
#include "ledger.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace {

using namespace perfbench;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

std::set<std::string>
namesOf(const std::vector<Metric> &metrics)
{
    std::set<std::string> out;
    for (const Metric &m : metrics)
        out.insert(m.name);
    return out;
}

/** Names listed under @p key in @p file (relative to this directory). */
std::set<std::string>
declared(const char *file, const char *key)
{
    sim::JsonValue doc;
    EXPECT_TRUE(sim::parseJson(
        readFile(std::string(PERFBENCH_DIR) + "/" + file), &doc))
        << file;
    std::set<std::string> out;
    if (const sim::JsonValue *list = doc.find(key)) {
        for (const sim::JsonValue &m : list->arr)
            out.insert(m.find("name")->str);
    }
    return out;
}

/** A workload of the named jobs of a ledger workload. */
Workload
subset(const std::string &name, std::set<std::string> labels)
{
    Workload w = makeWorkload(name, 12345);
    std::erase_if(w.jobs, [&labels](const JobSpec &j) {
        return !labels.count(j.label);
    });
    EXPECT_EQ(w.jobs.size(), labels.size());
    return w;
}

/** One small heat job on a two-cluster machine. */
Workload
smallHeat(kernels::KernelFactory factory)
{
    Workload w;
    w.name = "small";
    JobSpec j;
    j.label = "heat";
    j.cfg = arch::MachineConfig::scaled(2);
    j.factory = factory;
    w.jobs.push_back(j);
    return w;
}

/** Heat that computes correctly but always fails its verification. */
class WrongAnswer : public kernels::Kernel
{
  public:
    explicit WrongAnswer(const kernels::Params &p)
        : Kernel(p), _heat(kernels::makeHeat(p))
    {}

    const char *name() const override { return "heat"; }
    void setup(runtime::CohesionRuntime &rt) override { _heat->setup(rt); }
    sim::CoTask
    worker(runtime::Ctx ctx) override
    {
        return _heat->worker(ctx);
    }
    void
    verify(runtime::CohesionRuntime &) override
    {
        fatal("heat: result deliberately rejected");
    }

  private:
    std::unique_ptr<kernels::Kernel> _heat;
};

std::unique_ptr<kernels::Kernel>
makeWrongAnswer(const kernels::Params &p)
{
    return std::make_unique<WrongAnswer>(p);
}

TEST(Ledger, MetricNamesAreWellFormedAndDeclared)
{
    PassResult p;
    p.wallSec = 1;
    const std::regex name_re("[A-Za-z0-9_.-]+");
    std::vector<Metric> e2e = endToEndMetrics({p}, 1);
    std::vector<Metric> layer = perLayerMetrics(p, p, runMicro(1));
    for (const auto *list : {&e2e, &layer}) {
        for (const Metric &m : *list) {
            EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
            EXPECT_FALSE(m.unit.empty()) << m.name;
        }
    }
    for (const char *file : {"../BENCHMARK.json", "ledger.json"}) {
        EXPECT_EQ(namesOf(e2e), declared(file, "end_to_end")) << file;
        EXPECT_EQ(namesOf(layer), declared(file, "per_layer")) << file;
    }
    EXPECT_EQ(namesOf(e2e).size(), e2e.size());
    EXPECT_EQ(namesOf(layer).size(), layer.size());
}

TEST(Ledger, CorruptFingerprintCountsAsFailedJob)
{
    Workload w = smallHeat(kernels::kernelFactory("heat"));
    PassResult good = runPass(w, false, nullptr);
    ASSERT_EQ(good.failed(), 0u);

    FingerprintBook book;
    book.set(w.name, w.jobs[0].params.seed, "heat", good.jobs[0].fp.str());
    EXPECT_EQ(runPass(w, false, &book).failed(), 0u);

    Fingerprint corrupt = good.jobs[0].fp;
    corrupt.statDigest ^= 1;
    book.set(w.name, w.jobs[0].params.seed, "heat", corrupt.str());
    PassResult bad;
    ASSERT_NO_THROW(bad = runPass(w, false, &book));
    EXPECT_EQ(bad.failed(), 1u);
    EXPECT_TRUE(bad.jobs[0].fingerprintMismatch);
    EXPECT_EQ(bad.jobs[0].outcome, sim::JobOutcome::Ok);
}

TEST(Ledger, FailedVerificationCountsAsFailedJob)
{
    PassResult p;
    ASSERT_NO_THROW(p = runPass(smallHeat(makeWrongAnswer), false, nullptr));
    EXPECT_EQ(p.failed(), 1u);
    EXPECT_EQ(p.jobs[0].outcome, sim::JobOutcome::Verify);
    EXPECT_NE(p.jobs[0].what.find("deliberately"), std::string::npos);
}

TEST(Ledger, FingerprintBookRoundTrips)
{
    FingerprintBook book;
    book.set("w", 99, "a/b", "cycles=1;stats=ff");
    FingerprintBook back;
    std::string err;
    ASSERT_TRUE(back.parse(book.dump(), &err)) << err;
    EXPECT_EQ(back.find("w", 99, "a/b"), "cycles=1;stats=ff");
    EXPECT_FALSE(back.find("w", 12345, "a/b"));
    EXPECT_FALSE(back.parse("{\"w\": 3}", &err));
}

TEST(Ledger, RecordedFingerprintsCoverEverySeedAndJob)
{
    FingerprintBook book;
    std::string err;
    ASSERT_TRUE(book.parse(
        readFile(std::string(PERFBENCH_DIR) + "/fingerprints.json"), &err))
        << err;
    for (const std::string &name : workloadNames()) {
        const std::vector<std::uint64_t> seeds = book.seeds(name);
        for (std::uint64_t must : {12345u, 99u})
            EXPECT_NE(std::find(seeds.begin(), seeds.end(), must), seeds.end())
                << name << ' ' << must;
        for (std::uint64_t seed : seeds) {
            for (const JobSpec &j : makeWorkload(name, seed).jobs)
                EXPECT_TRUE(book.find(name, seed, j.label))
                    << name << ' ' << seed << ' ' << j.label;
        }
    }
}

TEST(Ledger, InputSeedIsARecordedSeed)
{
    const std::vector<std::uint64_t> recorded{99, 12345, 777};
    std::set<std::uint64_t> picked;
    for (std::uint64_t run = 0; run < 64; ++run) {
        const std::uint64_t s = inputSeed(run, recorded);
        EXPECT_NE(std::find(recorded.begin(), recorded.end(), s),
                  recorded.end());
        EXPECT_EQ(s, inputSeed(run, recorded));
        picked.insert(s);
    }
    EXPECT_EQ(picked.size(), recorded.size());
    EXPECT_EQ(inputSeed(777, recorded), 777u);
    EXPECT_EQ(inputSeed(1427878097, {}), 1427878097u);
}

TEST(Ledger, TracingLeavesSimulationUnchanged)
{
    for (Workload w : {subset("paper-hybrid", {"gjk"}),
                       subset("paper-hwcc-dirpressure", {"kmeans"})}) {
        PassResult plain = runPass(w, false, nullptr);
        PassResult traced = runPass(w, true, nullptr);
        ASSERT_EQ(plain.failed(), 0u);
        ASSERT_EQ(traced.failed(), 0u);
        for (std::size_t i = 0; i < w.jobs.size(); ++i) {
            EXPECT_EQ(plain.jobs[i].fp, traced.jobs[i].fp) << w.name;
            const JobRecord &j = traced.jobs[i];
            // The exact profiler phases fit inside the Session::run span
            // (the rest is arch.loop_unattributed_s).
            EXPECT_LE(j.profile.attributedNs() * 1e-9, j.runSec() + 1e-3);
            EXPECT_GT(j.profile[sim::HostProfiler::Phase::EqDispatch].count,
                      0u);
        }
        // pass, then job/construct/run/fingerprint/teardown per job.
        ASSERT_EQ(traced.spans.size(), 1 + 5 * w.jobs.size());
        std::vector<double> self = selfTimes(traced.spans);
        for (std::size_t i = 0; i < self.size(); ++i)
            EXPECT_GE(self[i], -1e-6) << traced.spans[i].name;
        EXPECT_EQ(traced.spans[2].name, "harness.construct");
        EXPECT_DOUBLE_EQ(self[2], traced.jobs[0].constructSec());
    }
}

TEST(Ledger, SweepShortIsWorkerCountInvariant)
{
    Workload two = makeWorkload("sweep-short", 12345);
    ASSERT_EQ(two.workers, 2u);
    Workload one = two;
    one.workers = 1;
    PassResult a = runPass(one, false, nullptr);
    PassResult b = runPass(two, false, nullptr);
    ASSERT_EQ(a.failed(), 0u);
    ASSERT_EQ(b.failed(), 0u);
    ASSERT_EQ(a.jobs.size(), 24u);
    for (std::size_t i = 0; i < a.jobs.size(); ++i)
        EXPECT_EQ(a.jobs[i].fp, b.jobs[i].fp) << a.jobs[i].label;
}

} // namespace
