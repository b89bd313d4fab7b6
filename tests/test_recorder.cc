/** @file
 * Flight-recorder and line-profiler tests:
 *
 *  - ring wrap retains exactly the newest capacity records, and the
 *    binary dump round-trips through serialize()/deserialize();
 *  - a full Fig. 7b multi-writer merge reconstructs as one causal
 *    chain: every broadcast, probe, writeback-invalidate and merge
 *    step carries the triggering atomic's msgId, and the bank's
 *    TxnBegin binds its local sequence to that id;
 *  - recorder dumps are byte-identical whether a sweep family runs on
 *    1 or 8 workers;
 *  - --stats-json carries the per-line sharing-pattern classes, the
 *    top-N contended-lines table and per-region summaries (validated
 *    through the bundled JSON parser);
 *  - a forced deadlock's post-mortem dump includes the wedged lines'
 *    recorder histories;
 *  - the observers of the merged record stream: --trace and
 *    --watch-line narrate exactly the ring's records (also with the
 *    ring off), and --trace-json renders exactly what
 *    cohesion-trace --perfetto renders from the run's dump.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "arch/flight_decode.hh"
#include "harness/runner.hh"
#include "harness/session.hh"
#include "harness/sweep.hh"
#include "kernels/registry.hh"
#include "protocol_rig.hh"
#include "sim/flight_recorder.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/trace_json.hh"

namespace {

using arch::CoherenceMode;
using test::Rig;
using FR = sim::FlightRecorder;

sim::CoTask
storeWord(runtime::Ctx ctx, mem::Addr a, std::uint32_t v)
{
    co_await ctx.store32(a, v);
}

sim::CoTask
toSWcc(runtime::Ctx ctx, mem::Addr a, std::uint32_t bytes)
{
    co_await ctx.toSWcc(a, bytes);
}

sim::CoTask
toHWcc(runtime::Ctx ctx, mem::Addr a, std::uint32_t bytes)
{
    co_await ctx.toHWcc(a, bytes);
}

bool
is(const FR::Record &r, FR::Ev e)
{
    return r.kind == static_cast<std::uint8_t>(e);
}

bool
isStep(const FR::Record &r, FR::Step s)
{
    return is(r, FR::Ev::TransStep) &&
           r.a == static_cast<std::uint8_t>(s);
}

std::vector<FR::Record>
lineRecords(const Rig &rig, mem::Addr base)
{
    std::vector<FR::Record> out;
    rig.chip->recorder().forEach([&](const FR::Record &r) {
        if (r.line == base)
            out.push_back(r);
    });
    return out;
}

// ---------------------------------------------------------------------
// Ring mechanics
// ---------------------------------------------------------------------

TEST(FlightRecorder, RingWrapKeepsNewestRecords)
{
    FR fr;
    fr.enable(20); // rounds up to the next power of two
    EXPECT_EQ(fr.capacity(), 32u);

    for (std::uint64_t i = 0; i < 100; ++i)
        fr.record(i, FR::Ev::MsgSend, FR::compCluster(0), 0x40,
                  static_cast<std::uint32_t>(i), 0,
                  static_cast<std::uint32_t>(i));

    EXPECT_EQ(fr.recorded(), 100u);
    EXPECT_EQ(fr.size(), 32u);

    // forEach visits oldest-first: records 68..99 survive the wrap.
    std::vector<std::uint64_t> ticks;
    fr.forEach([&](const FR::Record &r) { ticks.push_back(r.tick); });
    ASSERT_EQ(ticks.size(), 32u);
    for (std::size_t i = 0; i < ticks.size(); ++i)
        EXPECT_EQ(ticks[i], 68 + i) << "at slot " << i;
}

TEST(FlightRecorder, CapacityFloorsAtSixteen)
{
    FR fr;
    fr.enable(1);
    EXPECT_EQ(fr.capacity(), 16u);
    EXPECT_TRUE(fr.enabled());
    fr.disable();
    EXPECT_FALSE(fr.enabled());
    EXPECT_EQ(fr.capacity(), 0u);
}

TEST(FlightRecorder, DumpRoundTripsAndRejectsGarbage)
{
    FR fr;
    fr.enable(16);
    for (std::uint64_t i = 0; i < 40; ++i)
        fr.record(i * 3, static_cast<FR::Ev>(1 + i % 5), FR::compBank(1),
                  static_cast<std::uint32_t>(0x40 * i),
                  static_cast<std::uint32_t>(i), static_cast<std::uint8_t>(i),
                  static_cast<std::uint32_t>(i * 7));

    std::string blob = fr.serialize();
    std::vector<FR::Record> out;
    std::string err;
    std::uint64_t total = 0;
    ASSERT_TRUE(FR::deserialize(blob, &out, &err, &total)) << err;
    EXPECT_EQ(total, 40u);
    ASSERT_EQ(out.size(), 16u);

    std::vector<FR::Record> live;
    fr.forEach([&](const FR::Record &r) { live.push_back(r); });
    ASSERT_EQ(live.size(), out.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(out[i].tick, live[i].tick);
        EXPECT_EQ(out[i].line, live[i].line);
        EXPECT_EQ(out[i].txn, live[i].txn);
        EXPECT_EQ(out[i].comp, live[i].comp);
        EXPECT_EQ(out[i].kind, live[i].kind);
        EXPECT_EQ(out[i].a, live[i].a);
        EXPECT_EQ(out[i].b, live[i].b);
    }

    EXPECT_FALSE(FR::deserialize("not a recorder dump", &out, &err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(FR::deserialize(
        std::string_view(blob).substr(0, blob.size() - 1), &out, &err));
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------
// Causal chain: Fig. 7b multi-writer merge
// ---------------------------------------------------------------------

TEST(CausalChain, Fig7bMultiWriterMergeSharesOneTxn)
{
    Rig rig(CoherenceMode::Cohesion);
    rig.chip->enableRecorder(1u << 12);
    mem::Addr a = rig.rt->malloc(64);

    // HWcc => SWcc, two clusters write disjoint words, SWcc => HWcc:
    // the merge transition (Fig. 7b case with two dirty holders) must
    // write back and invalidate both copies and merge both words.
    rig.run1(toSWcc(rig.ctx(0), a, mem::lineBytes));
    rig.run1(storeWord(rig.ctx(0), a, 0xAAAA));
    rig.run1(storeWord(rig.ctx(8), a + 4, 0xBBBB));
    ASSERT_NE(rig.l2Line(0, a), nullptr);
    ASSERT_NE(rig.l2Line(1, a), nullptr);
    rig.run1(toHWcc(rig.ctx(0), a, mem::lineBytes));

    std::vector<FR::Record> recs = lineRecords(rig, a);
    ASSERT_FALSE(recs.empty()) << "no recorder events for the line";

    // The full lifetime must read HWcc => SWcc => HWcc: a ->SWcc
    // transition completes strictly before the ->HWcc one begins.
    std::size_t begin_sw = recs.size(), end_sw = recs.size();
    std::size_t begin_hw = recs.size();
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (is(recs[i], FR::Ev::TransBegin) && recs[i].a == 1 &&
            begin_sw == recs.size())
            begin_sw = i;
        if (is(recs[i], FR::Ev::TransEnd) && recs[i].a == 1 &&
            end_sw == recs.size())
            end_sw = i;
        if (is(recs[i], FR::Ev::TransBegin) && recs[i].a == 0)
            begin_hw = i;
    }
    ASSERT_LT(begin_sw, recs.size()) << "->SWcc TransBegin missing";
    ASSERT_LT(end_sw, recs.size()) << "->SWcc TransEnd missing";
    ASSERT_LT(begin_hw, recs.size()) << "->HWcc TransBegin missing";
    EXPECT_LT(begin_sw, end_sw);
    EXPECT_LT(end_sw, begin_hw);

    // Every step of the merge carries the atomic's msgId as its causal
    // id, so the chain reconstructs without replaying the run.
    const std::uint32_t txn = recs[begin_hw].txn;
    EXPECT_NE(txn, 0u);
    std::vector<FR::Record> chain;
    for (std::size_t i = begin_hw; i < recs.size(); ++i)
        if (recs[i].txn == txn)
            chain.push_back(recs[i]);

    auto countIf = [&](auto &&pred) {
        return std::count_if(chain.begin(), chain.end(), pred);
    };
    auto firstIf = [&](auto &&pred) {
        return static_cast<std::size_t>(
            std::find_if(chain.begin(), chain.end(), pred) -
            chain.begin());
    };

    // One CleanQuery broadcast to both clusters (round 1)...
    std::size_t bcast = firstIf(
        [](const FR::Record &r) { return isStep(r, FR::Step::Broadcast); });
    ASSERT_LT(bcast, chain.size()) << "no Broadcast step in the chain";
    EXPECT_EQ(chain[bcast].b, 2u) << "broadcast should target 2 clusters";
    EXPECT_EQ(countIf([](const FR::Record &r) {
                  return is(r, FR::Ev::ProbeSend) &&
                         r.a == static_cast<std::uint8_t>(
                                    arch::ProbeType::CleanQuery);
              }),
              2);
    // ...both report dirty copies, so round 2 sends a writeback-
    // invalidate to each: 4 probes total, every one acked...
    EXPECT_EQ(countIf([](const FR::Record &r) {
                  return is(r, FR::Ev::ProbeSend) &&
                         r.a == static_cast<std::uint8_t>(
                                    arch::ProbeType::WritebackInvalidate);
              }),
              2);
    EXPECT_EQ(countIf([](const FR::Record &r) {
                  return is(r, FR::Ev::ProbeRecv) &&
                         (r.b & FR::probeDirty);
              }),
              4);
    EXPECT_EQ(countIf([](const FR::Record &r) {
                  return is(r, FR::Ev::ProbeAck);
              }),
              4);
    // ...both dirty copies are written back + invalidated and merged,
    // with no conflict (the writes were to disjoint words)...
    EXPECT_EQ(countIf([](const FR::Record &r) {
                  return isStep(r, FR::Step::WritebackInv);
              }),
              2);
    EXPECT_EQ(countIf([](const FR::Record &r) {
                  return isStep(r, FR::Step::Merge);
              }),
              2);
    EXPECT_EQ(countIf([](const FR::Record &r) {
                  return isStep(r, FR::Step::Conflict);
              }),
              0);
    // ...and the WritebackInv targets are exactly clusters {0, 1}.
    std::vector<std::uint32_t> targets;
    for (const FR::Record &r : chain)
        if (isStep(r, FR::Step::WritebackInv))
            targets.push_back(r.b);
    std::sort(targets.begin(), targets.end());
    EXPECT_EQ(targets, (std::vector<std::uint32_t>{0, 1}));

    // The transition commits: table bit back to HWcc, then TransEnd.
    std::size_t upd = firstIf([](const FR::Record &r) {
        return is(r, FR::Ev::TableUpdate) && r.a == 0;
    });
    std::size_t end_hw = firstIf(
        [](const FR::Record &r) { return is(r, FR::Ev::TransEnd); });
    ASSERT_LT(upd, chain.size()) << "no TableUpdate in the chain";
    ASSERT_LT(end_hw, chain.size()) << "no TransEnd in the chain";
    std::size_t first_wbinv = firstIf(
        [](const FR::Record &r) { return isStep(r, FR::Step::WritebackInv); });
    EXPECT_LT(bcast, first_wbinv);
    EXPECT_LT(upd, end_hw);

    // The home bank's TxnBegin binds its local transaction sequence to
    // the same msgId (recorded against the table word's line).
    bool bound = false;
    rig.chip->recorder().forEach([&](const FR::Record &r) {
        if (is(r, FR::Ev::TxnBegin) && r.b == txn)
            bound = true;
    });
    EXPECT_TRUE(bound) << "no TxnBegin binds bank seq to msgId " << txn;

    // The decoded narrative (what cohesion-trace --line prints) reads
    // as the full HWcc => SWcc => HWcc lifetime, in causal order.
    std::string narrative;
    for (const FR::Record &r : recs)
        narrative += arch::describeRecord(r) + '\n';
    std::size_t to_sw = narrative.find("HWcc=>SWcc (Fig. 7a)");
    std::size_t now_sw = narrative.find(" now SWcc", to_sw);
    std::size_t to_hw = narrative.find("SWcc=>HWcc (Fig. 7b)", now_sw);
    std::size_t merge = narrative.find("merge-dirty-words", to_hw);
    std::size_t now_hw = narrative.find(" now HWcc", merge);
    EXPECT_NE(to_sw, std::string::npos) << narrative;
    EXPECT_NE(now_sw, std::string::npos) << narrative;
    EXPECT_NE(to_hw, std::string::npos) << narrative;
    EXPECT_NE(merge, std::string::npos) << narrative;
    EXPECT_NE(now_hw, std::string::npos) << narrative;
}

// ---------------------------------------------------------------------
// Dump determinism and the harness surface
// ---------------------------------------------------------------------

sim::SweepJob
dumpJob(const std::string &kernel, std::uint64_t seed)
{
    sim::SweepJob job;
    job.label = sim::cat(kernel, ".s", seed);
    job.body = [kernel, seed]() {
        arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
        kernels::Params params;
        params.scale = 1;
        params.seed = seed;
        harness::RunOptions opts; // recorder on at the default capacity
        return harness::runKernel(cfg, kernels::kernelFactory(kernel),
                                  params, opts);
    };
    return job;
}

TEST(RecorderDump, ByteIdenticalAcrossWorkerCounts)
{
    struct Cell
    {
        const char *kernel;
        std::uint64_t seed;
    };
    const Cell cells[] = {
        {"heat", 1}, {"kmeans", 1}, {"heat", 2}, {"kmeans", 2}};

    auto jobs = [&]() {
        std::vector<sim::SweepJob> v;
        for (const Cell &c : cells)
            v.push_back(dumpJob(c.kernel, c.seed));
        return v;
    };

    std::vector<sim::JobResult> ref = sim::SweepEngine(1).run(jobs());
    ASSERT_EQ(ref.size(), std::size(cells));
    for (const sim::JobResult &r : ref) {
        ASSERT_TRUE(r.ok()) << r.label << ": " << r.what;
        ASSERT_FALSE(r.run.recorderDump.empty()) << r.label;
    }

    std::vector<sim::JobResult> got = sim::SweepEngine(8).run(jobs());
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_TRUE(got[i].ok()) << got[i].what;
        EXPECT_TRUE(got[i].run.recorderDump == ref[i].run.recorderDump)
            << ref[i].label
            << ": recorder dump differs between 1 and 8 workers";
        EXPECT_EQ(got[i].run.recorderRecorded, ref[i].run.recorderRecorded);
    }
}

TEST(RecorderDump, RunKernelProducesParseableDump)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    kernels::Params params;
    params.scale = 1;
    harness::RunResult r = harness::runKernel(
        cfg, kernels::kernelFactory("heat"), params, {});

    ASSERT_FALSE(r.recorderDump.empty());
    std::vector<FR::Record> out;
    std::string err;
    std::uint64_t total = 0;
    ASSERT_TRUE(FR::deserialize(r.recorderDump, &out, &err, &total)) << err;
    EXPECT_EQ(total, r.recorderRecorded);
    ASSERT_FALSE(out.empty());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_GT(out[i].kind, 0u);
        EXPECT_LT(out[i].kind,
                  static_cast<std::uint8_t>(FR::Ev::numEvents));
        if (i) {
            EXPECT_GE(out[i].tick, out[i - 1].tick)
                << "records not in tick order at " << i;
        }
    }

    // Disabling the recorder leaves no dump behind.
    harness::RunOptions off;
    off.recorderCapacity = 0;
    harness::RunResult r2 = harness::runKernel(
        cfg, kernels::kernelFactory("heat"), params, off);
    EXPECT_TRUE(r2.recorderDump.empty());
    EXPECT_EQ(r2.recorderRecorded, 0u);
}

// ---------------------------------------------------------------------
// Line profiler via --stats-json
// ---------------------------------------------------------------------

const sim::JsonValue *
walk(const sim::JsonValue &root, std::initializer_list<const char *> path)
{
    const sim::JsonValue *v = &root;
    for (const char *k : path)
        v = v ? v->find(k) : nullptr;
    return v;
}

TEST(LineProfiler, StatsJsonReportsPatternsAndTopContenders)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    kernels::Params params;
    params.scale = 1;
    std::ostringstream os;
    harness::RunOptions opts;
    opts.statsJson = &os; // implicitly enables the profiler (top 8)
    harness::runKernel(cfg, kernels::kernelFactory("kmeans"), params, opts);

    sim::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sim::parseJson(os.str(), &doc, &err)) << err;

    const sim::JsonValue *lines = walk(doc, {"chip", "lines"});
    ASSERT_NE(lines, nullptr) << "no chip.lines subtree in --stats-json";

    const sim::JsonValue *tracked = lines->find("tracked");
    ASSERT_NE(tracked, nullptr);
    ASSERT_TRUE(tracked->isNumber());
    EXPECT_GT(tracked->number, 0.0);

    // Every line lands in exactly one sharing-pattern class.
    const sim::JsonValue *cls = lines->find("class");
    ASSERT_NE(cls, nullptr);
    double class_sum = 0;
    for (const char *p : {"private", "read_shared", "migratory",
                          "producer_consumer", "transition_churn"}) {
        const sim::JsonValue *v = cls->find(p);
        ASSERT_NE(v, nullptr) << "missing class." << p;
        ASSERT_TRUE(v->isNumber()) << p;
        EXPECT_GE(v->number, 0.0) << p;
        class_sum += v->number;
    }
    EXPECT_DOUBLE_EQ(class_sum, tracked->number);

    // Per-region summaries partition the same population.
    const sim::JsonValue *region = lines->find("region");
    ASSERT_NE(region, nullptr);
    ASSERT_TRUE(region->isObject());
    ASSERT_FALSE(region->obj.empty());
    double region_sum = 0;
    for (const auto &[rname, counts] : region->obj) {
        ASSERT_TRUE(counts.isObject()) << rname;
        for (const auto &[pname, v] : counts.obj) {
            ASSERT_TRUE(v.isNumber()) << rname << '.' << pname;
            region_sum += v.number;
        }
    }
    EXPECT_DOUBLE_EQ(region_sum, tracked->number);

    // kmeans shares its centroids across clusters: some line must be
    // contended, so the top-N table has at least one row.
    const sim::JsonValue *contended = lines->find("contended");
    ASSERT_NE(contended, nullptr);
    EXPECT_GE(contended->number, 1.0);
    const sim::JsonValue *top0 = lines->find("top0");
    ASSERT_NE(top0, nullptr) << "contended lines but no top0 row";
    for (const char *f : {"addr", "reads", "writes", "sharers",
                          "transitions", "score", "pattern"}) {
        const sim::JsonValue *v = top0->find(f);
        ASSERT_NE(v, nullptr) << "missing top0." << f;
        EXPECT_TRUE(v->isNumber()) << f;
    }

    // The latency histograms expose percentile columns (p50/p95/p99).
    const sim::JsonValue *resp = walk(doc, {"chip", "latency", "resp"});
    ASSERT_NE(resp, nullptr);
    for (const char *f : {"p50", "p95", "p99"}) {
        const sim::JsonValue *v = resp->find(f);
        ASSERT_NE(v, nullptr) << "missing latency.resp." << f;
        EXPECT_TRUE(v->isNumber()) << f;
    }
    EXPECT_LE(resp->find("p50")->number, resp->find("p95")->number);
    EXPECT_LE(resp->find("p95")->number, resp->find("p99")->number);
}

// ---------------------------------------------------------------------
// Post-mortem: deadlock dumps carry recorder history
// ---------------------------------------------------------------------

TEST(PostMortem, DeadlockDumpIncludesRecorderHistory)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.mode = CoherenceMode::Cohesion;
    cfg.watchdogWindow = 20'000;
    cfg.maxCycles = 400'000; // backstop if spinning keeps progress alive
    kernels::Params params;
    auto kernel = kernels::kernelFactory("heat")(params);
    arch::Chip chip(cfg, runtime::Layout::tableBase);
    chip.enableRecorder(1u << 12);
    runtime::CohesionRuntime rt(chip);
    kernel->setup(rt);
    std::vector<sim::CoTask> workers;
    for (unsigned c = 0; c < chip.totalCores(); ++c)
        workers.push_back(kernel->worker(runtime::Ctx(rt, chip.core(c))));
    for (auto &w : workers)
        w.start();

    mem::Addr target = runtime::Layout::incHeapBase;
    chip.bank(chip.map().bankOf(target)).debugWedgeLine(target);

    try {
        chip.runUntilQuiescent();
        FAIL() << "watchdog did not fire on a wedged line";
    } catch (const arch::DeadlockError &e) {
        EXPECT_NE(e.dump().find("recorder history line"),
                  std::string::npos)
            << "post-mortem dump has no recorder history:\n"
            << e.dump();
    }
}

// ---------------------------------------------------------------------
// The record stream's observers: narration and trace-event rendering
// ---------------------------------------------------------------------

/** A ring that holds a whole 2-cluster sobel run without wrapping. */
constexpr std::uint32_t kWholeRunRing = 1u << 16;

struct StreamRun
{
    harness::RunResult result;
    std::vector<FR::Record> ring; ///< the dump, oldest first
    std::string log;              ///< everything narrated
};

/** One 2-cluster sobel run with @p opts, its log captured. */
StreamRun
streamRun(harness::RunOptions opts)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    kernels::Params params;
    params.scale = 1;
    StreamRun run;
    sim::LogCapture cap;
    run.result = harness::runKernel(cfg, kernels::kernelFactory("sobel"),
                                    params, opts);
    run.log = cap.text();
    if (!run.result.recorderDump.empty()) {
        std::string err;
        EXPECT_TRUE(FR::deserialize(run.result.recorderDump, &run.ring,
                                    &err))
            << err;
        EXPECT_EQ(run.ring.size(), run.result.recorderRecorded)
            << "the ring wrapped; raise kWholeRunRing";
    }
    return run;
}

/** describeRecord of every record @p keep accepts, one per line. */
template <typename Keep>
std::string
narration(const std::vector<FR::Record> &ring, Keep keep)
{
    std::string out;
    for (const FR::Record &r : ring) {
        if (keep(r))
            out += arch::describeRecord(r) + '\n';
    }
    return out;
}

bool
inMask(arch::KindMask mask, const FR::Record &r)
{
    return (mask >> r.kind) & 1u;
}

TEST(RecordStream, TraceNarratesExactlyTheRingRecordsOfItsGroups)
{
    harness::RunOptions opts;
    opts.recorderCapacity = kWholeRunRing;
    opts.traceMask = arch::parseTraceGroups("protocol,cache,transition");
    StreamRun run = streamRun(opts);

    std::string want = narration(run.ring, [&](const FR::Record &r) {
        return inMask(opts.traceMask, r);
    });
    // Every narrated group occurs in the run.
    for (FR::Ev e : {FR::Ev::MsgRecv, FR::Ev::Fill, FR::Ev::TableRead}) {
        EXPECT_NE(want.find(FR::evName(e)), std::string::npos)
            << FR::evName(e);
    }
    EXPECT_EQ(run.log, want);
}

TEST(RecordStream, NarrationWorksWithTheRingOff)
{
    harness::RunOptions opts;
    opts.recorderCapacity = kWholeRunRing;
    opts.traceMask = arch::parseTraceGroups("all");
    StreamRun on = streamRun(opts);
    ASSERT_FALSE(on.log.empty());
    EXPECT_EQ(on.log, narration(on.ring, [](const FR::Record &) {
                  return true;
              }));

    opts.recorderCapacity = 0;
    StreamRun off = streamRun(opts);
    EXPECT_TRUE(off.result.recorderDump.empty());
    EXPECT_EQ(off.log, on.log);
}

TEST(RecordStream, WatchLineNarratesExactlyThatLine)
{
    harness::RunOptions opts;
    opts.recorderCapacity = kWholeRunRing;
    StreamRun plain = streamRun(opts);
    ASSERT_TRUE(plain.log.empty());

    // The line of the run's first bank transaction; any address inside
    // the line selects it.
    mem::Addr line = 0;
    for (const FR::Record &r : plain.ring) {
        if (is(r, FR::Ev::TxnBegin)) {
            line = r.line;
            break;
        }
    }
    ASSERT_NE(line, 0u);
    opts.watchLine = line + 4;
    StreamRun watched = streamRun(opts);

    std::string want = narration(watched.ring, [&](const FR::Record &r) {
        return r.line == line;
    });
    EXPECT_NE(want.find("txn.begin"), std::string::npos);
    EXPECT_EQ(watched.log, want);
    // Watching observes: the machine ran the same schedule.
    EXPECT_EQ(watched.result.recorderDump, plain.result.recorderDump);
}

/** The trace events of @p doc with phase i, b or e, re-encoded one per
 *  line for comparison. */
std::vector<std::string>
instantsAndSpans(const std::string &doc)
{
    sim::JsonValue v;
    std::string err;
    EXPECT_TRUE(sim::parseJson(doc, &v, &err)) << err;
    std::vector<std::string> out;
    const sim::JsonValue *events = v.find("traceEvents");
    if (!events)
        return out;
    for (const sim::JsonValue &e : events->arr) {
        const std::string &ph = e.find("ph")->str;
        if (ph != "i" && ph != "b" && ph != "e")
            continue;
        const sim::JsonValue *id = e.find("id");
        out.push_back(sim::cat(ph, ' ', e.find("ts")->number, ' ',
                               e.find("tid")->number, ' ',
                               e.find("cat")->str, ' ',
                               id ? id->str : "-", ' ',
                               e.find("name")->str));
    }
    return out;
}

TEST(RecordStream, TraceJsonPairsOneSpanPerBankTransaction)
{
    std::ostringstream json;
    harness::RunOptions opts;
    opts.recorderCapacity = kWholeRunRing;
    opts.traceJson = &json;
    StreamRun run = streamRun(opts);

    std::size_t begins = 0, ends = 0;
    for (const FR::Record &r : run.ring) {
        begins += is(r, FR::Ev::TxnBegin);
        ends += is(r, FR::Ev::TxnEnd);
    }
    ASSERT_GT(begins, 0u);

    sim::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sim::parseJson(json.str(), &doc, &err)) << err;
    std::vector<std::string> open_ids, closed_ids;
    for (const sim::JsonValue &e : doc.find("traceEvents")->arr) {
        const std::string &ph = e.find("ph")->str;
        if (ph == "b")
            open_ids.push_back(e.find("id")->str);
        else if (ph == "e")
            closed_ids.push_back(e.find("id")->str);
    }
    EXPECT_EQ(open_ids.size(), begins);
    EXPECT_EQ(closed_ids.size(), ends);
    // Every span closes exactly once, under the id it opened with.
    std::sort(open_ids.begin(), open_ids.end());
    std::sort(closed_ids.begin(), closed_ids.end());
    EXPECT_EQ(std::adjacent_find(open_ids.begin(), open_ids.end()),
              open_ids.end())
        << "two spans share an id";
    EXPECT_EQ(open_ids, closed_ids);
}

TEST(RecordStream, TraceJsonEqualsThePerfettoRenderOfTheDump)
{
    std::ostringstream json;
    harness::RunOptions opts;
    opts.recorderCapacity = kWholeRunRing;
    opts.traceJson = &json;
    StreamRun run = streamRun(opts);

    // What cohesion-trace --perfetto writes for the unfiltered dump.
    std::ostringstream dumped;
    {
        sim::TraceJsonWriter w(dumped);
        for (const FR::Record &r : run.ring)
            arch::renderRecord(w, r);
    }
    std::vector<std::string> live = instantsAndSpans(json.str());
    std::vector<std::string> offline = instantsAndSpans(dumped.str());
    ASSERT_EQ(live.size(), run.ring.size());
    EXPECT_EQ(live, offline);
}

TEST(RecordStream, ObserversDetachWhenTheRunThrows)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.maxCycles = 2'000; // the watchdog stops sobel early
    kernels::Params params;
    params.scale = 1;
    harness::Session session(cfg, params.seed);
    std::ostringstream json;
    harness::RunOptions opts;
    opts.traceJson = &json;
    opts.samplePeriod = 500;
    opts.traceMask = arch::parseTraceGroups("all");
    auto kernel = kernels::kernelFactory("sobel")(params);
    {
        sim::LogCapture cap;
        EXPECT_THROW(session.run(*kernel, opts), arch::DeadlockError);
    }
    // The writer closed its document when the run unwound, and the
    // chip let go of it: a later sample or record reaches no observer.
    const std::string closed = json.str();
    sim::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sim::parseJson(closed, &doc, &err)) << err;
    sim::LogCapture cap;
    session.chip().timeSeries().sampleNow();
    session.chip().rec(FR::Ev::DirErase, FR::compBank(0), 0x1000, 1);
    sim::StatRegistry reg;
    session.chip().registerStats(reg); // drains the staged record
    EXPECT_EQ(json.str(), closed);
    EXPECT_TRUE(cap.empty()) << cap.text();
}

} // namespace
