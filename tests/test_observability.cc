/** @file
 * Observability layer: the hierarchical StatRegistry and its export
 * formats, the dependency-free JSON parser/writer, the event-queue
 * time-series sampler, the Chrome trace-event JSON exporter (output is
 * parsed back to prove the documents are well-formed), and the
 * request-type -> message-class accounting.
 * Ends with an end-to-end kernel run exercising the harness wiring
 * behind --stats-json / --trace-json.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/machine_config.hh"
#include "arch/protocol.hh"
#include "harness/runner.hh"
#include "kernels/registry.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/stat_registry.hh"
#include "sim/timeseries.hh"
#include "sim/trace_json.hh"

namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, ParsesScalarsAndStructure)
{
    sim::JsonValue v;
    ASSERT_TRUE(sim::parseJson("null", &v));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(sim::parseJson("true", &v));
    EXPECT_TRUE(v.isBool());
    EXPECT_TRUE(v.boolean);
    ASSERT_TRUE(sim::parseJson("-12.5e1", &v));
    EXPECT_TRUE(v.isNumber());
    EXPECT_DOUBLE_EQ(v.number, -125.0);

    ASSERT_TRUE(sim::parseJson(R"({"a":[1,2,{"b":"x"}],"c":{}})", &v));
    ASSERT_TRUE(v.isObject());
    const sim::JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->arr.size(), 3u);
    EXPECT_DOUBLE_EQ(a->arr[1].number, 2.0);
    const sim::JsonValue *b = a->arr[2].find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->str, "x");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ParsesStringEscapes)
{
    sim::JsonValue v;
    ASSERT_TRUE(sim::parseJson(R"("a\n\t\"\\A")", &v));
    EXPECT_EQ(v.str, "a\n\t\"\\A");
}

TEST(Json, RejectsMalformedInput)
{
    sim::JsonValue v;
    std::string err;
    EXPECT_FALSE(sim::parseJson("", &v, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(sim::parseJson("{\"a\":}", &v));
    EXPECT_FALSE(sim::parseJson("[1,2", &v));
    EXPECT_FALSE(sim::parseJson("bogus", &v));
    EXPECT_FALSE(sim::parseJson("1 2", &v)); // trailing garbage
}

TEST(Json, WriterEscapesRoundTripThroughParser)
{
    std::ostringstream os;
    std::string nasty = "he\"llo\\wor\nld\x01";
    sim::writeJsonString(os, nasty);
    sim::JsonValue v;
    std::string err;
    ASSERT_TRUE(sim::parseJson(os.str(), &v, &err)) << err;
    EXPECT_EQ(v.str, nasty);
}

TEST(Json, NumbersPrintIntegersExactly)
{
    std::ostringstream os;
    sim::writeJsonNumber(os, 42.0);
    os << ' ';
    sim::writeJsonNumber(os, 0.5);
    EXPECT_EQ(os.str().substr(0, 3), "42 ");
}

// -------------------------------------------------------- StatRegistry

TEST(StatRegistry, RegistersEveryEntryKind)
{
    sim::StatRegistry reg;
    sim::Counter ctr;
    ctr.inc(3);
    sim::Distribution dist;
    dist.sample(1.0);
    dist.sample(3.0);
    sim::Histogram hist;
    hist.sample(4);

    reg.addScalar("a.plain", 2.0);
    reg.addScalar("a.lazy", []() { return 7.0; });
    reg.addCounter("a.ctr", ctr);
    reg.addDistribution("x.dist", dist);
    reg.addHistogram("x.hist", hist);

    EXPECT_EQ(reg.size(), 5u);
    EXPECT_TRUE(reg.has("a.plain"));
    EXPECT_FALSE(reg.has("a.absent"));
    EXPECT_DOUBLE_EQ(reg.scalarValue("a.plain"), 2.0);
    EXPECT_DOUBLE_EQ(reg.scalarValue("a.lazy"), 7.0);
    EXPECT_DOUBLE_EQ(reg.scalarValue("a.ctr"), 3.0);
    EXPECT_DOUBLE_EQ(reg.scalarValue("x.dist"), 2.0); // count view
    EXPECT_DOUBLE_EQ(reg.scalarValue("a.absent"), 0.0);

    sim::StatSet flat = reg.flatten();
    EXPECT_DOUBLE_EQ(flat.get("a.plain"), 2.0);
    EXPECT_DOUBLE_EQ(flat.get("a.lazy"), 7.0);
    EXPECT_DOUBLE_EQ(flat.get("a.ctr"), 3.0);
    EXPECT_DOUBLE_EQ(flat.get("x.dist.mean"), 2.0);
    EXPECT_DOUBLE_EQ(flat.get("x.dist.stddev"), 1.0);
    EXPECT_DOUBLE_EQ(flat.get("x.hist.count"), 1.0);
    EXPECT_DOUBLE_EQ(flat.get("x.hist.max"), 4.0);
}

TEST(StatRegistry, DuplicateRegistrationPanics)
{
    sim::StatRegistry reg;
    reg.addScalar("dup", 1.0);
    EXPECT_THROW(reg.addScalar("dup", 2.0), std::logic_error);
    EXPECT_THROW(reg.addScalar("", 0.0), std::logic_error);
}

TEST(StatRegistry, CsvHasHeaderAndRows)
{
    sim::StatRegistry reg;
    reg.addScalar("one", 1.0);
    reg.addScalar("two", 2.0);
    std::ostringstream os;
    reg.dumpCsv(os);
    std::string out = os.str();
    EXPECT_EQ(out.rfind("stat,value\n", 0), 0u);
    EXPECT_NE(out.find("one,1\n"), std::string::npos);
    EXPECT_NE(out.find("two,2\n"), std::string::npos);
}

TEST(StatRegistry, JsonTreeNestsDottedPathsAndParsesBack)
{
    sim::StatRegistry reg;
    sim::Histogram lat;
    lat.sample(0);
    lat.sample(9);
    reg.addScalar("chip.cluster3.l2.evict.clean", 5.0);
    // A path that is both a leaf and an interior node: the leaf value
    // must survive under the reserved "_value" key.
    reg.addScalar("chip.cluster3.l2.evict", 1.0);
    reg.addHistogram("chip.lat", lat);

    std::ostringstream os;
    reg.dumpJson(os);
    sim::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sim::parseJson(os.str(), &doc, &err)) << err;

    const sim::JsonValue *chip = doc.find("chip");
    ASSERT_NE(chip, nullptr);
    const sim::JsonValue *l2 = chip->find("cluster3");
    ASSERT_NE(l2, nullptr);
    l2 = l2->find("l2");
    ASSERT_NE(l2, nullptr);
    const sim::JsonValue *evict = l2->find("evict");
    ASSERT_NE(evict, nullptr);
    ASSERT_NE(evict->find("clean"), nullptr);
    EXPECT_DOUBLE_EQ(evict->find("clean")->number, 5.0);
    ASSERT_NE(evict->find("_value"), nullptr);
    EXPECT_DOUBLE_EQ(evict->find("_value")->number, 1.0);

    const sim::JsonValue *h = chip->find("lat");
    ASSERT_NE(h, nullptr);
    ASSERT_NE(h->find("type"), nullptr);
    EXPECT_EQ(h->find("type")->str, "histogram");
    EXPECT_DOUBLE_EQ(h->find("count")->number, 2.0);
    const sim::JsonValue *buckets = h->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_TRUE(buckets->isArray());
    ASSERT_EQ(buckets->arr.size(), 2u); // values 0 and 9
    EXPECT_DOUBLE_EQ(buckets->arr[0].find("lo")->number, 0.0);
    EXPECT_DOUBLE_EQ(buckets->arr[1].find("count")->number, 1.0);
}

// ---------------------------------------------------------- TimeSeries

// The sampler is loop-driven: the owning run loop bounds event bursts
// by nextSampleAt() and calls tick() when the cadence comes due. This
// mirrors Chip::runUntilQuiescent's cadence handling.
void
runSampled(sim::EventQueue &eq, sim::TimeSeries &ts, sim::Tick limit)
{
    while (true) {
        sim::Tick next = ts.nextSampleAt();
        sim::Tick stop = std::min(limit, next);
        if (eq.run(stop)) {
            if (eq.now() >= next)
                ts.tick();
            return;
        }
        if (eq.now() >= next)
            ts.tick();
        if (eq.now() >= limit)
            return;
    }
}

TEST(TimeSeries, SamplesPeriodicallyAndLetsTheQueueDrain)
{
    sim::EventQueue eq;
    sim::TimeSeries ts(eq);

    int x = 0;
    ts.add("x", [&]() { return double(x); });
    int pre = 0;
    ts.setPreSample([&]() { ++pre; });
    std::vector<std::pair<sim::Tick, double>> sunk;
    ts.setSink([&](sim::Tick t, const std::string &name, double v) {
        EXPECT_EQ(name, "x");
        sunk.emplace_back(t, v);
    });

    // Keep the machine busy through tick 35: one increment per tick.
    for (int t = 1; t <= 35; ++t)
        eq.schedule(t, [&]() { ++x; });
    EXPECT_FALSE(ts.enabled());
    EXPECT_EQ(ts.nextSampleAt(), sim::maxTick);
    ts.start(10);
    EXPECT_TRUE(ts.enabled());
    EXPECT_EQ(ts.nextSampleAt(), 10u);

    // The sampler must not keep the queue alive: the loop drains it
    // and returns at the last event, not at a sampling point.
    runSampled(eq, ts, 1000);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 35u);

    // Samples at 10/20/30 while work remained; no trailing row is
    // taken past quiescence.
    const sim::TimeSeriesData &d = ts.data();
    ASSERT_EQ(d.rows.size(), 3u);
    EXPECT_EQ(d.period, 10u);
    EXPECT_EQ(d.rows[0].tick, 10u);
    EXPECT_DOUBLE_EQ(d.rows[0].values.at(0), 10.0);
    EXPECT_EQ(d.rows[2].tick, 30u);
    EXPECT_DOUBLE_EQ(d.rows[2].values.at(0), 30.0);
    EXPECT_EQ(pre, 3);
    ASSERT_EQ(sunk.size(), 3u);
    EXPECT_EQ(sunk[2].first, 30u);
    EXPECT_DOUBLE_EQ(sunk[2].second, 30.0);
}

TEST(TimeSeries, ResumesSamplingAfterQuiescentGap)
{
    sim::EventQueue eq;
    sim::TimeSeries ts(eq);
    int x = 0;
    ts.add("x", [&]() { return double(x); });
    ts.start(10);

    // Phase 1: work through tick 25, then the machine quiesces. The
    // old event-driven sampler de-armed itself for good here.
    for (int t = 5; t <= 25; t += 5)
        eq.schedule(t, [&]() { ++x; });
    runSampled(eq, ts, 1000);
    ASSERT_EQ(ts.data().rows.size(), 2u); // ticks 10, 20
    EXPECT_EQ(ts.data().rows[1].tick, 20u);

    // Phase 2: new work arrives after a long quiescent gap; sampling
    // must resume on the same cadence.
    for (int t = 100; t <= 130; t += 5)
        eq.schedule(t, [&]() { ++x; });
    runSampled(eq, ts, 1000);
    const sim::TimeSeriesData &d = ts.data();
    ASSERT_GT(d.rows.size(), 2u);
    EXPECT_EQ(d.rows[2].tick, 30u); // cadence kept across the gap
    EXPECT_EQ(d.rows.back().tick, 130u);
    EXPECT_DOUBLE_EQ(d.rows.back().values.at(0), 12.0);
}

TEST(TimeSeries, TidyCsvOneObservationPerRow)
{
    sim::TimeSeriesData d;
    d.names = {"a", "b"};
    d.rows.push_back({100, {1.0, 2.0}});
    d.rows.push_back({200, {3.0, 4.0}});
    std::ostringstream os;
    d.dumpCsv(os);
    EXPECT_EQ(os.str(), "tick,series,value\n"
                        "100,a,1\n100,b,2\n"
                        "200,a,3\n200,b,4\n");
}

// ------------------------------------------------------ TraceJsonWriter

TEST(TraceJson, DocumentParsesBackWithExpectedPhases)
{
    std::ostringstream os;
    sim::TraceJsonWriter w(os);
    w.threadName(sim::TraceJsonWriter::machineTid, "machine");
    w.instant(5, sim::TraceJsonWriter::bankTid(0), "hi \"there\"",
              "transition");
    w.complete(10, 3, sim::TraceJsonWriter::clusterTid(1), "span", "txn");
    w.asyncBegin(42, 10, "bank0:RdReq", "txn");
    w.asyncEnd(42, 20, "bank0:RdReq", "txn");
    w.counter(30, "dir.total", 4.5);
    EXPECT_EQ(w.events(), 6u);
    w.finish();
    EXPECT_TRUE(w.finished());
    w.instant(99, 0, "after finish", "x"); // ignored
    EXPECT_EQ(w.events(), 6u);
    w.finish(); // idempotent

    sim::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sim::parseJson(os.str(), &doc, &err)) << err;
    const sim::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->arr.size(), 6u);

    std::string phases;
    for (const sim::JsonValue &e : events->arr) {
        ASSERT_TRUE(e.isObject());
        const sim::JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        phases += ph->str;
        ASSERT_NE(e.find("pid"), nullptr);
        EXPECT_DOUBLE_EQ(e.find("pid")->number, 1.0);
    }
    EXPECT_EQ(phases, "MiXbeC");

    // Async begin/end pair on the same (cat, id).
    const sim::JsonValue &b = events->arr[3];
    const sim::JsonValue &e = events->arr[4];
    EXPECT_EQ(b.find("cat")->str, e.find("cat")->str);
    EXPECT_EQ(b.find("id")->str, e.find("id")->str);
    EXPECT_DOUBLE_EQ(e.find("ts")->number - b.find("ts")->number, 10.0);

    // The counter carries its value in args.
    const sim::JsonValue *args = events->arr[5].find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->find("value")->number, 4.5);

    // The escaped instant name survived the round trip.
    EXPECT_EQ(events->arr[1].find("name")->str, "hi \"there\"");
}

TEST(TraceJson, DestructorClosesTheDocument)
{
    std::ostringstream os;
    {
        sim::TraceJsonWriter w(os);
        w.instant(1, 0, "only", "c");
    }
    sim::JsonValue doc;
    std::string err;
    ASSERT_TRUE(sim::parseJson(os.str(), &doc, &err)) << err;
    EXPECT_EQ(doc.find("traceEvents")->arr.size(), 1u);
}

// ---------------------------------------------------- message classing

TEST(Protocol, EveryRequestTypeMapsToItsFigure2Class)
{
    using arch::MsgClass;
    using arch::ReqType;
    EXPECT_EQ(arch::msgClassFor(ReqType::Read), MsgClass::ReadRequest);
    EXPECT_EQ(arch::msgClassFor(ReqType::Write), MsgClass::WriteRequest);
    EXPECT_EQ(arch::msgClassFor(ReqType::Instr),
              MsgClass::InstructionRequest);
    EXPECT_EQ(arch::msgClassFor(ReqType::Atomic),
              MsgClass::UncachedAtomic);
    EXPECT_EQ(arch::msgClassFor(ReqType::WriteRelease),
              MsgClass::CacheEviction);
    EXPECT_EQ(arch::msgClassFor(ReqType::ReadRelease),
              MsgClass::ReadRelease);
    EXPECT_EQ(arch::msgClassFor(ReqType::Eviction),
              MsgClass::CacheEviction);
    EXPECT_EQ(arch::msgClassFor(ReqType::Flush), MsgClass::SoftwareFlush);
}

// ----------------------------------------------------------- end-to-end

TEST(Observability, KernelRunExportsParsableStatsAndTrace)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    std::ostringstream stats, trace;
    harness::RunOptions opts;
    opts.samplePeriod = 500;
    opts.traceJson = &trace;
    opts.statsJson = &stats;
    harness::RunResult r = harness::runKernel(
        cfg, kernels::kernelFactory("heat"), kernels::Params{}, opts);

    // The run recorded latencies and a sampled time series.
    EXPECT_GT(r.respLatency.count(), 0u);
    EXPECT_GT(
        r.reqLatency[unsigned(arch::MsgClass::ReadRequest)].count(), 0u);
    EXPECT_FALSE(r.timeSeries.empty());
    EXPECT_EQ(r.timeSeries.period, 500u);

    // --stats-json: hierarchical document with a populated latency
    // histogram (non-empty buckets).
    sim::JsonValue sdoc;
    std::string err;
    ASSERT_TRUE(sim::parseJson(stats.str(), &sdoc, &err)) << err;
    const sim::JsonValue *lat = sdoc.find("latency");
    ASSERT_NE(lat, nullptr);
    const sim::JsonValue *req = lat->find("req");
    ASSERT_NE(req, nullptr);
    const sim::JsonValue *rd = req->find("ReadRequests");
    ASSERT_NE(rd, nullptr);
    EXPECT_EQ(rd->find("type")->str, "histogram");
    EXPECT_GT(rd->find("count")->number, 0.0);
    ASSERT_NE(rd->find("buckets"), nullptr);
    EXPECT_FALSE(rd->find("buckets")->arr.empty());
    // The per-component subtree is present too.
    const sim::JsonValue *chip = sdoc.find("chip");
    ASSERT_NE(chip, nullptr);
    EXPECT_NE(chip->find("cluster0"), nullptr);
    EXPECT_NE(chip->find("fabric"), nullptr);

    // --trace-json: a valid Chrome trace-event document.
    sim::JsonValue tdoc;
    ASSERT_TRUE(sim::parseJson(trace.str(), &tdoc, &err)) << err;
    const sim::JsonValue *events = tdoc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_GT(events->arr.size(), 10u);
    bool sawMeta = false, sawBegin = false, sawEnd = false,
         sawCounter = false;
    for (const sim::JsonValue &e : events->arr) {
        const sim::JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        sawMeta |= ph->str == "M";
        sawBegin |= ph->str == "b";
        sawEnd |= ph->str == "e";
        sawCounter |= ph->str == "C";
    }
    EXPECT_TRUE(sawMeta);
    EXPECT_TRUE(sawBegin);
    EXPECT_TRUE(sawEnd);
    EXPECT_TRUE(sawCounter);
}

} // namespace
