/** @file
 * Harness-layer units: the Fig. 2 message taxonomy (names, sizes,
 * counting, merging), the statistics report, the --trace groups of
 * recorder kinds, and the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "arch/flight_decode.hh"
#include "arch/msg.hh"
#include "harness/report.hh"
#include "harness/table.hh"

namespace {

using arch::MsgClass;

TEST(MsgCounters, CountAndTotal)
{
    arch::MsgCounters c;
    c.count(MsgClass::ReadRequest);
    c.count(MsgClass::ReadRequest, 4);
    c.count(MsgClass::SoftwareFlush);
    EXPECT_EQ(c.get(MsgClass::ReadRequest), 5u);
    EXPECT_EQ(c.get(MsgClass::SoftwareFlush), 1u);
    EXPECT_EQ(c.get(MsgClass::ProbeResponse), 0u);
    EXPECT_EQ(c.total(), 6u);
}

TEST(MsgCounters, MergeSums)
{
    arch::MsgCounters a, b;
    a.count(MsgClass::WriteRequest, 2);
    b.count(MsgClass::WriteRequest, 3);
    b.count(MsgClass::ReadRelease, 1);
    a.merge(b);
    EXPECT_EQ(a.get(MsgClass::WriteRequest), 5u);
    EXPECT_EQ(a.get(MsgClass::ReadRelease), 1u);
}

TEST(MsgCounters, ExportUsesFigureNames)
{
    arch::MsgCounters c;
    c.count(MsgClass::UncachedAtomic, 7);
    sim::StatSet s;
    c.exportTo(s, "x.");
    EXPECT_DOUBLE_EQ(s.get("x.UncachedAtomics"), 7.0);
    EXPECT_TRUE(s.has("x.ReadReleases"));
}

TEST(MsgSizes, HeaderPlusDataWords)
{
    EXPECT_EQ(arch::msgBytes(0), 8u);
    EXPECT_EQ(arch::msgBytes(8), 8u + 32u);
}

TEST(MsgNames, AllClassesNamed)
{
    for (unsigned i = 0; i < arch::numMsgClasses; ++i) {
        EXPECT_STRNE(arch::msgClassName(static_cast<MsgClass>(i)), "?");
    }
}

TEST(Report, CollectsDerivedStats)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    harness::RunResult r;
    r.cycles = 1000;
    r.instructions = 16000;
    r.l2Hits = 75;
    r.l2Misses = 25;
    r.msgs.count(MsgClass::ReadRequest, 10);

    sim::StatSet s = harness::collectStats(cfg, r);
    EXPECT_DOUBLE_EQ(s.get("sim.cycles"), 1000.0);
    EXPECT_DOUBLE_EQ(s.get("l2.hit_rate"), 0.75);
    EXPECT_DOUBLE_EQ(s.get("sim.ipc_per_core"), 1.0);
    EXPECT_DOUBLE_EQ(s.get("l2_out.ReadRequests"), 10.0);
    EXPECT_DOUBLE_EQ(s.get("l2_out.total"), 10.0);
}

TEST(Report, CsvHasHeaderAndRows)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    harness::RunResult r;
    r.cycles = 5;
    std::ostringstream os;
    harness::printCsv(os, cfg, r);
    std::string out = os.str();
    EXPECT_NE(out.find("stat,value\n"), std::string::npos);
    EXPECT_NE(out.find("sim.cycles,5"), std::string::npos);
}

using FR = sim::FlightRecorder;

arch::KindMask
bit(FR::Ev e)
{
    return arch::KindMask(1) << static_cast<unsigned>(e);
}

TEST(Trace, ParseCategories)
{
    EXPECT_EQ(arch::parseTraceGroups(""), 0u);
    EXPECT_EQ(arch::parseTraceGroups("none"), 0u);
    arch::KindMask all = arch::parseTraceGroups("all");
    for (unsigned k = 1; k < unsigned(FR::Ev::numEvents); ++k)
        EXPECT_TRUE(all & bit(FR::Ev(k))) << FR::evName(FR::Ev(k));
    EXPECT_FALSE(all & bit(FR::Ev::None));

    arch::KindMask m = arch::parseTraceGroups("protocol,transition");
    EXPECT_TRUE(m & bit(FR::Ev::MsgRecv));
    EXPECT_TRUE(m & bit(FR::Ev::DirState));
    EXPECT_TRUE(m & bit(FR::Ev::TableRead));
    EXPECT_TRUE(m & bit(FR::Ev::TransStep));
    EXPECT_FALSE(m & bit(FR::Ev::Fill));
    EXPECT_FALSE(m & bit(FR::Ev::MsgDrop));

    // An unknown name is an error that lists the valid ones. dram,
    // runtime and watchdog have no record kinds behind them.
    for (const char *bad : {"bogus", "dram", "runtime", "watchdog",
                            "protocol,bogus"}) {
        try {
            arch::parseTraceGroups(bad);
            ADD_FAILURE() << bad << " parsed";
        } catch (const std::invalid_argument &e) {
            std::string what = e.what();
            EXPECT_NE(what.find("protocol,cache,transition,net,fault"),
                      std::string::npos)
                << what;
        }
    }
}

TEST(Trace, EveryKindBelongsToExactlyOneGroup)
{
    arch::KindMask seen = 0;
    for (const char *g : {"protocol", "cache", "transition", "net",
                          "fault"}) {
        arch::KindMask m = arch::parseTraceGroups(g);
        EXPECT_NE(m, 0u) << g;
        EXPECT_EQ(seen & m, 0u) << g << " overlaps an earlier group";
        seen |= m;
        for (unsigned k = 1; k < unsigned(FR::Ev::numEvents); ++k) {
            EXPECT_EQ(bool(m & bit(FR::Ev(k))),
                      std::string(arch::traceGroup(FR::Ev(k))) == g)
                << FR::evName(FR::Ev(k));
        }
    }
    EXPECT_EQ(seen, arch::parseTraceGroups("all"));
}

TEST(Table, AlignsAndFormats)
{
    harness::Table t({"a", "bbbb"});
    t.addRow({"xxxxx", "y"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("xxxxx"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);

    EXPECT_EQ(harness::Table::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(harness::Table::fmtX(2.0), "2.00x");
    EXPECT_EQ(harness::Table::fmtCount(1500), "1.5K");
    EXPECT_EQ(harness::Table::fmtCount(2500000), "2.50M");
    EXPECT_EQ(harness::Table::fmtCount(42), "42");
}

} // namespace
