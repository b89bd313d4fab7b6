/** @file
 * Harness-layer units: the Fig. 2 message taxonomy (names, sizes,
 * counting, merging), the statistics report and its legacy flat
 * aggregates, the --trace groups of recorder kinds, and the table
 * printer.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "arch/flight_decode.hh"
#include "arch/msg.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "kernels/registry.hh"
#include "sim/json.hh"

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

/** Every number of a stats-json document, by dotted path. */
void
flatten(const std::string &path, const sim::JsonValue &v,
        std::map<std::string, double> &out)
{
    if (v.isNumber())
        out[path] = v.number;
    for (const auto &[key, child] : v.obj)
        flatten(path.empty() ? key : path + "." + key, child, out);
}

/** The sum of chip.<comp>N.<stat> over every instance N. */
double
chipSum(const std::map<std::string, double> &flat, const std::string &comp,
        const std::string &stat)
{
    const std::string prefix = "chip." + comp;
    double sum = 0;
    unsigned instances = 0;
    for (const auto &[key, value] : flat) {
        if (key.compare(0, prefix.size(), prefix) != 0)
            continue;
        std::size_t i = prefix.size();
        while (i < key.size() &&
               std::isdigit(static_cast<unsigned char>(key[i])))
            ++i;
        if (i > prefix.size() && key.compare(i, std::string::npos,
                                             "." + stat) == 0) {
            sum += value;
            ++instances;
        }
    }
    EXPECT_GT(instances, 0u) << prefix << "*." << stat;
    return sum;
}

/** Session::run sums the legacy flat aggregates (l2.hits,
 *  dir.evictions, l2_out.*, ...) by hand, while Chip::registerStats
 *  exports the same per-component counters under chip.*. The two
 *  must agree in every mode, and under drops that make retries. */
TEST(Report, FlatAggregatesAreSumsOfChipCounters)
{
    const std::map<std::string, std::string> clusterSums = {
        {"l2.hits", "l2.hits"},
        {"l2.misses", "l2.misses"},
        {"swcc.flush_issued", "flush.issued"},
        {"swcc.flush_useful", "flush.useful"},
        {"swcc.inv_issued", "inv.issued"},
        {"swcc.inv_useful", "inv.useful"},
    };
    const std::map<std::string, std::string> bankSums = {
        {"l3.hits", "l3.hits"},
        {"l3.misses", "l3.misses"},
        {"dir.evictions", "dir.evictions"},
        {"dir.insertions", "dir.insertions"},
        {"dir.peak_entries", "dir.peak"},
        {"cohesion.transitions", "transitions"},
        {"cohesion.table_lookups", "table_lookups"},
        {"cohesion.merge_conflicts", "merge_conflicts"},
        {"atomics.executed", "atomics"},
    };
    for (arch::CoherenceMode mode :
         {arch::CoherenceMode::SWccOnly, arch::CoherenceMode::HWccOnly,
          arch::CoherenceMode::Cohesion}) {
        SCOPED_TRACE(arch::coherenceModeName(mode));
        arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
        cfg.mode = mode;
        cfg.faults.site(sim::FaultSite::FabricC2BDrop).rate = 0.02;
        std::ostringstream json;
        harness::RunOptions opts;
        opts.statsJson = &json;
        harness::runKernel(cfg, kernels::kernelFactory("kmeans"),
                           kernels::Params{}, opts);
        sim::JsonValue doc;
        ASSERT_TRUE(sim::parseJson(json.str(), &doc));
        std::map<std::string, double> flat;
        flatten("", doc, flat);
        ASSERT_GT(flat.at("faults.injected"), 0);

        for (const auto &[name, stat] : clusterSums)
            EXPECT_EQ(flat.at(name), chipSum(flat, "cluster", stat)) << name;
        for (const auto &[name, stat] : bankSums)
            EXPECT_EQ(flat.at(name), chipSum(flat, "bank", stat)) << name;

        double classes = 0;
        for (unsigned c = 0; c < arch::numMsgClasses; ++c) {
            std::string cls = arch::msgClassName(static_cast<MsgClass>(c));
            double sum = chipSum(flat, "cluster", "out." + cls);
            EXPECT_EQ(flat.at("l2_out." + cls), sum) << cls;
            classes += sum;
        }
        EXPECT_EQ(flat.at("l2_out.total"), classes);

        unsigned mirrored = 0;
        for (const auto &[name, value] : flat) {
            bool retry = name.compare(0, 8, "retries.") == 0;
            bool latency = name.compare(0, 8, "latency.") == 0 &&
                           name.size() > 6 &&
                           name.compare(name.size() - 6, 6, ".count") == 0;
            if (!retry && !latency)
                continue;
            auto chip = flat.find("chip." + name);
            ASSERT_NE(chip, flat.end()) << name;
            EXPECT_EQ(value, chip->second) << name;
            ++mirrored;
        }
        EXPECT_GT(mirrored, 0u);
    }
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
