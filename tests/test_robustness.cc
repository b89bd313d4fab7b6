/** @file
 * Robustness tests for the fault-injection framework, the runtime
 * coherence auditor, and the deadlock watchdog:
 *
 *  - a wedged protocol transaction must surface as a DeadlockError
 *    carrying a non-empty in-flight transaction dump;
 *  - every Auditor invariant must catch one targeted corruption
 *    (quiesce a kernel, smash exactly the state the invariant guards,
 *    expect AuditError naming that invariant), and the in-flux skip
 *    must spare a line with a fill in flight — and only that line;
 *  - FaultPlan JSON parsing, FaultInjector determinism, and the
 *    deriveSeed() chain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "coherence/auditor.hh"
#include "harness/runner.hh"
#include "kernels/registry.hh"
#include "runtime/ctx.hh"
#include "sim/fault.hh"
#include "sim/random.hh"

namespace {

/** A kernel run to quiescence with the machine left intact for
 *  post-mortem mutation. */
struct Rig
{
    arch::MachineConfig cfg;
    std::unique_ptr<arch::Chip> chip;
    std::unique_ptr<runtime::CohesionRuntime> rt;
    std::unique_ptr<kernels::Kernel> kernel;
};

Rig
runQuiesced(arch::CoherenceMode mode)
{
    Rig r;
    r.cfg = arch::MachineConfig::scaled(2);
    r.cfg.mode = mode;
    kernels::Params params;
    r.kernel = kernels::kernelFactory("heat")(params);
    r.chip = std::make_unique<arch::Chip>(r.cfg, runtime::Layout::tableBase);
    r.rt = std::make_unique<runtime::CohesionRuntime>(*r.chip);
    r.kernel->setup(*r.rt);
    std::vector<sim::CoTask> workers;
    for (unsigned c = 0; c < r.chip->totalCores(); ++c) {
        workers.push_back(
            r.kernel->worker(runtime::Ctx(*r.rt, r.chip->core(c))));
    }
    for (auto &w : workers)
        w.start();
    r.chip->runUntilQuiescent();
    for (auto &w : workers) {
        w.rethrow();
        EXPECT_TRUE(w.done());
    }
    r.chip->auditNow(); // the quiesced machine must audit clean
    return r;
}

struct FoundLine
{
    cache::Line *line = nullptr;
    unsigned cluster = 0;
};

/** First valid L2 line with the requested incoherent bit. */
FoundLine
findLine(arch::Chip &chip, bool incoherent)
{
    for (unsigned ci = 0; ci < chip.numClusters(); ++ci) {
        cache::Line *hit = nullptr;
        chip.cluster(ci).l2().forEachValid([&](cache::Line &l) {
            if (!hit && l.incoherent == incoherent)
                hit = &l;
        });
        if (hit)
            return {hit, ci};
    }
    return {};
}

/** Demote every resident L2 copy of @p base to a clean Shared copy so
 *  directory-side corruptions are reached before any per-line check. */
void
demoteCopies(arch::Chip &chip, mem::Addr base)
{
    for (unsigned ci = 0; ci < chip.numClusters(); ++ci) {
        if (cache::Line *l = chip.cluster(ci).l2().probe(base)) {
            l->hwState = cache::CohState::Shared;
            l->dirtyMask = 0;
        }
    }
}

/** Apply @p corrupt to a quiesced machine; the next audit pass must
 *  throw AuditError naming exactly @p invariant. */
void
expectAuditError(arch::CoherenceMode mode, const std::string &invariant,
                 const std::function<void(arch::Chip &)> &corrupt)
{
    Rig r = runQuiesced(mode);
    corrupt(*r.chip);
    try {
        r.chip->auditNow();
        FAIL() << "auditor missed a " << invariant << " violation";
    } catch (const coherence::AuditError &e) {
        EXPECT_EQ(e.invariant(), invariant) << e.what();
    }
}

// --- Per-invariant corruptions -------------------------------------

TEST(Auditor, CatchesDirtyBitOutsideValidMask)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "dirty-subset-valid",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            f.line->validMask &= mem::WordMask(~1u);
            f.line->dirtyMask |= 1;
        });
}

TEST(Auditor, CatchesIncoherentBitOnHwccLine)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "incoherent-xor-hwstate",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            f.line->incoherent = true;
        });
}

TEST(Auditor, CatchesValidLineWithoutAnyState)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "valid-line-stateless",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            f.line->hwState = cache::CohState::Invalid;
        });
}

TEST(Auditor, CatchesDirtyWordsOnUnownedHwccLine)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "dirty-needs-owner",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            f.line->hwState = cache::CohState::Shared;
            f.line->dirtyMask = f.line->validMask;
            ASSERT_NE(f.line->dirtyMask, 0);
        });
}

TEST(Auditor, CatchesIncoherentLineInHwccOnlyMode)
{
    expectAuditError(
        arch::CoherenceMode::HWccOnly, "mode-domain",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            f.line->incoherent = true;
            f.line->hwState = cache::CohState::Invalid;
            f.line->dirtyMask = 0;
        });
}

TEST(Auditor, CatchesHwccCopyWithoutDirectoryEntry)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "l2-without-directory",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            chip.bank(chip.map().bankOf(f.line->base))
                .directory()
                .erase(f.line->base);
        });
}

TEST(Auditor, CatchesSharerMissingFromDirectoryEntry)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "sharer-missing",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            coherence::DirEntry *e =
                chip.bank(chip.map().bankOf(f.line->base))
                    .directory()
                    .find(f.line->base);
            ASSERT_NE(e, nullptr);
            e->sharers.remove(f.cluster);
        });
}

TEST(Auditor, CatchesOwnerStateUnknownToDirectory)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "state-mismatch",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            coherence::DirEntry *e =
                chip.bank(chip.map().bankOf(f.line->base))
                    .directory()
                    .find(f.line->base);
            ASSERT_NE(e, nullptr);
            e->state = cache::CohState::Shared;
            f.line->hwState = cache::CohState::Modified;
        });
}

TEST(Auditor, CatchesHwccTableLineCachedIncoherently)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "domain-mismatch",
        [](arch::Chip &chip) {
            // Turn an HWcc-domain line (per the region tables) into an
            // SWcc cache copy without rewriting the table.
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            f.line->incoherent = true;
            f.line->hwState = cache::CohState::Invalid;
            f.line->dirtyMask = 0;
        });
}

TEST(Auditor, CatchesTwoCopiesWhenOneClaimsOwnership)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "owner-exclusive",
        [](arch::Chip &chip) {
            // Find an HWcc line resident in two clusters.
            mem::Addr base = 0;
            bool found = false;
            chip.cluster(0).l2().forEachValid([&](cache::Line &l) {
                if (found || l.incoherent)
                    return;
                for (unsigned ci = 1; ci < chip.numClusters(); ++ci) {
                    cache::Line *o = chip.cluster(ci).l2().probe(l.base);
                    if (o && !o->incoherent) {
                        base = l.base;
                        found = true;
                        return;
                    }
                }
            });
            ASSERT_TRUE(found) << "no line shared by two clusters";
            demoteCopies(chip, base);
            cache::Line *l = chip.cluster(0).l2().probe(base);
            l->hwState = cache::CohState::Modified;
            coherence::DirEntry *e =
                chip.bank(chip.map().bankOf(base)).directory().find(base);
            ASSERT_NE(e, nullptr);
            // Keep the per-line checks green so the cross-copy pass at
            // the end of the audit is what fires.
            e->state = cache::CohState::Modified;
        });
}

TEST(Auditor, CatchesInvalidDirectoryEntryState)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "dir-invalid-state",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            mem::Addr base = f.line->base;
            demoteCopies(chip, base);
            coherence::DirEntry *e =
                chip.bank(chip.map().bankOf(base)).directory().find(base);
            ASSERT_NE(e, nullptr);
            e->state = cache::CohState::Invalid;
        });
}

TEST(Auditor, CatchesDirectoryEntryWithNoSharers)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "dir-empty-sharers",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            mem::Addr base = f.line->base;
            // Drop every cached copy so sharer-missing cannot fire
            // first, then empty the sharer set.
            for (unsigned ci = 0; ci < chip.numClusters(); ++ci) {
                if (cache::Line *l = chip.cluster(ci).l2().probe(base))
                    l->reset();
            }
            coherence::DirEntry *e =
                chip.bank(chip.map().bankOf(base)).directory().find(base);
            ASSERT_NE(e, nullptr);
            e->sharers.clear();
        });
}

TEST(Auditor, CatchesOwnerEntryWithMultipleSharers)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "dir-multi-owner",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, false);
            ASSERT_NE(f.line, nullptr);
            mem::Addr base = f.line->base;
            demoteCopies(chip, base);
            coherence::DirEntry *e =
                chip.bank(chip.map().bankOf(base)).directory().find(base);
            ASSERT_NE(e, nullptr);
            e->state = cache::CohState::Modified;
            for (unsigned ci = 0; ci < chip.numClusters(); ++ci)
                e->sharers.add(ci);
            ASSERT_GE(e->sharers.count(), 2u);
        });
}

TEST(Auditor, CatchesDirectoryEntryCoveringSwccLine)
{
    expectAuditError(
        arch::CoherenceMode::Cohesion, "dir-covers-swcc",
        [](arch::Chip &chip) {
            FoundLine f = findLine(chip, true);
            ASSERT_NE(f.line, nullptr);
            mem::Addr base = f.line->base;
            coherence::Directory &dir =
                chip.bank(chip.map().bankOf(base)).directory();
            ASSERT_EQ(dir.find(base), nullptr);
            coherence::DirEntry &e = dir.insert(base);
            e.state = cache::CohState::Shared;
            e.sharers.add(f.cluster);
        });
}

TEST(Auditor, CatchesDirectoryEntryInSwccOnlyMode)
{
    expectAuditError(
        arch::CoherenceMode::SWccOnly, "dir-in-swcc-mode",
        [](arch::Chip &chip) {
            mem::Addr base = runtime::Layout::incHeapBase;
            chip.bank(chip.map().bankOf(base)).directory().insert(base);
        });
}

// --- In-flux skip ----------------------------------------------------

/** A line may be mid-transition while any cluster has a fill for it in
 *  flight: the auditor must skip it, but only it. */
TEST(Auditor, SkipsLinesWithAFillInFlightAndOnlyThose)
{
    Rig r = runQuiesced(arch::CoherenceMode::Cohesion);
    arch::Chip &chip = *r.chip;
    // Two HWcc lines cached in cluster 0 but not in cluster 1: x gets a
    // fill in flight from cluster 1, y stays idle.
    std::vector<cache::Line *> lines;
    chip.cluster(0).l2().forEachValid([&](cache::Line &l) {
        if (!l.incoherent && !chip.cluster(1).l2().probe(l.base))
            lines.push_back(&l);
    });
    ASSERT_GE(lines.size(), 2u);
    cache::Line &x = *lines[0];
    cache::Line &y = *lines[1];

    const unsigned core = chip.config().coresPerCluster; // cluster 1
    sim::CoTask fill = [](runtime::Ctx ctx, mem::Addr a) -> sim::CoTask {
        co_await ctx.load32(a);
    }(runtime::Ctx(*r.rt, chip.core(core)), x.base);
    fill.start(); // the miss allocates the MSHR; nothing is delivered
    ASSERT_EQ(chip.cluster(1).mshrCount(), 1u);

    // dirty-subset-valid on x: skipped, counted, no throw.
    auto corrupt = [](cache::Line &l) {
        l.validMask &= mem::WordMask(~1u);
        l.dirtyMask |= 1;
    };
    corrupt(x);
    const std::uint64_t skipped = chip.auditor()->linesSkipped();
    EXPECT_NO_THROW(chip.auditNow());
    EXPECT_GT(chip.auditor()->linesSkipped(), skipped);

    // The same corruption on y, which has no MSHR anywhere, is caught.
    corrupt(y);
    try {
        chip.auditNow();
        FAIL() << "auditor skipped a line with no transaction in flight";
    } catch (const coherence::AuditError &e) {
        EXPECT_EQ(e.invariant(), "dirty-subset-valid") << e.what();
        std::ostringstream y_hex;
        y_hex << "line 0x" << std::hex << y.base;
        EXPECT_NE(std::string(e.what()).find(y_hex.str()), std::string::npos)
            << e.what();
    }
}

// --- Deadlock watchdog ---------------------------------------------

TEST(Watchdog, WedgedLineThrowsDeadlockErrorWithDump)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.mode = arch::CoherenceMode::Cohesion;
    cfg.watchdogWindow = 20'000;
    cfg.maxCycles = 400'000; // backstop if spinning keeps progress alive
    kernels::Params params;
    auto kernel = kernels::kernelFactory("heat")(params);
    arch::Chip chip(cfg, runtime::Layout::tableBase);
    runtime::CohesionRuntime rt(chip);
    kernel->setup(rt);
    std::vector<sim::CoTask> workers;
    for (unsigned c = 0; c < chip.totalCores(); ++c)
        workers.push_back(kernel->worker(runtime::Ctx(rt, chip.core(c))));
    for (auto &w : workers)
        w.start();

    // Wedge the heat buffer's first line: a stub transaction takes the
    // home bank's line lock and parks forever, so every access queues
    // behind it and the machine stops making progress.
    mem::Addr target = runtime::Layout::incHeapBase;
    chip.bank(chip.map().bankOf(target)).debugWedgeLine(target);

    try {
        chip.runUntilQuiescent();
        FAIL() << "watchdog did not fire on a wedged line";
    } catch (const arch::DeadlockError &e) {
        EXPECT_FALSE(e.dump().empty())
            << "DeadlockError carried no in-flight transaction table";
        EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
        EXPECT_NE(e.dump().find("bank"), std::string::npos) << e.dump();
    }
}

/** A bank transaction that dies on an exception must fail the run.
 *  The bad request queues behind a Read on the line lock and panics
 *  only after it resumes, inside an event, where no caller sees the
 *  throw; its requester would otherwise wait forever. */
TEST(BankTransaction, DeadTransactionFailsTheRun)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.mode = arch::CoherenceMode::HWccOnly;
    arch::Chip chip(cfg, runtime::Layout::tableBase);
    const mem::Addr line = 0x1000;
    arch::L3Bank &bank = chip.bank(chip.map().bankOf(line));
    arch::Request rd;
    rd.type = arch::ReqType::Read;
    rd.cluster = 0;
    rd.addr = line;
    bank.receiveRequest(rd);
    arch::Request bad = rd;
    bad.type = static_cast<arch::ReqType>(99);
    bank.receiveRequest(bad);

    try {
        chip.runUntilQuiescent();
        FAIL() << "the run ended normally with " << bank.inFlight()
               << " transaction(s) in flight";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("unexpected writeback type"),
                  std::string::npos)
            << e.what();
    }
    // Pruning reports the error once and frees both slots.
    EXPECT_THROW(bank.pruneTransactions(), std::logic_error);
    EXPECT_EQ(bank.inFlight(), 0u);
    EXPECT_NO_THROW(chip.runUntilQuiescent());
}

/** The in-flight dump lists a cluster's MSHRs by ascending line
 *  address, whatever order the misses were issued in. */
TEST(InFlightDump, ListsMshrsByAddress)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    arch::Chip chip(cfg, runtime::Layout::tableBase);
    runtime::CohesionRuntime rt(chip);
    const mem::Addr base = runtime::Layout::cohHeapBase;
    const std::vector<mem::Addr> lines = {base + 0x7000, base + 0x20,
                                          base + 0x3400, base};
    std::vector<sim::CoTask> loads;
    for (unsigned i = 0; i < lines.size(); ++i) {
        loads.push_back([](runtime::Ctx ctx, mem::Addr a) -> sim::CoTask {
            co_await ctx.load32(a);
        }(runtime::Ctx(rt, chip.core(i)), lines[i]));
        loads.back().start(); // each miss opens an MSHR in cluster 0
    }
    ASSERT_GE(chip.cluster(0).mshrCount(), lines.size());

    std::istringstream dump(chip.inFlightDump());
    std::vector<mem::Addr> listed;
    for (std::string row; std::getline(dump, row);) {
        const std::string tag = "cluster0 mshr 0x";
        std::size_t at = row.find(tag);
        if (at != std::string::npos)
            listed.push_back(static_cast<mem::Addr>(
                std::stoul(row.substr(at + tag.size()), nullptr, 16)));
    }
    EXPECT_EQ(listed.size(), chip.cluster(0).mshrCount());
    EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
    for (mem::Addr a : lines) {
        EXPECT_NE(std::find(listed.begin(), listed.end(), a), listed.end())
            << std::hex << a;
    }
    chip.runUntilQuiescent();
}

// --- Fault plan parsing --------------------------------------------

TEST(FaultPlan, ParsesFullSchema)
{
    sim::FaultPlan plan = sim::FaultPlan::parse(R"({
        "seed": 7,
        "pump_period": 512,
        "sites": {
            "fabric.c2b.drop":  { "rate": 0.01 },
            "fabric.b2c.delay": { "rate": 0.05, "delay": 128 },
            "l2.meta.flip":     { "rate": 0.2,  "max": 3 }
        }
    })");
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_EQ(plan.pumpPeriod, 512u);
    EXPECT_DOUBLE_EQ(plan.site(sim::FaultSite::FabricC2BDrop).rate, 0.01);
    EXPECT_DOUBLE_EQ(plan.site(sim::FaultSite::FabricB2CDelay).rate, 0.05);
    EXPECT_EQ(plan.site(sim::FaultSite::FabricB2CDelay).delay, 128u);
    EXPECT_DOUBLE_EQ(plan.site(sim::FaultSite::L2MetaFlip).rate, 0.2);
    EXPECT_EQ(plan.site(sim::FaultSite::L2MetaFlip).max, 3u);
    EXPECT_EQ(plan.site(sim::FaultSite::L2DataFlip).rate, 0.0);
    EXPECT_TRUE(plan.anyEnabled());
}

TEST(FaultPlan, EmptyPlanDisablesEverything)
{
    sim::FaultPlan plan = sim::FaultPlan::parse("{}");
    EXPECT_FALSE(plan.anyEnabled());
}

TEST(FaultPlan, RejectsUnknownSiteName)
{
    EXPECT_THROW(sim::FaultPlan::parse(
                     R"({"sites": {"fabric.c2b.teleport": {"rate": 1}}})"),
                 std::runtime_error);
}

TEST(FaultPlan, RejectsMalformedDocument)
{
    EXPECT_THROW(sim::FaultPlan::parse("{nope"), std::runtime_error);
    EXPECT_THROW(sim::FaultPlan::parse(R"([1, 2, 3])"), std::runtime_error);
    EXPECT_THROW(sim::FaultPlan::parse(
                     R"({"sites": {"l2.data.flip": {"rate": 7}}})"),
                 std::runtime_error);
}

// --- Injector determinism and the seed chain -----------------------

TEST(FaultInjector, SameSeedReplaysTheSameFireSequence)
{
    sim::FaultPlan plan;
    plan.seed = 99;
    plan.site(sim::FaultSite::FabricC2BDrop).rate = 0.3;
    sim::FaultInjector a, b;
    a.configure(plan);
    b.configure(plan);
    for (unsigned i = 0; i < 512; ++i) {
        SCOPED_TRACE(i);
        ASSERT_EQ(a.fire(sim::FaultSite::FabricC2BDrop, 0),
                  b.fire(sim::FaultSite::FabricC2BDrop, 0));
    }
    EXPECT_EQ(a.injected(sim::FaultSite::FabricC2BDrop),
              b.injected(sim::FaultSite::FabricC2BDrop));
    EXPECT_GT(a.injected(sim::FaultSite::FabricC2BDrop), 0u);
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    sim::FaultPlan plan;
    plan.site(sim::FaultSite::FabricC2BDrop).rate = 0.5;
    plan.seed = 1;
    sim::FaultInjector a;
    a.configure(plan);
    plan.seed = 2;
    sim::FaultInjector b;
    b.configure(plan);
    bool diverged = false;
    for (unsigned i = 0; i < 256 && !diverged; ++i) {
        diverged = a.fire(sim::FaultSite::FabricC2BDrop, 0) !=
                   b.fire(sim::FaultSite::FabricC2BDrop, 0);
    }
    EXPECT_TRUE(diverged);
}

TEST(FaultInjector, MaxCapDisarmsTheSite)
{
    sim::FaultPlan plan;
    plan.seed = 4;
    plan.site(sim::FaultSite::FabricB2CDup).rate = 1.0;
    plan.site(sim::FaultSite::FabricB2CDup).max = 5;
    sim::FaultInjector inj;
    inj.configure(plan);
    for (unsigned i = 0; i < 100; ++i)
        inj.fire(sim::FaultSite::FabricB2CDup, 0);
    EXPECT_EQ(inj.injected(sim::FaultSite::FabricB2CDup), 5u);
    EXPECT_FALSE(inj.armed(sim::FaultSite::FabricB2CDup));
}

TEST(DeriveSeed, StableAndStreamSeparated)
{
    EXPECT_EQ(sim::deriveSeed(1, "fault"), sim::deriveSeed(1, "fault"));
    EXPECT_NE(sim::deriveSeed(1, "fault"), sim::deriveSeed(2, "fault"));
    EXPECT_NE(sim::deriveSeed(1, "fault"), sim::deriveSeed(1, "other"));
    EXPECT_NE(sim::deriveSeed(1, "fault"), 0u);
    EXPECT_NE(sim::deriveSeed(0, "fault"), 0u);
}

} // namespace
