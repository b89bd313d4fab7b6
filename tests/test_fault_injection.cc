/** @file
 * Fault-injection tests: the benchmark verifiers must actually detect
 * corruption. Each test runs a kernel to a verified-green state, then
 * injects a single-word fault through the FaultInjector's targeted
 * MemDataFlip site (which corrupts the newest visible copy, exactly as
 * coherentRead32 would find it) and asserts that verify() reports a
 * mismatch. Guards against vacuous verification — a verifier that
 * cannot fail would make every green kernel test meaningless.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/cluster.hh"
#include "harness/runner.hh"
#include "harness/session.hh"
#include "kernels/registry.hh"
#include "runtime/ctx.hh"
#include "sim/serialize.hh"

namespace {

/** Run @p kernel, inject a fault via @p corrupt, expect verify to
 *  throw. */
void
expectVerifierCatches(const std::string &name,
                      std::function<void(arch::Chip &,
                                         runtime::CohesionRuntime &)>
                          corrupt)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.mode = arch::CoherenceMode::Cohesion;
    kernels::Params params;
    auto kernel = kernels::kernelFactory(name)(params);

    arch::Chip chip(cfg, runtime::Layout::tableBase);
    runtime::CohesionRuntime rt(chip);
    kernel->setup(rt);
    std::vector<sim::CoTask> workers;
    for (unsigned c = 0; c < chip.totalCores(); ++c)
        workers.push_back(kernel->worker(runtime::Ctx(rt, chip.core(c))));
    for (auto &w : workers)
        w.start();
    chip.runUntilQuiescent();
    for (auto &w : workers) {
        w.rethrow();
        ASSERT_TRUE(w.done());
    }

    kernel->verify(rt); // must pass clean

    std::uint64_t before =
        chip.faults().injected(sim::FaultSite::MemDataFlip);
    corrupt(chip, rt);
    EXPECT_GE(chip.faults().injected(sim::FaultSite::MemDataFlip), before)
        << name << ": injector did not account for the fault";
    EXPECT_THROW(kernel->verify(rt), std::runtime_error)
        << name << ": verifier did not detect the injected fault";
}

TEST(FaultInjection, HeatVerifierCatchesCorruptCell)
{
    // Deliberately bypasses the FaultInjector: smash every cached copy
    // by hand so this guard stays meaningful even if injectFault()
    // itself regresses. Keep exactly one such direct-smash test.
    expectVerifierCatches("heat", [](arch::Chip &chip,
                                     runtime::CohesionRuntime &) {
        // Both heat buffers are the first two incoherent allocations.
        mem::Addr a = runtime::Layout::incHeapBase + 5 * 4;
        std::uint32_t v = 0x7F000000;
        chip.debugWriteT<std::uint32_t>(a, v);
        mem::Addr base = mem::lineBase(a);
        for (unsigned c = 0; c < chip.numClusters(); ++c) {
            if (cache::Line *l = chip.cluster(c).l2().probe(base))
                l->write(a, &v, 4);
        }
        if (cache::Line *l =
                chip.bank(chip.map().bankOf(base)).l3().probe(base)) {
            l->write(a, &v, 4);
        }
    });
}

TEST(FaultInjection, DmmVerifierCatchesCorruptProduct)
{
    expectVerifierCatches("dmm", [](arch::Chip &chip,
                                    runtime::CohesionRuntime &) {
        // C is the third allocation: A and B are n*n floats each.
        std::uint32_t n = 32;
        mem::Addr c_base =
            runtime::Layout::incHeapBase + 2 * n * n * 4;
        chip.injectFault(sim::FaultSite::MemDataFlip, c_base + 17 * 4,
                         0x7F000000);
    });
}

TEST(FaultInjection, SobelVerifierCatchesCorruptEdgeCount)
{
    expectVerifierCatches("sobel", [](arch::Chip &chip,
                                      runtime::CohesionRuntime &) {
        // The edge counter lives on the coherent heap (first alloc).
        chip.injectFault(sim::FaultSite::MemDataFlip,
                         runtime::Layout::cohHeapBase, 0x00BC614E);
    });
}

/** The writeback-ack dedup set is hard-bounded: a hostile drop storm
 *  can grow the set of never-acked message ids without limit, and an
 *  unbounded set is a slow memory-exhaustion kill. The bound evicts
 *  oldest-first and counts what it shed. */
TEST(FaultInjection, PendingWritebackSetIsBounded)
{
    arch::BoundedIdSet set(4);
    EXPECT_EQ(set.capacity(), 4u);
    for (std::uint32_t id = 0; id < 10; ++id)
        EXPECT_TRUE(set.insert(id));
    EXPECT_EQ(set.size(), 4u);
    EXPECT_EQ(set.evictions().value(), 6u);
    // Oldest ids were evicted, newest retained.
    EXPECT_FALSE(set.contains(0));
    EXPECT_FALSE(set.contains(5));
    EXPECT_TRUE(set.contains(6));
    EXPECT_TRUE(set.contains(9));
    // Duplicate insert neither grows nor evicts.
    EXPECT_FALSE(set.insert(7));
    EXPECT_EQ(set.size(), 4u);
    EXPECT_EQ(set.evictions().value(), 6u);
    // erase() reports whether the id was present (a duplicated ack or
    // an evicted id comes back false).
    EXPECT_TRUE(set.erase(8));
    EXPECT_FALSE(set.erase(8));
    EXPECT_FALSE(set.erase(3));
    EXPECT_EQ(set.size(), 3u);
    EXPECT_EQ(arch::Cluster::pendingWbCapacity, 4096u);

    // Eviction follows insertion order, not id order, and skips ids
    // already erased: {6, 7, 9} plus 2 and 1 evicts 6; 8 then evicts 7.
    EXPECT_TRUE(set.insert(2));
    EXPECT_TRUE(set.insert(1));
    EXPECT_EQ(set.evictions().value(), 7u);
    EXPECT_FALSE(set.contains(6));
    EXPECT_TRUE(set.insert(8));
    EXPECT_EQ(set.evictions().value(), 8u);
    EXPECT_FALSE(set.contains(7));

    // Serialized oldest first; a restored set evicts in the same order.
    auto idsOf = [](const std::string &blob) {
        sim::Archive des(blob);
        std::uint64_t n = 0;
        des(n);
        std::vector<std::uint32_t> ids(n);
        for (std::uint32_t &id : ids)
            des(id);
        return ids;
    };
    sim::Archive ser;
    set.snapshot(ser);
    std::string blob = ser.payload();
    EXPECT_EQ(idsOf(blob), std::vector<std::uint32_t>({9, 2, 1, 8}));

    arch::BoundedIdSet restored(4);
    sim::Archive again(blob);
    restored.snapshot(again);
    EXPECT_EQ(restored.evictions().value(), 8u);
    EXPECT_TRUE(restored.erase(2));
    EXPECT_TRUE(restored.insert(11));
    EXPECT_TRUE(restored.insert(12));
    EXPECT_FALSE(restored.contains(9));
    EXPECT_TRUE(restored.contains(1));
    sim::Archive ser2;
    restored.snapshot(ser2);
    EXPECT_EQ(idsOf(ser2.payload()),
              std::vector<std::uint32_t>({1, 8, 11, 12}));
}

/** A message whose drop-retransmit budget is exhausted used to be
 *  force-delivered silently. Drive every cluster-to-bank message
 *  through the full drop budget (rate 1.0) and demand the surfacing:
 *  the chip.retries.exhausted counter moves and the flight recorder
 *  carries the event — while the run still completes and verifies
 *  (forced delivery is the fault model's liveness guarantee). */
TEST(FaultInjection, ExhaustedRetransmitBudgetIsSurfaced)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.faults.site(sim::FaultSite::FabricC2BDrop).rate = 1.0;

    harness::Session session(cfg, kernels::Params{}.seed);
    kernels::Params params;
    params.scale = 1;
    auto kernel = kernels::kernelFactory("gjk")(params);
    harness::RunResult r = session.run(*kernel);

    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(session.chip().retriesExhausted(), 0u);

    bool recorded = false;
    session.chip().recorder().forEach(
        [&](const sim::FlightRecorder::Record &rec) {
            if (static_cast<sim::FlightRecorder::Ev>(rec.kind) ==
                sim::FlightRecorder::Ev::RetransmitExhausted) {
                recorded = true;
            }
        });
    EXPECT_TRUE(recorded)
        << "no msg.retransmit-exhausted event in the flight recorder";
}

TEST(FaultInjection, CgVerifierCatchesCorruptSolution)
{
    expectVerifierCatches("cg", [](arch::Chip &chip,
                                   runtime::CohesionRuntime &) {
        // x is the first coherent-heap allocation in cg's setup. This
        // xor mask turns typical x values into NaNs, which NaN-blind
        // comparisons (x > tol is false for NaN) would wave through --
        // regression guard for the !(x <= tol) form in the verifiers.
        for (unsigned i = 0; i < 64; ++i) {
            chip.injectFault(sim::FaultSite::MemDataFlip,
                             runtime::Layout::cohHeapBase + i * 4,
                             0x41200000);
        }
    });
}

} // namespace
