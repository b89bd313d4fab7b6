/**
 * @file
 * google-benchmark microbenchmarks for the simulator's building
 * blocks: event queue throughput, cache array probes/fills, directory
 * organizations (infinite vs sparse vs fully associative), the
 * per-message bookkeeping tables (MSHRs, line locks), sharer-set
 * operations, DRAM channel accesses, the tbloff hash, and end-to-end
 * simulated-cycles-per-host-second for a small kernel. Times are
 * ns per iteration.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "arch/await.hh"
#include "arch/cluster.hh"
#include "cache/cache_array.hh"
#include "coherence/directory.hh"
#include "harness/runner.hh"
#include "kernels/registry.hh"
#include "mem/address_map.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(i, [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_CacheProbeHit(benchmark::State &state)
{
    cache::CacheArray c("bench", 64 * 1024, 16);
    for (mem::Addr a = 0; a < 64 * 1024; a += mem::lineBytes) {
        cache::Line &v = c.victim(a);
        c.claim(v, a);
    }
    sim::Rng rng(1);
    for (auto _ : state) {
        mem::Addr a = (rng.next() % (64 * 1024)) & ~31u;
        benchmark::DoNotOptimize(c.probe(a));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbeHit);

void
BM_CacheFillEvict(benchmark::State &state)
{
    cache::CacheArray c("bench", 8 * 1024, 4);
    std::uint8_t image[mem::lineBytes] = {};
    mem::Addr a = 0;
    for (auto _ : state) {
        cache::Line &v = c.victim(a);
        if (v.valid)
            v.reset();
        c.claim(v, a);
        v.fill(image, mem::fullMask);
        a += mem::lineBytes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheFillEvict);

void
BM_DirectoryInsertEraseInfinite(benchmark::State &state)
{
    coherence::Directory d(coherence::DirectoryConfig::optimistic(), 128);
    mem::Addr a = 0;
    for (auto _ : state) {
        d.insert(a).sharers.add(3);
        d.erase(a);
        a += mem::lineBytes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryInsertEraseInfinite);

void
BM_DirectorySparseLookup(benchmark::State &state)
{
    coherence::Directory d(
        coherence::DirectoryConfig::sparseRealistic(), 128);
    for (mem::Addr a = 0; a < 8192 * mem::lineBytes; a += mem::lineBytes)
        d.insert(a);
    sim::Rng rng(2);
    for (auto _ : state) {
        mem::Addr a =
            (rng.next() % 8192) * mem::lineBytes;
        benchmark::DoNotOptimize(d.find(a));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectorySparseLookup);

/** Fig. 9A's 512-entry fully-associative directory, full: each
 *  iteration finds a resident line, evicts the LRU entry and installs
 *  a new one (one find + erase + insert). */
void
BM_DirectoryFa512Churn(benchmark::State &state)
{
    coherence::Directory d(
        coherence::DirectoryConfig::fullyAssociative(512), 128);
    mem::Addr next = 0;
    for (; next < 512 * mem::lineBytes; next += mem::lineBytes)
        d.insert(next);
    sim::Rng rng(5);
    for (auto _ : state) {
        mem::Addr hit = next - (1 + rng.next() % 512) * mem::lineBytes;
        benchmark::DoNotOptimize(d.find(hit));
        d.erase(d.victim(next).base);
        d.insert(next).sharers.add(3);
        next += mem::lineBytes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryFa512Churn);

/** A cluster's MSHRs with 16 misses in flight: each iteration opens
 *  one (with a waiter), looks it up, and retires the oldest into the
 *  fill's scratch list. */
void
BM_MshrOpenFindRetire(benchmark::State &state)
{
    arch::MshrTable mshrs;
    std::vector<arch::MshrTable::Waiter> scratch;
    const arch::MshrTable::Waiter w{nullptr, false, 0, 4, 0};
    mem::Addr next = 0;
    for (; next < 16 * mem::lineBytes; next += mem::lineBytes)
        mshrs.open(next, arch::ReqType::Read).waiters.push_back(w);
    mem::Addr oldest = 0;
    for (auto _ : state) {
        mshrs.open(next, arch::ReqType::Read).waiters.push_back(w);
        benchmark::DoNotOptimize(mshrs.find(next));
        mshrs.retire(oldest, scratch);
        scratch.clear();
        next += mem::lineBytes;
        oldest += mem::lineBytes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MshrOpenFindRetire);

/** A bank's line locks with 16 lines held: each iteration takes a
 *  free line (the uncontended await path) and releases it. */
void
BM_LineLockAcquireRelease(benchmark::State &state)
{
    sim::EventQueue eq;
    arch::LineLockTable locks(eq);
    for (std::uint32_t l = 0; l < 16; ++l)
        locks.acquire((1u << 20) | l).await_resume();
    std::uint32_t line = 0;
    for (auto _ : state) {
        auto acq = locks.acquire(line);
        if (acq.await_ready())
            acq.await_resume();
        locks.release(line);
        line = (line + 1) & 1023;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineLockAcquireRelease);

void
BM_SharerSetFullMap(benchmark::State &state)
{
    for (auto _ : state) {
        coherence::SharerSet s(coherence::SharerKind::FullMap, 128);
        for (unsigned i = 0; i < 128; i += 3)
            s.add(i);
        benchmark::DoNotOptimize(s.probeTargets());
    }
}
BENCHMARK(BM_SharerSetFullMap);

void
BM_DramChannel(benchmark::State &state)
{
    mem::DramTiming t;
    mem::DramChannel ch(t);
    sim::Rng rng(3);
    sim::Tick now = 0;
    for (auto _ : state) {
        now = ch.access(rng.next() % 16, rng.next() % 1024, false, now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramChannel);

void
BM_TblOffHash(benchmark::State &state)
{
    mem::AddressMap map(32, 8, 0xF000'0000);
    sim::Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            map.tableWordAddr(static_cast<mem::Addr>(rng.next())));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TblOffHash);

/** End-to-end: simulated cycles per host second on a small machine. */
void
BM_SimulateHeat(benchmark::State &state)
{
    for (auto _ : state) {
        arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
        cfg.mode = arch::CoherenceMode::Cohesion;
        kernels::Params params;
        harness::RunResult r = harness::runKernel(
            cfg, kernels::kernelFactory("heat"), params);
        state.counters["sim_cycles"] = static_cast<double>(r.cycles);
        state.counters["sim_instructions"] =
            static_cast<double>(r.instructions);
    }
}
BENCHMARK(BM_SimulateHeat)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
