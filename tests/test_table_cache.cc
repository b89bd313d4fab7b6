/** @file
 * Fine-grain table cache (Section 3.4's optional on-die caching):
 * unit behaviour plus integration — identical protocol outcomes with
 * and without the cache, correct hit accounting, and correctness
 * under live transitions (in-place update at the home bank).
 */

#include <gtest/gtest.h>

#include "cohesion/table_cache.hh"
#include "protocol_rig.hh"
#include "sim/random.hh"

namespace {

using arch::CoherenceMode;
using cohesion::TableCache;

TEST(TableCache, DisabledByZeroEntries)
{
    TableCache c(0);
    EXPECT_FALSE(c.enabled());
    EXPECT_FALSE(c.lookup(0x1000).has_value());
    c.fill(0x1000, 7); // no-op
    EXPECT_FALSE(c.lookup(0x1000).has_value());
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
}

TEST(TableCache, FillThenHit)
{
    TableCache c(64);
    EXPECT_FALSE(c.lookup(0xF0000040).has_value());
    c.fill(0xF0000040, 0xABCD);
    auto v = c.lookup(0xF0000040);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 0xABCDu);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(TableCache, DirectMappedConflictEvicts)
{
    TableCache c(4); // words conflict when (addr>>2) mod 4 collide
    c.fill(0xF0000000, 1);
    c.fill(0xF0000010, 2); // same slot (4 words apart)
    EXPECT_FALSE(c.lookup(0xF0000000).has_value());
    EXPECT_EQ(*c.lookup(0xF0000010), 2u);
}

TEST(TableCache, UpdateOnlyTouchesPresentWords)
{
    TableCache c(16);
    c.update(0xF0000000, 9); // absent: ignored
    EXPECT_FALSE(c.lookup(0xF0000000).has_value());
    c.fill(0xF0000000, 1);
    c.update(0xF0000000, 9);
    EXPECT_EQ(*c.lookup(0xF0000000), 9u);
}

TEST(TableCache, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(TableCache(33), std::runtime_error);
}

// ---------------------------------------------------------------------
// Integration
// ---------------------------------------------------------------------

sim::CoTask
touchAndTransition(runtime::Ctx ctx, mem::Addr a)
{
    // Miss (fine lookup) -> transition -> miss again: the cache must
    // follow the committed bit.
    co_await ctx.store32(a, 5);
    co_await ctx.core().flushLine(a);
    co_await ctx.drain();
    co_await ctx.core().invLine(a);
    co_await ctx.toHWcc(a, mem::lineBytes);
    co_await ctx.load32(a);
}

TEST(TableCacheIntegration, DomainsFollowTransitions)
{
    // A machine with the table cache enabled.
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.mode = CoherenceMode::Cohesion;
    cfg.tableCacheEntries = 128;
    arch::Chip chip(cfg, runtime::Layout::tableBase);
    runtime::CohesionRuntime rt(chip);

    mem::Addr a = rt.cohMalloc(64);
    auto t = touchAndTransition(runtime::Ctx(rt, chip.core(0)), a);
    t.start();
    chip.runUntilQuiescent();
    t.rethrow();
    ASSERT_TRUE(t.done());

    // After toHWcc + load, the line must be HWcc-tracked.
    auto *e = chip.bank(chip.map().bankOf(a)).directory().find(a);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(chip.coherentRead32(a), 5u);

    std::uint64_t hits = 0;
    for (unsigned b = 0; b < chip.numBanks(); ++b)
        hits += chip.bank(b).tableCache().hits();
    EXPECT_GE(hits, 1u);
}

TEST(TableCacheIntegration, SameResultsWithAndWithoutCache)
{
    auto run = [](std::uint32_t cache_entries) {
        arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
        cfg.mode = CoherenceMode::Cohesion;
        cfg.tableCacheEntries = cache_entries;
        arch::Chip chip(cfg, runtime::Layout::tableBase);
        runtime::CohesionRuntime rt(chip);

        // Race-free: each core owns a disjoint slice, so the final
        // memory image is timing-independent and must be identical
        // regardless of table-cache configuration.
        mem::Addr buf = rt.cohMalloc(chip.totalCores() * 256);
        std::vector<sim::CoTask> v;
        for (unsigned c = 0; c < chip.totalCores(); ++c) {
            v.push_back([](runtime::Ctx ctx, mem::Addr b) -> sim::CoTask {
                mem::Addr mine = b + ctx.coreId() * 256;
                sim::Rng rng(ctx.coreId() + 5);
                for (int i = 0; i < 150; ++i) {
                    mem::Addr w = mine + rng.below(64) * 4;
                    if (rng.below(2))
                        co_await ctx.store32(
                            w, (ctx.coreId() << 16) | i);
                    else
                        co_await ctx.load32(w);
                }
                co_await ctx.drain();
            }(runtime::Ctx(rt, chip.core(c)), buf));
        }
        for (auto &t : v)
            t.start();
        chip.runUntilQuiescent();
        for (auto &t : v)
            t.rethrow();

        std::uint64_t checksum = 0;
        for (mem::Addr a = buf; a < buf + chip.totalCores() * 256;
             a += 4)
            checksum = checksum * 31 + chip.coherentRead32(a);
        return checksum;
    };
    // Functional results are identical; only timing differs.
    EXPECT_EQ(run(0), run(256));
}

} // namespace
