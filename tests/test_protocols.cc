/** @file
 * Protocol behaviour tests: MSI home/client flows (Fig. 6 right),
 * TCMM software coherence semantics (Fig. 6 left), atomics at the L3,
 * and the message-class accounting the figures depend on.
 *
 * Cores 0..7 are in cluster 0; cores 8..15 in cluster 1.
 */

#include <gtest/gtest.h>

#include "protocol_rig.hh"

namespace {

using arch::CoherenceMode;
using arch::MsgClass;
using cache::CohState;
using test::Rig;

sim::CoTask
storeWord(runtime::Ctx ctx, mem::Addr a, std::uint32_t v)
{
    co_await ctx.store32(a, v);
}

sim::CoTask
loadWord(runtime::Ctx ctx, mem::Addr a, std::uint32_t *out)
{
    *out = static_cast<std::uint32_t>(co_await ctx.load32(a));
}

// ---------------------------------------------------------------------
// HWcc (MSI through the directory)
// ---------------------------------------------------------------------

TEST(HWcc, LoadAllocatesSharedEntry)
{
    Rig rig(CoherenceMode::HWccOnly);
    mem::Addr a = rig.rt->malloc(64);
    rig.rt->poke<std::uint32_t>(a, 77);

    std::uint32_t got = 0;
    rig.run1(loadWord(rig.ctx(0), a, &got));
    EXPECT_EQ(got, 77u);

    auto *e = rig.dirEntry(a);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, CohState::Shared);
    EXPECT_TRUE(e->sharers.contains(0));
    auto *line = rig.l2Line(0, a);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->hwState, CohState::Shared);
    EXPECT_FALSE(line->incoherent);
}

TEST(HWcc, StoreTakesModifiedAndInvalidatesSharer)
{
    Rig rig(CoherenceMode::HWccOnly);
    mem::Addr a = rig.rt->malloc(64);

    std::uint32_t got = 0;
    rig.run1(loadWord(rig.ctx(0), a, &got)); // cluster 0 shares
    rig.run1(storeWord(rig.ctx(8), a, 5));   // cluster 1 writes

    auto *e = rig.dirEntry(a);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, CohState::Modified);
    EXPECT_TRUE(e->sharers.contains(1));
    EXPECT_FALSE(e->sharers.contains(0));
    EXPECT_EQ(rig.l2Line(0, a), nullptr); // invalidated by probe
    EXPECT_GE(rig.msg(MsgClass::ProbeResponse), 1u);

    // The new value is visible to the old sharer (pull model).
    rig.run1(loadWord(rig.ctx(0), a, &got));
    EXPECT_EQ(got, 5u);
}

TEST(HWcc, ReadDowngradesModifiedOwner)
{
    Rig rig(CoherenceMode::HWccOnly);
    mem::Addr a = rig.rt->malloc(64);

    rig.run1(storeWord(rig.ctx(0), a, 123)); // cluster 0 owns M
    std::uint32_t got = 0;
    rig.run1(loadWord(rig.ctx(8), a, &got)); // cluster 1 reads
    EXPECT_EQ(got, 123u);

    auto *e = rig.dirEntry(a);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, CohState::Shared);
    EXPECT_TRUE(e->sharers.contains(0));
    EXPECT_TRUE(e->sharers.contains(1));
    // The former owner keeps a clean Shared copy.
    auto *line = rig.l2Line(0, a);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->hwState, CohState::Shared);
    EXPECT_FALSE(line->dirty());
}

TEST(HWcc, UpgradeFromSharedToModified)
{
    Rig rig(CoherenceMode::HWccOnly);
    mem::Addr a = rig.rt->malloc(64);

    std::uint32_t got = 0;
    rig.run1(loadWord(rig.ctx(0), a, &got));
    rig.run1(loadWord(rig.ctx(8), a, &got));
    EXPECT_EQ(rig.dirEntry(a)->sharers.count(), 2u);

    rig.run1(storeWord(rig.ctx(0), a, 9)); // upgrade in place
    auto *e = rig.dirEntry(a);
    EXPECT_EQ(e->state, CohState::Modified);
    EXPECT_EQ(e->sharers.count(), 1u);
    EXPECT_EQ(rig.l2Line(1, a), nullptr);

    rig.run1(loadWord(rig.ctx(8), a, &got));
    EXPECT_EQ(got, 9u);
}

sim::CoTask
touchLines(runtime::Ctx ctx, mem::Addr base, unsigned count,
           std::uint32_t stride)
{
    for (unsigned i = 0; i < count; ++i)
        co_await ctx.load32(base + i * stride);
}

TEST(HWcc, CleanEvictionSendsReadRelease)
{
    Rig rig(CoherenceMode::HWccOnly);
    // Walk more aliasing lines than the L2 has ways: stride by L2
    // size so all land in one set (64 KB, 16-way).
    mem::Addr base = rig.rt->malloc(32 * 64 * 1024);
    rig.run1(touchLines(rig.ctx(0), base, 20, 64 * 1024));

    EXPECT_GE(rig.msg(MsgClass::ReadRelease), 4u);
    // Released lines lose their directory entries (sharer count 0).
    EXPECT_LT(rig.totalDirEntries(), 20u);
}

TEST(HWcc, DirtyEvictionWritesBack)
{
    Rig rig(CoherenceMode::HWccOnly);
    mem::Addr base = rig.rt->malloc(32 * 64 * 1024);

    // Dirty many aliasing lines, forcing M evictions.
    std::vector<sim::CoTask> v;
    v.push_back([](runtime::Ctx ctx, mem::Addr b) -> sim::CoTask {
        for (unsigned i = 0; i < 20; ++i)
            co_await ctx.store32(b + i * 64 * 1024, 1000 + i);
    }(rig.ctx(0), base));
    rig.run(std::move(v));

    EXPECT_GE(rig.msg(MsgClass::CacheEviction), 4u);
    // All values retrievable (write-backs merged at the L3).
    for (unsigned i = 0; i < 20; ++i)
        EXPECT_EQ(rig.chip->coherentRead32(base + i * 64 * 1024),
                  1000 + i);
}

// ---------------------------------------------------------------------
// SWcc (Task-Centric Memory Model)
// ---------------------------------------------------------------------

TEST(SWcc, FillsAreIncoherent)
{
    Rig rig(CoherenceMode::SWccOnly);
    mem::Addr a = rig.rt->cohMalloc(64);
    rig.rt->poke<std::uint32_t>(a, 3);

    std::uint32_t got = 0;
    rig.run1(loadWord(rig.ctx(0), a, &got));
    EXPECT_EQ(got, 3u);
    auto *line = rig.l2Line(0, a);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->incoherent);
    EXPECT_EQ(rig.totalDirEntries(), 0u);
}

TEST(SWcc, StaleReadWithoutInvalidate)
{
    Rig rig(CoherenceMode::SWccOnly);
    mem::Addr a = rig.rt->cohMalloc(64);
    rig.rt->poke<std::uint32_t>(a, 1);

    std::uint32_t got = 0;
    rig.run1(loadWord(rig.ctx(8), a, &got)); // cluster 1 caches 1
    EXPECT_EQ(got, 1u);

    // Cluster 0 writes and flushes; cluster 1 reads *without* inv:
    // stale data is architecturally visible (push model).
    rig.run1([](runtime::Ctx ctx, mem::Addr addr) -> sim::CoTask {
        co_await ctx.store32(addr, 2);
        co_await ctx.core().flushLine(addr);
        co_await ctx.drain();
    }(rig.ctx(0), a));

    rig.run1(loadWord(rig.ctx(8), a, &got));
    EXPECT_EQ(got, 1u) << "expected stale value without invalidate";

    // After an explicit invalidate the fresh value is fetched.
    rig.run1([](runtime::Ctx ctx, mem::Addr addr,
                std::uint32_t *out) -> sim::CoTask {
        co_await ctx.core().invLine(addr);
        *out = static_cast<std::uint32_t>(co_await ctx.load32(addr));
    }(rig.ctx(8), a, &got));
    EXPECT_EQ(got, 2u);
}

TEST(SWcc, WriteAllocateDoesNotBlockOrFetchOwnership)
{
    Rig rig(CoherenceMode::SWccOnly);
    mem::Addr a = rig.rt->cohMalloc(64);

    rig.run1(storeWord(rig.ctx(0), a, 42));
    auto *line = rig.l2Line(0, a);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->incoherent);
    EXPECT_TRUE(line->dirty());
    EXPECT_EQ(rig.totalDirEntries(), 0u);
    // Store misses still issue a background fill (write request).
    EXPECT_EQ(rig.msg(MsgClass::WriteRequest), 1u);
}

TEST(SWcc, PerWordMergeOfDisjointWriters)
{
    Rig rig(CoherenceMode::SWccOnly);
    mem::Addr a = rig.rt->cohMalloc(64);

    std::vector<sim::CoTask> v;
    v.push_back([](runtime::Ctx ctx, mem::Addr addr) -> sim::CoTask {
        co_await ctx.store32(addr, 0xAAAA);
        co_await ctx.core().flushLine(addr);
        co_await ctx.drain();
    }(rig.ctx(0), a));
    v.push_back([](runtime::Ctx ctx, mem::Addr addr) -> sim::CoTask {
        co_await ctx.store32(addr + 4, 0xBBBB);
        co_await ctx.core().flushLine(addr + 4);
        co_await ctx.drain();
    }(rig.ctx(8), a));
    rig.run(std::move(v));

    // Both words merged at the L3 despite two concurrent writers.
    EXPECT_EQ(rig.chip->coherentRead32(a), 0xAAAAu);
    EXPECT_EQ(rig.chip->coherentRead32(a + 4), 0xBBBBu);
}

TEST(SWcc, CleanEvictionsAreSilent)
{
    Rig rig(CoherenceMode::SWccOnly);
    mem::Addr base = rig.rt->cohMalloc(32 * 64 * 1024);
    rig.run1(touchLines(rig.ctx(0), base, 20, 64 * 1024));
    EXPECT_EQ(rig.msg(MsgClass::ReadRelease), 0u);
    EXPECT_EQ(rig.msg(MsgClass::CacheEviction), 0u);
}

TEST(SWcc, UsefulnessCountersMatchFig3Semantics)
{
    Rig rig(CoherenceMode::SWccOnly);
    mem::Addr a = rig.rt->cohMalloc(128);

    rig.run1([](runtime::Ctx ctx, mem::Addr addr) -> sim::CoTask {
        co_await ctx.store32(addr, 1);
        co_await ctx.core().flushLine(addr);      // useful (present)
        co_await ctx.core().flushLine(addr + 64); // wasted (absent)
        co_await ctx.core().invLine(addr);        // useful
        co_await ctx.core().invLine(addr);        // wasted (now gone)
        co_await ctx.drain();
    }(rig.ctx(0), a));

    auto &cl = rig.chip->cluster(0);
    EXPECT_EQ(cl.flushesIssued(), 2u);
    EXPECT_EQ(cl.flushesUseful(), 1u);
    EXPECT_EQ(cl.invsIssued(), 2u);
    EXPECT_EQ(cl.invsUseful(), 1u);
    EXPECT_EQ(rig.msg(MsgClass::SoftwareFlush), 1u);
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

TEST(Atomics, SemanticsAtTheL3)
{
    Rig rig(CoherenceMode::HWccOnly);
    mem::Addr a = rig.rt->malloc(64);
    rig.rt->poke<std::uint32_t>(a, 10);

    std::uint32_t old_add = 0, old_cas_fail = 0, old_cas_ok = 0;
    rig.run1([&](runtime::Ctx ctx) -> sim::CoTask {
        old_add = static_cast<std::uint32_t>(
            co_await ctx.atomicAdd(a, 5));
        old_cas_fail = static_cast<std::uint32_t>(
            co_await ctx.atomicCas(a, 99, 1));
        old_cas_ok = static_cast<std::uint32_t>(
            co_await ctx.atomicCas(a, 15, 100));
    }(rig.ctx(0)));

    EXPECT_EQ(old_add, 10u);
    EXPECT_EQ(old_cas_fail, 15u); // no swap: expected 99
    EXPECT_EQ(old_cas_ok, 15u);
    EXPECT_EQ(rig.chip->coherentRead32(a), 100u);
    EXPECT_EQ(rig.msg(MsgClass::UncachedAtomic), 3u);
}

TEST(Atomics, FloatAddAccumulates)
{
    Rig rig(CoherenceMode::SWccOnly);
    mem::Addr a = rig.rt->cohMalloc(64);
    rig.rt->poke<float>(a, 0.0f);

    std::vector<sim::CoTask> v;
    for (unsigned c : {0u, 8u}) {
        v.push_back([](runtime::Ctx ctx, mem::Addr addr) -> sim::CoTask {
            for (int i = 0; i < 10; ++i)
                co_await ctx.atomicAddF32(addr, 1.5f);
        }(rig.ctx(c), a));
    }
    rig.run(std::move(v));
    float got;
    std::uint32_t bits = rig.chip->coherentRead32(a);
    std::memcpy(&got, &bits, 4);
    EXPECT_FLOAT_EQ(got, 30.0f);
}

TEST(Atomics, RecallModifiedLineBeforeRmw)
{
    Rig rig(CoherenceMode::HWccOnly);
    mem::Addr a = rig.rt->malloc(64);

    rig.run1(storeWord(rig.ctx(0), a, 7)); // cluster 0 M
    std::uint32_t old = 0;
    rig.run1([&](runtime::Ctx ctx) -> sim::CoTask {
        old = static_cast<std::uint32_t>(co_await ctx.atomicAdd(a, 1));
    }(rig.ctx(8)));
    EXPECT_EQ(old, 7u); // dirty data was recalled first

    std::uint32_t got = 0;
    rig.run1(loadWord(rig.ctx(0), a, &got));
    EXPECT_EQ(got, 8u);
}

// ---------------------------------------------------------------------
// Cohesion domains (static)
// ---------------------------------------------------------------------

TEST(Cohesion, CoherentHeapIsHWccByDefault)
{
    Rig rig(CoherenceMode::Cohesion);
    mem::Addr a = rig.rt->malloc(64);
    std::uint32_t got = 0;
    rig.run1(loadWord(rig.ctx(0), a, &got));
    ASSERT_NE(rig.dirEntry(a), nullptr);
    EXPECT_FALSE(rig.l2Line(0, a)->incoherent);
}

TEST(Cohesion, IncoherentHeapStartsSWcc)
{
    Rig rig(CoherenceMode::Cohesion);
    mem::Addr a = rig.rt->cohMalloc(64);
    std::uint32_t got = 0;
    rig.run1(loadWord(rig.ctx(0), a, &got));
    EXPECT_EQ(rig.dirEntry(a), nullptr);
    EXPECT_TRUE(rig.l2Line(0, a)->incoherent);
    // The miss needed a fine-grain table lookup at the bank.
    std::uint64_t lookups = 0;
    for (unsigned b = 0; b < rig.chip->numBanks(); ++b)
        lookups += rig.chip->bank(b).tableLookups();
    EXPECT_GE(lookups, 1u);
}

TEST(Cohesion, CoarseRegionsBypassDirectoryWithoutTableLookup)
{
    Rig rig(CoherenceMode::Cohesion);
    // Stack addresses are coarse-table SWcc.
    mem::Addr a = runtime::Layout::stackFor(0);
    rig.run1(storeWord(rig.ctx(0), a, 5));
    EXPECT_EQ(rig.dirEntry(a), nullptr);
    auto *line = rig.l2Line(0, a);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->incoherent);
}

TEST(Cohesion, HWccOnlyTracksStacksInDirectory)
{
    Rig rig(CoherenceMode::HWccOnly);
    mem::Addr a = runtime::Layout::stackFor(0);
    rig.run1(storeWord(rig.ctx(0), a, 5));
    EXPECT_NE(rig.dirEntry(a), nullptr);
}

// ---------------------------------------------------------------------
// Dir4B limited directory
// ---------------------------------------------------------------------

TEST(Dir4B, OverflowBroadcastsButStaysCorrect)
{
    coherence::DirectoryConfig dir =
        coherence::DirectoryConfig::optimistic();
    dir.sharerKind = coherence::SharerKind::LimitedPtr;
    Rig rig(CoherenceMode::HWccOnly, dir, 6); // 6 clusters > 4 pointers

    mem::Addr a = rig.rt->malloc(64);
    rig.rt->poke<std::uint32_t>(a, 11);

    std::vector<sim::CoTask> v;
    std::uint32_t got[6] = {};
    for (unsigned c = 0; c < 6; ++c)
        v.push_back(loadWord(rig.ctx(c * 8), a, &got[c]));
    rig.run(std::move(v));
    for (unsigned c = 0; c < 6; ++c)
        EXPECT_EQ(got[c], 11u);

    auto *e = rig.dirEntry(a);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->sharers.broadcast());

    // A write must reach everyone via broadcast invalidation.
    rig.run1(storeWord(rig.ctx(0), a, 12));
    for (unsigned c = 1; c < 6; ++c)
        EXPECT_EQ(rig.l2Line(c, a), nullptr);
    std::uint32_t fresh = 0;
    rig.run1(loadWord(rig.ctx(40), a, &fresh));
    EXPECT_EQ(fresh, 12u);
}

// ---------------------------------------------------------------------
// Directory capacity
// ---------------------------------------------------------------------

TEST(DirectoryCapacity, EvictionsInvalidateSharersButPreserveData)
{
    Rig rig(CoherenceMode::HWccOnly,
            coherence::DirectoryConfig::fullyAssociative(8));
    mem::Addr base = rig.rt->malloc(256 * mem::lineBytes);

    rig.run1([](runtime::Ctx ctx, mem::Addr b) -> sim::CoTask {
        for (unsigned i = 0; i < 64; ++i)
            co_await ctx.store32(b + i * mem::lineBytes, i + 1);
    }(rig.ctx(0), base));

    std::uint64_t evictions = 0;
    for (unsigned b = 0; b < rig.chip->numBanks(); ++b)
        evictions += rig.chip->bank(b).dirEvictions();
    EXPECT_GT(evictions, 0u);

    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(rig.chip->coherentRead32(base + i * mem::lineBytes),
                  i + 1);
}

// ---------------------------------------------------------------------
// Verification reads (newest visible copy)
// ---------------------------------------------------------------------

/** Install @p base's line in an empty @p arr (test-built state). */
cache::Line &
installLine(cache::CacheArray &arr, mem::Addr base)
{
    cache::Line &l = arr.victim(base);
    arr.claim(l, base);
    return l;
}

TEST(CoherentRead, RangedReadResolvesEveryWordLikeTheOneWordRead)
{
    Rig rig(CoherenceMode::SWccOnly, coherence::DirectoryConfig::optimistic(),
            4);
    arch::Chip &chip = *rig.chip;
    const mem::Addr base = rig.rt->cohMalloc(4 * mem::lineBytes);
    auto word = [&](unsigned line, unsigned w) {
        return base + line * mem::lineBytes + w * mem::wordBytes;
    };
    for (unsigned i = 0; i < 3 * mem::wordsPerLine; ++i)
        chip.debugWriteT<std::uint32_t>(base + i * 4, 0x1000 + i);
    auto l2 = [&](unsigned cl, unsigned line) -> cache::Line & {
        return installLine(chip.cluster(cl).l2(), word(line, 0));
    };
    auto put = [](cache::Line &l, mem::Addr a, std::uint32_t v) {
        l.write(a, &v, 4); // valid + dirty
    };
    std::array<std::uint8_t, mem::lineBytes> img{};
    img.fill(0xEE);

    // Line 0, word 3: dirty in clusters 1 and 3, clean in cluster 0;
    // the lowest-numbered dirty holder wins.
    cache::Line &c0 = l2(0, 0);
    c0.fill(img.data(), mem::fullMask);
    put(l2(1, 0), word(0, 3), 0xA1);
    cache::Line &c3 = l2(3, 0);
    put(c3, word(0, 3), 0xA3);
    // Word 4: dirty but not valid in cluster 3's L2 (skipped), valid in
    // the L3. Word 5: only in the L3. Word 6: the L3 line holds it
    // invalid, so memory answers.
    c3.dirtyMask |= mem::wordBit(word(0, 4));
    cache::CacheArray &l3 = chip.bank(chip.map().bankOf(base)).l3();
    cache::Line &b0 = installLine(l3, word(0, 0));
    std::array<std::uint8_t, mem::lineBytes> l3img{};
    l3img.fill(0xC0);
    b0.fill(l3img.data(), mem::WordMask(mem::wordBit(word(0, 4)) |
                                        mem::wordBit(word(0, 5))));
    // Line 1 is nowhere but memory. Line 2: word 0 dirty in cluster 3
    // only, word 1 dirty in clusters 0 and 2.
    put(l2(3, 2), word(2, 0), 0xB3);
    put(l2(0, 2), word(2, 1), 0xB0);
    put(l2(2, 2), word(2, 1), 0xB2);

    // From word 3 of line 0 through word 4 of line 2.
    const mem::Addr start = word(0, 3);
    const std::size_t n = 5 + 8 + 5;
    std::vector<std::uint32_t> got(n);
    chip.coherentRead(start, got.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], chip.coherentRead32(start + i * 4)) << i;
    EXPECT_EQ(got[0], 0xA1u);        // lowest dirty cluster
    EXPECT_EQ(got[1], 0xC0C0C0C0u);  // dirty-invalid L2 word skipped
    EXPECT_EQ(got[2], 0xC0C0C0C0u);  // L3 only
    EXPECT_EQ(got[3], 0x1000u + 6);  // L3 word invalid: memory
    EXPECT_EQ(got[4], 0x1000u + 7);  // clean L2 copy is not newest
    for (unsigned w = 0; w < mem::wordsPerLine; ++w)
        EXPECT_EQ(got[5 + w], 0x1000u + 8 + w); // line 1: memory
    EXPECT_EQ(got[13], 0xB3u);
    EXPECT_EQ(got[14], 0xB0u);
    EXPECT_EQ(got[15], 0x1000u + 18);

    // The targeted mem.data.flip corrupts exactly the word the ranged
    // read returns, wherever that copy lives.
    for (std::size_t i = 0; i < n; ++i) {
        chip.injectFault(sim::FaultSite::MemDataFlip, start + i * 4, 0x80);
        std::uint32_t after = 0;
        chip.coherentRead(start + i * 4, &after, 1);
        EXPECT_EQ(after, got[i] ^ 0x80u) << i;
    }
}

} // namespace
