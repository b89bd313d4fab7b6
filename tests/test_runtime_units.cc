/** @file Heap allocator, region tables, stats, and RNG unit tests. */

#include <gtest/gtest.h>

#include "cohesion/region_table.hh"
#include "runtime/heap.hh"
#include "runtime/layout.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace {

TEST(Heap, AllocatesLineAlignedAndRounded)
{
    runtime::Heap h("t", 0x1000, 0x1000);
    mem::Addr a = h.alloc(10);
    EXPECT_EQ(a % mem::lineBytes, 0u);
    mem::Addr b = h.alloc(33);
    EXPECT_EQ(b, a + mem::lineBytes);       // 10 -> one line
    EXPECT_EQ(h.alloc(1), b + 2 * mem::lineBytes); // 33 -> two lines
}

TEST(Heap, MinimumAllocationGranule)
{
    runtime::Heap h("inc", 0x1000, 0x1000, 64);
    mem::Addr a = h.alloc(4);
    mem::Addr b = h.alloc(4);
    EXPECT_EQ(b - a, 64u); // paper: 64-byte minimum on incoherent heap
}

TEST(Heap, FreeAndCoalesce)
{
    runtime::Heap h("t", 0x1000, 0x1000);
    mem::Addr a = h.alloc(32);
    mem::Addr b = h.alloc(32);
    mem::Addr c = h.alloc(32);
    h.free(a);
    h.free(c);
    h.free(b); // coalesces with both neighbours
    mem::Addr big = h.alloc(96);
    EXPECT_EQ(big, a);
}

TEST(Heap, DoubleFreeAndOomAreFatal)
{
    runtime::Heap h("t", 0x1000, 0x80);
    mem::Addr a = h.alloc(32);
    h.free(a);
    EXPECT_THROW(h.free(a), std::runtime_error);
    h.alloc(128);
    EXPECT_THROW(h.alloc(32), std::runtime_error);
}

TEST(Heap, TracksLiveAndPeak)
{
    runtime::Heap h("t", 0x1000, 0x1000);
    mem::Addr a = h.alloc(64);
    h.alloc(64);
    EXPECT_EQ(h.bytesLive(), 128u);
    h.free(a);
    EXPECT_EQ(h.bytesLive(), 64u);
    EXPECT_EQ(h.peakBytes(), 128u);
    EXPECT_EQ(h.allocations(), 1u);
}

TEST(CoarseRegionTable, ContainsAndKinds)
{
    cohesion::CoarseRegionTable t;
    t.add(0x1000, 0x1000, cohesion::RegionKind::Code);
    t.add(0x8000, 0x100, cohesion::RegionKind::Stack);
    EXPECT_TRUE(t.contains(0x1000));
    EXPECT_TRUE(t.contains(0x1FFF));
    EXPECT_FALSE(t.contains(0x2000));
    EXPECT_TRUE(t.contains(0x80FF));
    EXPECT_EQ(t.regions().size(), 2u);
    EXPECT_THROW(t.add(0x1001, 4, cohesion::RegionKind::Other),
                 std::runtime_error);
}

TEST(FineTable, PokePeekRoundTrip)
{
    mem::BackingStore store;
    mem::AddressMap map(8, 2, 0xF000'0000);
    mem::Addr a = 0x6000'0040;
    EXPECT_FALSE(cohesion::fine_table::peekBit(store, map, a));
    cohesion::fine_table::pokeBit(store, map, a, true);
    EXPECT_TRUE(cohesion::fine_table::peekBit(store, map, a));
    // Neighbouring lines are unaffected.
    EXPECT_FALSE(cohesion::fine_table::peekBit(store, map, a + 32));
    EXPECT_FALSE(cohesion::fine_table::peekBit(store, map, a - 32));
    cohesion::fine_table::pokeBit(store, map, a, false);
    EXPECT_FALSE(cohesion::fine_table::peekBit(store, map, a));
}

TEST(FineTable, PokeRegionCoversExactly)
{
    mem::BackingStore store, oracle;
    mem::AddressMap map(8, 2, 0xF000'0000);
    // pokeRegion writes one table word per 1 KB block; the reference
    // writes one pokeBit per covered line.
    auto poke = [&](mem::Addr start, mem::Addr end, bool swcc) {
        cohesion::fine_table::pokeRegion(store, map, start, end - start,
                                         swcc);
        for (mem::Addr a = mem::lineBase(start); a < end;
             a += mem::lineBytes)
            cohesion::fine_table::pokeBit(oracle, map, a, swcc);
    };
    auto bit = [&](mem::Addr a) {
        return cohesion::fine_table::peekBit(store, map, a);
    };

    poke(0x6000'0000, 0x6000'1000, true);
    EXPECT_TRUE(bit(0x6000'0000));
    EXPECT_TRUE(bit(0x6000'0FE0));
    EXPECT_FALSE(bit(0x6000'1000));
    EXPECT_FALSE(bit(0x5FFF'FFE0));

    constexpr mem::Addr kBlock = 1024;
    const mem::Addr base = 0x6000'4000; // block aligned
    // Mid-line start in block 0 to a mid-block end in block 4.
    poke(base + 3 * 32 + 12, base + 4 * kBlock + 17 * 32 + 5, true);
    // A clear inside the now fully set block 2.
    poke(base + 2 * kBlock + 5 * 32 + 20, base + 2 * kBlock + 14 * 32 + 8,
         false);
    // A few lines in the interior of an untouched block.
    poke(base + 8 * kBlock + 7 * 32, base + 8 * kBlock + 10 * 32, true);

    for (mem::Addr blk = 0x6000'0000 - kBlock; blk < base + 10 * kBlock;
         blk += kBlock) {
        mem::Addr w = map.tableWordAddr(blk);
        EXPECT_EQ(store.readT<std::uint32_t>(w),
                  oracle.readT<std::uint32_t>(w))
            << "block 0x" << std::hex << blk;
    }
    // Neighbours of every edge keep their bits.
    EXPECT_FALSE(bit(base + 2 * 32));
    EXPECT_TRUE(bit(base + 3 * 32));
    EXPECT_TRUE(bit(base + 4 * kBlock + 17 * 32));
    EXPECT_FALSE(bit(base + 4 * kBlock + 18 * 32));
    EXPECT_TRUE(bit(base + 2 * kBlock + 4 * 32));
    EXPECT_FALSE(bit(base + 2 * kBlock + 5 * 32));
    EXPECT_FALSE(bit(base + 2 * kBlock + 14 * 32));
    EXPECT_TRUE(bit(base + 2 * kBlock + 15 * 32));
    EXPECT_FALSE(bit(base + 8 * kBlock + 6 * 32));
    EXPECT_TRUE(bit(base + 8 * kBlock + 9 * 32));
    EXPECT_FALSE(bit(base + 8 * kBlock + 10 * 32));
}

TEST(Layout, SegmentClassification)
{
    using runtime::Layout;
    EXPECT_EQ(Layout::classify(Layout::codeBase + 4),
              arch::Segment::Code);
    EXPECT_EQ(Layout::classify(Layout::stackFor(3)),
              arch::Segment::Stack);
    EXPECT_EQ(Layout::classify(Layout::cohHeapBase),
              arch::Segment::HeapGlobal);
    EXPECT_EQ(Layout::classify(Layout::incHeapBase + 100),
              arch::Segment::HeapGlobal);
}

TEST(Stats, CounterAndDistribution)
{
    sim::Counter c;
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);

    sim::Distribution d;
    d.sample(3);
    d.sample(1);
    d.sample(5);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.min(), 1);
    EXPECT_DOUBLE_EQ(d.max(), 5);
    EXPECT_DOUBLE_EQ(d.mean(), 3);
}

TEST(Stats, TimeSamplerAveragesAndMax)
{
    sim::TimeSampler s(1000);
    s.sample(10);
    s.sample(20);
    s.sample(30);
    EXPECT_DOUBLE_EQ(s.timeAverage(), 20);
    EXPECT_DOUBLE_EQ(s.maximum(), 30);
    EXPECT_EQ(s.samples(), 3u);
}

TEST(Stats, StatSetMerge)
{
    sim::StatSet a, b;
    a.set("x", 1);
    b.set("x", 2);
    b.set("y", 5);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3);
    EXPECT_DOUBLE_EQ(a.get("y"), 5);
    EXPECT_DOUBLE_EQ(a.get("z"), 0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    sim::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangesAreBounded)
{
    sim::Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(10), 10u);
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        double x = r.range(-2.0, 3.0);
        EXPECT_GE(x, -2.0);
        EXPECT_LT(x, 3.0);
    }
}

} // namespace
