/** @file Sharer sets (full-map and Dir4B), directory organizations,
 *  and the Section 4.4 area model. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "coherence/area_model.hh"
#include "coherence/directory.hh"
#include "coherence/sharer_set.hh"

namespace {

using coherence::Directory;
using coherence::DirectoryConfig;
using coherence::SharerKind;
using coherence::SharerSet;

TEST(SharerSet, FullMapExactTracking)
{
    SharerSet s(SharerKind::FullMap, 128);
    EXPECT_TRUE(s.empty());
    s.add(5);
    s.add(90);
    s.add(5); // idempotent
    EXPECT_EQ(s.count(), 2u);
    EXPECT_TRUE(s.contains(5));
    EXPECT_TRUE(s.contains(90));
    EXPECT_FALSE(s.contains(6));
    EXPECT_EQ(s.probeTargets(), (std::vector<unsigned>{5, 90}));
    s.remove(5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.soleSharer(), 90u);
}

TEST(SharerSet, LimitedPointersWithinCapacity)
{
    SharerSet s(SharerKind::LimitedPtr, 128, 4);
    for (unsigned id : {3u, 7u, 11u, 19u})
        s.add(id);
    EXPECT_FALSE(s.broadcast());
    EXPECT_EQ(s.count(), 4u);
    EXPECT_TRUE(s.contains(11));
    EXPECT_FALSE(s.contains(4));
    s.remove(7);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_FALSE(s.contains(7));
}

TEST(SharerSet, Dir4BOverflowDegradesToBroadcast)
{
    SharerSet s(SharerKind::LimitedPtr, 16, 4);
    for (unsigned id = 0; id < 5; ++id)
        s.add(id);
    EXPECT_TRUE(s.broadcast());
    EXPECT_EQ(s.count(), 5u);
    // Broadcast: every cache must be probed.
    EXPECT_EQ(s.probeTargets().size(), 16u);
    // Identity is lost but the count drains.
    for (unsigned id = 0; id < 5; ++id)
        s.remove(id);
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.broadcast());
}

TEST(SharerSet, BroadcastCountsSharersAddedAfterOverflow)
{
    // Regression: add() used to early-return through the conservative
    // contains() in broadcast mode, so sharers that joined after the
    // overflow were never counted. Removing the original sharers then
    // drained the approximate count to zero and cleared the broadcast
    // bit while the late joiner still held the line — dropping it from
    // probeTargets() and skipping its invalidation.
    SharerSet s(SharerKind::LimitedPtr, 16, 4);
    for (unsigned id = 0; id < 5; ++id)
        s.add(id);
    ASSERT_TRUE(s.broadcast());
    ASSERT_EQ(s.count(), 5u);

    s.add(9); // new sharer joining under broadcast must be counted
    EXPECT_EQ(s.count(), 6u);

    for (unsigned id = 0; id < 5; ++id)
        s.remove(id);
    // The late joiner keeps the entry alive and broadcast-probed.
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(s.broadcast());
    EXPECT_TRUE(s.contains(9));
    EXPECT_EQ(s.probeTargets().size(), 16u);

    s.remove(9);
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.broadcast());
}

/** Sharers live inline: shapes beyond the inline words are refused
 *  up front, and the largest legal shapes work at their edges. */
TEST(SharerSet, InlineCapacityIsChecked)
{
    EXPECT_THROW(SharerSet(SharerKind::FullMap, SharerSet::maxCaches + 1),
                 std::runtime_error);
    EXPECT_THROW(SharerSet(SharerKind::LimitedPtr, 16,
                           SharerSet::maxPointerSlots + 1),
                 std::runtime_error);

    SharerSet full(SharerKind::FullMap, SharerSet::maxCaches);
    full.add(SharerSet::maxCaches - 1);
    full.add(0);
    EXPECT_EQ(full.probeTargets(),
              std::vector<unsigned>({0, SharerSet::maxCaches - 1}));

    SharerSet ptrs(SharerKind::LimitedPtr, 1024,
                   SharerSet::maxPointerSlots);
    for (unsigned id = 0; id < SharerSet::maxPointerSlots; ++id)
        ptrs.add(1000 - id);
    EXPECT_FALSE(ptrs.broadcast());
    ptrs.remove(999);
    std::vector<unsigned> want;
    for (unsigned id = 0; id < SharerSet::maxPointerSlots; ++id) {
        if (id != 1)
            want.push_back(1000 - id);
    }
    EXPECT_EQ(ptrs.probeTargets(), want); // insertion order kept
    ptrs.add(5);
    ptrs.add(6);
    EXPECT_TRUE(ptrs.broadcast());
}

TEST(SharerSet, ClearResets)
{
    SharerSet s(SharerKind::FullMap, 8);
    s.add(1);
    s.add(2);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.contains(1));
}

TEST(Directory, InfiniteNeverNeedsVictim)
{
    Directory d(DirectoryConfig::optimistic(), 16);
    for (mem::Addr a = 0; a < 4096 * mem::lineBytes; a += mem::lineBytes)
        d.insert(a);
    EXPECT_FALSE(d.needsVictim(0x9999 * mem::lineBytes));
    EXPECT_EQ(d.size(), 4096u);
    EXPECT_EQ(d.peakEntries(), 4096u);
}

TEST(Directory, FindUpdatesAndErase)
{
    Directory d(DirectoryConfig::optimistic(), 16);
    d.insert(0x100);
    coherence::DirEntry *e = d.find(0x11C); // same line
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->base, 0x100u);
    e->sharers.add(3);
    EXPECT_TRUE(d.find(0x100)->sharers.contains(3));
    d.erase(0x100);
    EXPECT_EQ(d.find(0x100), nullptr);
    EXPECT_THROW(d.erase(0x100), std::logic_error);
}

TEST(Directory, FullyAssociativeCapacityEviction)
{
    Directory d(DirectoryConfig::fullyAssociative(4), 16);
    for (mem::Addr a = 0; a < 4 * mem::lineBytes; a += mem::lineBytes)
        d.insert(a);
    EXPECT_TRUE(d.needsVictim(0x1000));
    // LRU is the first inserted; touching it changes the victim.
    EXPECT_EQ(d.victim(0x1000).base, 0u);
    d.find(0); // touch
    EXPECT_EQ(d.victim(0x1000).base, mem::lineBytes);
}

TEST(Directory, SetAssociativeConflicts)
{
    // 8 entries, 2-way: 4 sets. Lines that alias in a set conflict.
    Directory d(DirectoryConfig{8, 2, SharerKind::FullMap, 4}, 16);
    // Set index = line number % 4; these three alias into set 0.
    d.insert(0 * mem::lineBytes);
    d.insert(4 * mem::lineBytes);
    EXPECT_TRUE(d.needsVictim(8 * mem::lineBytes));
    // But a different set is free.
    EXPECT_FALSE(d.needsVictim(1 * mem::lineBytes));
}

TEST(Directory, VictimExcludingSkipsBusyEntries)
{
    Directory d(DirectoryConfig::fullyAssociative(3), 16);
    d.insert(0x000);
    d.insert(0x020);
    d.insert(0x040);
    auto *v = d.victimExcluding(
        0x100, [](mem::Addr a) { return a == 0x000; });
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->base, 0x020u);
    auto *none = d.victimExcluding(0x100, [](mem::Addr) { return true; });
    EXPECT_EQ(none, nullptr);
}

TEST(Directory, InsertionCounterTracksChurn)
{
    Directory d(DirectoryConfig::fullyAssociative(2), 4);
    d.insert(0x000);
    d.insert(0x020);
    d.erase(0x000);
    d.insert(0x040);
    EXPECT_EQ(d.insertions(), 3u);
    EXPECT_EQ(d.peakEntries(), 2u);
}

// ---------------------------------------------------------------------
// Section 4.4 area estimates: the paper's numbers.
// ---------------------------------------------------------------------

TEST(AreaModel, FullMapMatchesPaper)
{
    coherence::AreaInputs in; // 128 L2s x 2048 lines, Table 3 defaults
    auto r = coherence::fullMapArea(in);
    // Paper: 9.28 MB, 113% of the 8 MB of L2 (our derivation gives
    // 512K entries x 146 bits = 9.13 MB; the paper's own 9.28 MB and
    // 113% figures disagree by a similar margin).
    EXPECT_NEAR(r.bytes / (1024.0 * 1024.0), 9.28, 0.25);
    EXPECT_NEAR(r.fractionOfL2, 1.13, 0.03);
}

TEST(AreaModel, Dir4BMatchesPaper)
{
    coherence::AreaInputs in;
    auto r = coherence::limitedArea(in);
    // Paper: 2.88 MB, 35.1% of L2 (512K entries x 46 bits = 2.875 MB).
    EXPECT_NEAR(r.bytes / (1024.0 * 1024.0), 2.88, 0.05);
    EXPECT_NEAR(r.fractionOfL2, 0.351, 0.015);
}

TEST(AreaModel, DirectorylessIsFree)
{
    coherence::AreaInputs in;
    // The DLS-style backend keeps no sharer metadata: its directory
    // area is exactly zero regardless of machine size.
    auto r = coherence::dlsArea(in);
    EXPECT_EQ(r.bytes, 0.0);
    EXPECT_EQ(r.fractionOfL2, 0.0);
    in.numL2s = 1024;
    auto big = coherence::dlsArea(in);
    EXPECT_EQ(big.bytes, 0.0);
}

TEST(AreaModel, DuplicateTagsMatchPaper)
{
    coherence::AreaInputs in;
    auto one = coherence::duplicateTagArea(in, 1);
    // Paper: 736 KB per replica (8.98% of L2).
    EXPECT_NEAR(one.bytes / 1024.0, 736.0, 32.0);
    EXPECT_NEAR(one.fractionOfL2, 0.0898, 0.005);
    auto eight = coherence::duplicateTagArea(in, 8);
    EXPECT_NEAR(eight.bytes / one.bytes, 8.0, 1e-9);
}

} // namespace
