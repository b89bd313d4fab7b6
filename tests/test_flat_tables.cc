/** @file
 * The flat bookkeeping tables on the per-message path, each checked
 * against a node-based reference model:
 *
 *  - FlatIndex against std::unordered_map, randomized, through growth
 *    and through deletions whose probe runs wrap past the table end;
 *  - SlotPool's stable addresses and capacity-keeping reuse;
 *  - Directory's find / victim / victimExcluding / forEach order
 *    against one std::list LRU per set (FA-512, set-associative,
 *    infinite), plus a checkpoint round trip;
 *  - LineLockTable's FIFO hand-off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/await.hh"
#include "coherence/directory.hh"
#include "sim/cotask.hh"
#include "sim/event_queue.hh"
#include "sim/flat_table.hh"
#include "sim/random.hh"
#include "sim/serialize.hh"

namespace {

using coherence::Directory;
using coherence::DirectoryConfig;
using sim::FlatIndex;

/** The bucket FlatIndex's hash picks for @p key in a table of
 *  2^@p log2cap buckets (Fibonacci hashing, top bits). */
std::uint32_t
homeBucket(std::uint32_t key, unsigned log2cap)
{
    return static_cast<std::uint32_t>(
        (std::uint64_t(key) * 0x9E3779B97F4A7C15ull) >> (64 - log2cap));
}

/** The first @p n keys at or above @p from whose home bucket in an
 *  8-bucket table is @p bucket. */
std::vector<std::uint32_t>
keysHomedAt(std::uint32_t bucket, unsigned n, std::uint32_t from = 0)
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t k = from; out.size() < n; ++k) {
        if (homeBucket(k, 3) == bucket)
            out.push_back(k);
    }
    return out;
}

using RefMap = std::unordered_map<std::uint32_t, std::uint32_t>;

void
expectSameContents(const FlatIndex &idx, const RefMap &ref)
{
    ASSERT_EQ(idx.size(), ref.size());
    for (const auto &[k, v] : ref)
        ASSERT_EQ(idx.find(k), v) << "key " << k;
    std::size_t visited = 0;
    idx.forEach([&](std::uint32_t k, std::uint32_t v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "stray key " << k;
        EXPECT_EQ(it->second, v);
        ++visited;
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(FlatIndex, DeletionsWrapAroundTheTableEnd)
{
    // Three keys homed at the last of 8 buckets fill buckets 7, 0 and
    // 1; a key homed at bucket 0 lands in bucket 2. Deleting from the
    // front of that run must shift the wrapped members back across
    // the end without stranding any of them.
    std::vector<std::uint32_t> last = keysHomedAt(7, 3);
    std::uint32_t zero = keysHomedAt(0, 1).front();
    FlatIndex idx;
    RefMap ref;
    for (std::uint32_t k : last) {
        idx.insert(k, k + 100);
        ref[k] = k + 100;
    }
    idx.insert(zero, 7);
    ref[zero] = 7;
    expectSameContents(idx, ref);

    EXPECT_TRUE(idx.erase(last[0]));
    ref.erase(last[0]);
    expectSameContents(idx, ref);
    EXPECT_EQ(idx.find(last[0]), sim::noSlot);

    // Re-insert at the wrapped end, then delete from the middle.
    idx.insert(last[0], 3);
    ref[last[0]] = 3;
    EXPECT_TRUE(idx.erase(last[1]));
    ref.erase(last[1]);
    expectSameContents(idx, ref);
    EXPECT_FALSE(idx.erase(last[1]));
    EXPECT_TRUE(idx.erase(zero));
    ref.erase(zero);
    expectSameContents(idx, ref);
}

TEST(FlatIndex, RandomizedAgainstUnorderedMap)
{
    // A small key range keeps collisions, long probe runs and
    // wrap-around deletions common; the population climbs from zero
    // to several hundred keys (the table grows from 8 buckets
    // mid-run), then rises and falls as the insert and erase rates
    // alternate.
    sim::Rng rng(20260417);
    FlatIndex idx;
    RefMap ref;
    for (unsigned step = 0; step < 200000; ++step) {
        const unsigned phase = (step / 20000) % 2; // grow, then drain
        const std::uint64_t r = rng.next() % 100;
        std::uint32_t key = static_cast<std::uint32_t>(rng.next() % 1024);
        if (rng.next() % 8 == 0)
            key |= 0xFFFF0000u; // some keys near the top of u32
        if (r < (phase ? 30u : 55u)) {
            if (!ref.count(key)) {
                std::uint32_t v = static_cast<std::uint32_t>(step);
                idx.insert(key, v);
                ref[key] = v;
            }
        } else if (r < 90) {
            bool present = ref.erase(key) != 0;
            ASSERT_EQ(idx.erase(key), present) << "step " << step;
        } else {
            auto it = ref.find(key);
            ASSERT_EQ(idx.find(key),
                      it == ref.end() ? sim::noSlot : it->second)
                << "step " << step;
        }
        if (step % 997 == 0)
            expectSameContents(idx, ref);
    }
    expectSameContents(idx, ref);
    idx.clear();
    EXPECT_EQ(idx.size(), 0u);
    for (std::uint32_t k = 0; k < 1024; ++k)
        ASSERT_EQ(idx.find(k), sim::noSlot);
}

TEST(SlotPool, AddressesAreStableAndReuseKeepsCapacity)
{
    sim::SlotPool<std::vector<int>> pool;
    std::uint32_t first = pool.alloc();
    std::vector<int> *addr = &pool[first];
    addr->assign(100, 1);
    for (unsigned i = 0; i < 1000; ++i)
        pool.alloc();
    EXPECT_EQ(&pool[first], addr);
    EXPECT_EQ(pool.live(), 1001u);

    pool[first].clear();
    pool.free(first);
    std::uint32_t again = pool.alloc();
    EXPECT_EQ(again, first);
    EXPECT_GE(pool[again].capacity(), 100u);
}

// --- Directory LRU order against a std::list model -----------------

/** The reference: one std::list LRU per set (front = LRU). */
struct ListModel
{
    std::vector<std::list<mem::Addr>> sets;
    std::uint32_t ways;

    explicit ListModel(const DirectoryConfig &c)
        : sets(c.numSets()),
          ways(c.infinite() ? 0 : (c.assoc ? c.assoc : c.entries))
    {}

    std::list<mem::Addr> &
    setOf(mem::Addr base)
    {
        return sets[(base >> mem::lineShift) & (sets.size() - 1)];
    }

    bool
    contains(mem::Addr base)
    {
        auto &s = setOf(base);
        return std::find(s.begin(), s.end(), base) != s.end();
    }

    void
    touch(mem::Addr base)
    {
        auto &s = setOf(base);
        s.remove(base);
        s.push_back(base);
    }
};

void
expectSameOrder(const Directory &d, const ListModel &m)
{
    std::vector<mem::Addr> got, want;
    d.forEach([&](const coherence::DirEntry &e) { got.push_back(e.base); });
    for (const auto &s : m.sets)
        want.insert(want.end(), s.begin(), s.end());
    ASSERT_EQ(got, want);
}

void
churnAgainstModel(const DirectoryConfig &cfg, unsigned lines,
                  std::uint64_t seed)
{
    Directory d(cfg, 128);
    ListModel m(cfg);
    sim::Rng rng(seed);
    for (unsigned step = 0; step < 40000; ++step) {
        mem::Addr base =
            static_cast<mem::Addr>(rng.next() % lines) * mem::lineBytes;
        const std::uint64_t op = rng.next() % 10;
        if (op < 4) {
            coherence::DirEntry *e = d.find(base);
            ASSERT_EQ(e != nullptr, m.contains(base)) << "step " << step;
            if (e) {
                EXPECT_EQ(e->base, base);
                m.touch(base);
            }
        } else if (op < 8) {
            if (m.contains(base))
                continue;
            if (d.needsVictim(base)) {
                ASSERT_EQ(m.setOf(base).size(), m.ways);
                // Exclude a random subset, as busy lines are.
                const std::uint64_t mask = rng.next();
                auto excluded = [&](mem::Addr a) {
                    return (mask >> ((a >> mem::lineShift) % 61)) & 1;
                };
                mem::Addr want_ex = 0;
                bool any = false;
                for (mem::Addr a : m.setOf(base)) {
                    if (!excluded(a)) {
                        want_ex = a;
                        any = true;
                        break;
                    }
                }
                coherence::DirEntry *v = d.victimExcluding(base, excluded);
                ASSERT_EQ(v != nullptr, any);
                if (v) {
                    EXPECT_EQ(v->base, want_ex);
                }
                ASSERT_EQ(d.victim(base).base, m.setOf(base).front());
                mem::Addr gone = d.victim(base).base;
                d.erase(gone);
                m.setOf(gone).remove(gone);
            }
            d.insert(base).sharers.add(step % 128);
            m.setOf(base).push_back(base);
        } else {
            if (!m.contains(base))
                continue;
            d.erase(base);
            m.setOf(base).remove(base);
        }
        if (step % 499 == 0)
            expectSameOrder(d, m);
    }
    expectSameOrder(d, m);

    // A restored directory walks and victimizes in the same order and
    // writes the same bytes.
    sim::Archive ser;
    d.snapshot(ser);
    const std::string &blob = ser.payload();
    Directory r(cfg, 128);
    sim::Archive des(blob);
    r.snapshot(des);
    expectSameOrder(r, m);
    sim::Archive again;
    r.snapshot(again);
    EXPECT_EQ(again.payload(), blob);
}

TEST(DirectoryOrder, FullyAssociative512MatchesListModel)
{
    churnAgainstModel(DirectoryConfig::fullyAssociative(512), 2048, 1);
}

TEST(DirectoryOrder, SetAssociativeMatchesListModel)
{
    const DirectoryConfig cfg{256, 8, coherence::SharerKind::FullMap, 4};
    churnAgainstModel(cfg, 4096, 2);
}

TEST(DirectoryOrder, InfiniteMatchesListModel)
{
    churnAgainstModel(DirectoryConfig::optimistic(), 1024, 3);
}

TEST(DirectoryOrder, PeekLeavesLruAlone)
{
    Directory d(DirectoryConfig::fullyAssociative(2), 16);
    d.insert(0x000);
    d.insert(0x020);
    ASSERT_NE(d.peek(0x01C), nullptr); // same line as 0x000
    EXPECT_EQ(d.peek(0x01C)->base, 0x000u);
    EXPECT_EQ(d.peek(0x040), nullptr);
    EXPECT_EQ(d.victim(0x040).base, 0x000u);
    d.find(0x000);
    EXPECT_EQ(d.victim(0x040).base, 0x020u);
}

// --- Line locks --------------------------------------------------------

sim::CoTask
holdLine(arch::LineLockTable &locks, sim::EventQueue &eq,
         std::uint32_t line, int who, std::vector<int> &grants)
{
    co_await locks.acquire(line);
    arch::Held held(locks, line);
    grants.push_back(who);
    co_await arch::Delay{eq, eq.now() + 10};
}

TEST(LineLockTable, WaitersAreGrantedInFifoOrder)
{
    sim::EventQueue eq;
    arch::LineLockTable locks(eq);
    std::vector<int> grants;
    std::vector<sim::CoTask> tasks;
    EXPECT_FALSE(locks.busy(7));
    for (int who = 0; who < 4; ++who)
        tasks.push_back(holdLine(locks, eq, 7, who, grants));
    for (auto &t : tasks)
        t.start();
    // The first takes the line; the other three queue behind it.
    EXPECT_EQ(grants, std::vector<int>({0}));
    EXPECT_TRUE(locks.busy(7));
    EXPECT_FALSE(locks.busy(8));
    eq.run();
    EXPECT_EQ(grants, std::vector<int>({0, 1, 2, 3}));
    EXPECT_FALSE(locks.busy(7));
    for (auto &t : tasks)
        EXPECT_TRUE(t.done());

    // The freed state and waiter slots serve the next round.
    grants.clear();
    tasks.clear();
    for (int who = 0; who < 3; ++who)
        tasks.push_back(holdLine(locks, eq, 9, who, grants));
    for (auto &t : tasks)
        t.start();
    eq.run();
    EXPECT_EQ(grants, std::vector<int>({0, 1, 2}));
    EXPECT_FALSE(locks.busy(9));
}

} // namespace
