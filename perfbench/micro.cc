/**
 * @file
 * Component micro-rates: each public method the simulator's hot loop
 * leans on, timed alone at the Table-3 shape it has in the 1024-core
 * machine. Every rate is the median of several batches, in ns/op.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "arch/fabric.hh"
#include "arch/msg.hh"
#include "cache/cache_array.hh"
#include "coherence/directory.hh"
#include "coherence/sharer_set.hh"
#include "cohesion/table_cache.hh"
#include "ledger.hh"
#include "mem/address_map.hh"
#include "mem/dram.hh"
#include "runtime/layout.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace perfbench {

namespace {

/** Keep @p v alive as far as the optimizer can tell. */
template <typename T>
inline void
keep(const T &v)
{
    asm volatile("" : : "r,m"(v) : "memory");
}

constexpr unsigned batches = 5;
constexpr std::size_t tableSize = 4096; // power of two

/** Median ns/op of @p batch (which performs @p ops operations) over
 *  several timed batches, after one untimed warm-up batch. */
template <typename Fn>
double
nsPerOp(std::uint64_t ops, Fn &&batch)
{
    batch();
    std::array<double, batches> ns{};
    for (double &v : ns) {
        auto t0 = std::chrono::steady_clock::now();
        batch();
        v = std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - t0)
                .count() /
            static_cast<double>(ops);
    }
    std::sort(ns.begin(), ns.end());
    return ns[batches / 2];
}

/** @p n random line-aligned addresses below @p limit bytes. */
std::vector<mem::Addr>
lineAddrs(sim::Rng &rng, std::size_t n, std::uint64_t limit)
{
    std::vector<mem::Addr> v(n);
    for (mem::Addr &a : v)
        a = static_cast<mem::Addr>(rng.below(limit / mem::lineBytes)) *
            mem::lineBytes;
    return v;
}

/** Hold model: every fired event schedules one successor 1..128 ticks
 *  ahead, so the queue stays at its initial depth. */
double
eqHold(sim::Rng &rng, unsigned depth)
{
    struct Hold
    {
        sim::EventQueue eq;
        sim::Rng rng;
        explicit Hold(std::uint64_t seed) : rng(seed) {}
        void
        arm(sim::Tick when)
        {
            eq.schedule(when, [this]() { arm(eq.now() + 1 + rng.below(128)); });
        }
    } h(rng.next());
    for (unsigned i = 0; i < depth; ++i)
        h.arm(h.rng.below(128));
    constexpr std::uint64_t ops = 1u << 19;
    return nsPerOp(ops, [&h]() {
        for (std::uint64_t i = 0; i < ops; ++i)
            h.eq.runOne();
    });
}

/** Same-tick fan-out: one event schedules 64 siblings at its own tick.
 *  Rate per fired event. */
double
eqFanout()
{
    struct Fan
    {
        sim::EventQueue eq;
        std::uint64_t fired = 0;
    } f;
    constexpr unsigned width = 64, rounds = 8192;
    const double ns = nsPerOp(std::uint64_t(rounds) * (width + 1), [&f]() {
        for (unsigned r = 0; r < rounds; ++r) {
            f.eq.schedule(f.eq.now() + 1, [&f]() {
                for (unsigned i = 0; i < width; ++i)
                    f.eq.schedule(f.eq.now(), [&f]() { ++f.fired; });
            });
            f.eq.run();
        }
    });
    if (f.fired != std::uint64_t(width) * rounds * (batches + 1))
        throw std::logic_error("event fan-out lost events");
    return ns;
}

} // namespace

std::vector<Metric>
runMicro(std::uint64_t seed)
{
    sim::Rng rng(seed ^ 0x31C80);
    const arch::MachineConfig cfg = arch::MachineConfig::paper1024();
    constexpr std::uint64_t ops = 1u << 20;
    std::vector<Metric> m;
    auto add = [&m](const char *name, double ns) {
        m.push_back(Metric{name, "ns/op", ns});
    };

    add("sim.eq_hold_ns", eqHold(rng, 1024));
    add("sim.eq_hold_deep_ns", eqHold(rng, 65536));
    add("sim.eq_fanout_ns", eqFanout());

    {
        // L2: 64 KB, 16-way, filled; probes hit a resident line.
        cache::CacheArray l2("l2", cfg.l2Bytes, cfg.l2Assoc);
        for (mem::Addr a = 0; a < cfg.l2Bytes; a += mem::lineBytes)
            l2.claim(l2.victim(a), a);
        std::vector<mem::Addr> addrs = lineAddrs(rng, tableSize, cfg.l2Bytes);
        add("cache.probe_hit_ns", nsPerOp(ops, [&]() {
                for (std::uint64_t i = 0; i < ops; ++i)
                    keep(l2.probe(addrs[i & (tableSize - 1)]));
            }));

        // Streaming misses: each op evicts the set's LRU way and fills.
        std::uint8_t image[mem::lineBytes] = {};
        mem::Addr next = cfg.l2Bytes;
        add("cache.fill_evict_ns", nsPerOp(ops, [&]() {
                for (std::uint64_t i = 0; i < ops; ++i) {
                    cache::Line &v = l2.victim(next);
                    v.reset();
                    l2.claim(v, next);
                    v.fill(image, mem::fullMask);
                    next += mem::lineBytes;
                }
            }));
    }

    {
        // Sparse 16K x 128-way full-map directory, every entry live.
        const coherence::DirectoryConfig dc =
            coherence::DirectoryConfig::sparseRealistic();
        coherence::Directory dir(dc, cfg.numClusters);
        for (mem::Addr a = 0; a < dc.entries * mem::lineBytes;
             a += mem::lineBytes)
            dir.insert(a);
        std::vector<mem::Addr> addrs =
            lineAddrs(rng, tableSize, dc.entries * mem::lineBytes);
        add("coherence.dir_find_ns", nsPerOp(ops / 4, [&]() {
                for (std::uint64_t i = 0; i < ops / 4; ++i)
                    keep(dir.find(addrs[i & (tableSize - 1)]));
            }));
    }

    {
        // 512-entry fully-associative directory under a streaming
        // footprint: every op evicts the LRU entry and installs a line.
        coherence::Directory dir(
            coherence::DirectoryConfig::fullyAssociative(512),
            cfg.numClusters);
        mem::Addr next = 0;
        std::vector<unsigned> ids(tableSize);
        for (unsigned &id : ids)
            id = static_cast<unsigned>(rng.below(cfg.numClusters));
        add("coherence.dir_fa_churn_ns", nsPerOp(ops / 4, [&]() {
                for (std::uint64_t i = 0; i < ops / 4; ++i) {
                    if (dir.needsVictim(next))
                        dir.erase(dir.victim(next).base);
                    dir.insert(next).sharers.add(ids[i & (tableSize - 1)]);
                    next += mem::lineBytes;
                }
            }));
    }

    {
        // 128-cluster full-map sharer set; cleared every 32 adds.
        coherence::SharerSet s(coherence::SharerKind::FullMap,
                               cfg.numClusters);
        std::vector<unsigned> ids(tableSize);
        for (unsigned &id : ids)
            id = static_cast<unsigned>(rng.below(cfg.numClusters));
        add("coherence.sharer_add_ns", nsPerOp(ops, [&]() {
                for (std::uint64_t i = 0; i < ops; ++i) {
                    if ((i & 31) == 0)
                        s.clear();
                    s.add(ids[i & (tableSize - 1)]);
                }
                keep(s.count());
            }));
    }

    {
        // On-die table cache (1K words), half the lookups hit.
        cohesion::TableCache tc(1024);
        for (mem::Addr w = 0; w < 1024 * 4; w += 4)
            tc.fill(w, static_cast<std::uint32_t>(w));
        std::vector<mem::Addr> words(tableSize);
        for (mem::Addr &w : words)
            w = static_cast<mem::Addr>(rng.below(2048)) * 4;
        add("cohesion.table_cache_lookup_ns", nsPerOp(ops, [&]() {
                for (std::uint64_t i = 0; i < ops; ++i)
                    keep(tc.lookup(words[i & (tableSize - 1)]));
            }));
    }

    {
        // One cluster->bank hop: send half plus accept half.
        arch::Fabric fabric(cfg);
        std::vector<unsigned> ends(tableSize);
        for (unsigned &e : ends)
            e = static_cast<unsigned>(rng.next());
        sim::Tick now = 0;
        add("arch.fabric_hop_ns", nsPerOp(ops, [&]() {
                for (std::uint64_t i = 0; i < ops; ++i) {
                    unsigned e = ends[i & (tableSize - 1)];
                    sim::Tick nominal = fabric.c2bSend(
                        e % cfg.numClusters, arch::msgBytes(8), now);
                    keep(fabric.c2bAccept((e >> 8) % cfg.numL3Banks,
                                          nominal, now));
                    ++now;
                }
            }));
    }

    {
        // One GDDR channel: random bank/row, one write in four.
        mem::DramChannel ch(cfg.dram);
        std::vector<std::uint32_t> rows(tableSize);
        for (std::uint32_t &r : rows)
            r = static_cast<std::uint32_t>(rng.next());
        sim::Tick now = 0;
        add("mem.dram_access_ns", nsPerOp(ops, [&]() {
                for (std::uint64_t i = 0; i < ops; ++i) {
                    std::uint32_t r = rows[i & (tableSize - 1)];
                    now = ch.access(r & 15, (r >> 4) & 1023, ((r >> 14) & 3) == 0,
                                    now);
                }
                keep(now);
            }));
    }

    {
        // The tbloff hash from a data address to its table word.
        mem::AddressMap map(cfg.numL3Banks, cfg.numChannels,
                            runtime::Layout::tableBase);
        std::vector<mem::Addr> addrs(tableSize);
        for (mem::Addr &a : addrs)
            a = static_cast<mem::Addr>(rng.below(runtime::Layout::tableBase));
        add("mem.tbloff_ns", nsPerOp(ops, [&]() {
                mem::Addr acc = 0;
                for (std::uint64_t i = 0; i < ops; ++i)
                    acc ^= map.tableWordAddr(addrs[i & (tableSize - 1)]);
                keep(acc);
            }));
    }
    return m;
}

} // namespace perfbench
