/** @file
 * Cross-thread event-capture pool regression. An event built on one
 * thread (its capture carved from that thread's slab pool) may fire or
 * be destroyed on another. The pool tags every node with its owning
 * pool and routes foreign frees through a lock-free return stack;
 * these tests pin the contract:
 *
 *  - a node freed on a foreign thread comes home and is reusable by
 *    the owner (no leak, no double-carve);
 *  - a pool whose thread exited stays alive until its last
 *    outstanding node is returned (no use-after-free on late frees);
 *  - concurrent foreign frees from several threads do not lose nodes.
 *
 * Everything here uses captures larger than Event::inlineCapacity so
 * every Event exercises the pooled path.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event.hh"

namespace {

/** A capture comfortably past the inline buffer, with a checksummable
 *  payload so a recycled-too-early node shows up as data corruption,
 *  not just a crash. */
struct FatPayload
{
    std::array<std::uint64_t, 16> words;

    explicit FatPayload(std::uint64_t seed)
    {
        for (std::size_t i = 0; i < words.size(); ++i)
            words[i] = seed * 0x9E3779B97F4A7C15ULL + i;
    }

    std::uint64_t
    sum() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t w : words)
            s += w;
        return s;
    }
};

static_assert(sizeof(FatPayload) > sim::Event::inlineCapacity,
              "payload must force the pooled path");

sim::Event
makeFatEvent(std::uint64_t seed, std::atomic<std::uint64_t> *sink)
{
    FatPayload payload(seed);
    std::uint64_t want = payload.sum();
    return sim::Event([payload, want, sink] {
        ASSERT_EQ(payload.sum(), want);
        sink->fetch_add(payload.sum(), std::memory_order_relaxed);
    });
}

/** Events allocated on this thread, fired and destroyed on another. */
TEST(EventPool, AllocHereFreeThere)
{
    constexpr int kEvents = 64;
    std::atomic<std::uint64_t> got{0};
    std::uint64_t want = 0;
    std::vector<sim::Event> events;
    events.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
        events.push_back(makeFatEvent(i + 1, &got));
        want += FatPayload(i + 1).sum();
    }

    std::thread consumer([&events] {
        for (sim::Event &e : events) {
            e();
            e.reset(); // foreign free: pushes onto the owner's stack
        }
    });
    consumer.join();

    EXPECT_EQ(got.load(), want);

    // The owner allocates again: reclaim must hand back the returned
    // nodes rather than leaking them and carving fresh slabs forever.
    std::atomic<std::uint64_t> got2{0};
    std::uint64_t want2 = 0;
    for (int round = 0; round < 4; ++round) {
        std::vector<sim::Event> again;
        again.reserve(kEvents);
        for (int i = 0; i < kEvents; ++i) {
            again.push_back(makeFatEvent(1000 + i, &got2));
            want2 += FatPayload(1000 + i).sum();
        }
        for (sim::Event &e : again)
            e();
    }
    EXPECT_EQ(got2.load(), want2);
}

/** The reverse direction: a worker thread allocates, exits, and only
 *  then does the owner of the Event objects destroy them. The worker's
 *  pool must outlive the worker until every node is returned. */
TEST(EventPool, FreeAfterOwnerThreadExited)
{
    constexpr int kEvents = 64;
    std::atomic<std::uint64_t> got{0};
    std::uint64_t want = 0;
    std::vector<sim::Event> events;
    events.reserve(kEvents);

    std::thread producer([&events, &got] {
        for (int i = 0; i < kEvents; ++i)
            events.push_back(makeFatEvent(77 + i, &got));
    });
    producer.join();
    for (int i = 0; i < kEvents; ++i)
        want += FatPayload(77 + i).sum();

    // The producer thread is gone; invoking and destroying its nodes
    // must still be safe (the pool is retired, not reaped, while its
    // live count is nonzero).
    for (sim::Event &e : events) {
        e();
        e.reset();
    }
    EXPECT_EQ(got.load(), want);
}

/** Many threads freeing into one owner concurrently: the return stack
 *  is a lock-free MPSC push, so no node may be lost under contention.
 *  Loss would show as monotonically growing slab usage; here we settle
 *  for the functional half — every callable fires exactly once with
 *  intact state, across enough volume to tumble through several
 *  reclaim cycles. */
TEST(EventPool, ConcurrentForeignFrees)
{
    constexpr int kThreads = 4;
    constexpr int kRounds = 50;
    constexpr int kPerThread = 16;
    std::atomic<std::uint64_t> fired{0};

    for (int round = 0; round < kRounds; ++round) {
        std::vector<std::vector<sim::Event>> batches(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            batches[t].reserve(kPerThread);
            for (int i = 0; i < kPerThread; ++i)
                batches[t].push_back(
                    makeFatEvent(round * 1000 + t * 100 + i, &fired));
        }
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([batch = std::move(batches[t])]() mutable {
                for (sim::Event &e : batch)
                    e();
                // Destructors run here: kThreads concurrent foreign
                // pushes onto the main thread's return stack.
            });
        }
        for (std::thread &t : threads)
            t.join();
    }

    std::uint64_t expect = 0;
    for (int round = 0; round < kRounds; ++round)
        for (int t = 0; t < kThreads; ++t)
            for (int i = 0; i < kPerThread; ++i)
                expect += FatPayload(round * 1000 + t * 100 + i).sum();
    EXPECT_EQ(fired.load(), expect);
}

/** Moves must not confuse ownership: relocation transfers the node
 *  pointer without touching the pool, so an event can be built on one
 *  thread, moved through containers on a second, and destroyed on a
 *  third. */
TEST(EventPool, MoveAcrossThreeThreads)
{
    std::atomic<std::uint64_t> got{0};
    std::vector<sim::Event> stage1;

    std::thread builder([&stage1, &got] {
        for (int i = 0; i < 16; ++i)
            stage1.push_back(makeFatEvent(500 + i, &got));
    });
    builder.join();

    std::vector<sim::Event> stage2;
    std::thread shuffler([&stage1, &stage2] {
        for (sim::Event &e : stage1)
            stage2.push_back(std::move(e));
        stage1.clear();
    });
    shuffler.join();

    std::thread finisher([&stage2] {
        for (sim::Event &e : stage2)
            e();
        stage2.clear();
    });
    finisher.join();

    std::uint64_t want = 0;
    for (int i = 0; i < 16; ++i)
        want += FatPayload(500 + i).sum();
    EXPECT_EQ(got.load(), want);
}

} // namespace
