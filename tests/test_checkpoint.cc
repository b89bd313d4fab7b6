/** @file
 * Checkpoint/restore correctness: restoring a CCKPT1 snapshot into a
 * fresh machine must be indistinguishable from never having stopped.
 *
 * The core check runs every kernel two ways on the same scaled(2)
 * machine:
 *
 *   straight:     run(k); run(k)                 — one session
 *   checkpointed: run(k); blob = checkpoint();
 *                 fresh session; restore(blob); run(k)
 *
 * and demands the identical final tick, cumulative event count, and
 * stat-registry CSV hash. Any field missing from a checkpointState
 * hook — an Rng left at its boot state, a cache LRU order rebuilt
 * differently, a message-id counter restarting — diverges one of the
 * three.
 *
 * The container half of the file checks the CCKPT1 framing: round
 * trips, and a clean SnapshotError (never a misparse) for truncated,
 * corrupted, wrong-version, and wrong-magic snapshots.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "arch/flight_decode.hh"
#include "harness/session.hh"
#include "kernels/registry.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"
#include "sim/stat_registry.hh"

namespace {

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

struct Fingerprint
{
    sim::Tick finalTick = 0;
    std::uint64_t eventsRun = 0;
    std::uint64_t statHash = 0;

    bool
    operator==(const Fingerprint &o) const
    {
        return finalTick == o.finalTick && eventsRun == o.eventsRun &&
               statHash == o.statHash;
    }
};

arch::MachineConfig
testConfig()
{
    return arch::MachineConfig::scaled(2);
}

/** Cumulative session state, reduced to its deterministic core. The
 *  absolute tick and total event count come straight off the event
 *  queue, so a restore that reset either would show immediately. */
Fingerprint
fingerprint(harness::Session &session)
{
    Fingerprint fp;
    fp.finalTick = session.chip().finalTick();
    fp.eventsRun = session.chip().totalEventsRun();
    sim::StatRegistry reg;
    session.chip().registerStats(reg);
    std::ostringstream csv;
    reg.dumpCsv(csv);
    fp.statHash = fnv1a(csv.str());
    return fp;
}

void
runOn(harness::Session &session, const std::string &kernel_name,
      const harness::RunOptions &opts = {})
{
    kernels::Params params;
    params.scale = 1;
    auto kernel = kernels::kernelFactory(kernel_name)(params);
    session.run(*kernel, opts);
}

class CheckpointRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CheckpointRoundTrip, RestoredRunMatchesStraightRun)
{
    const std::string kernel = GetParam();

    harness::Session straight(testConfig(), kernels::Params{}.seed);
    runOn(straight, kernel);
    runOn(straight, kernel);
    Fingerprint want = fingerprint(straight);

    harness::Session first(testConfig(), kernels::Params{}.seed);
    runOn(first, kernel);
    std::string blob = first.checkpoint();
    EXPECT_FALSE(blob.empty());

    harness::Session resumed(testConfig(), kernels::Params{}.seed);
    resumed.restore(blob);
    runOn(resumed, kernel);
    Fingerprint got = fingerprint(resumed);

    EXPECT_EQ(want.finalTick, got.finalTick);
    EXPECT_EQ(want.eventsRun, got.eventsRun);
    EXPECT_EQ(want.statHash, got.statHash);
    EXPECT_TRUE(want == got);
    EXPECT_GT(want.finalTick, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, CheckpointRoundTrip,
                         ::testing::ValuesIn(kernels::allKernelNames()),
                         [](const auto &info) { return info.param; });

/** Checkpointing must not perturb the machine it snapshots: the
 *  session that produced the blob can keep running and still match
 *  the straight reference. */
TEST(Checkpoint, CheckpointIsObserverOnly)
{
    harness::Session straight(testConfig(), kernels::Params{}.seed);
    runOn(straight, "gjk");
    runOn(straight, "gjk");
    Fingerprint want = fingerprint(straight);

    harness::Session session(testConfig(), kernels::Params{}.seed);
    runOn(session, "gjk");
    (void)session.checkpoint();
    runOn(session, "gjk");
    EXPECT_TRUE(want == fingerprint(session));
}

TEST(Checkpoint, FileRoundTrip)
{
    const std::string path = "checkpoint_test_roundtrip.ck";
    harness::Session first(testConfig(), kernels::Params{}.seed);
    runOn(first, "sobel");
    first.checkpointTo(path);
    Fingerprint at_ck = fingerprint(first);

    harness::Session resumed(testConfig(), kernels::Params{}.seed);
    resumed.restoreFrom(path);
    EXPECT_TRUE(at_ck == fingerprint(resumed));
    std::remove(path.c_str());
}

TEST(Checkpoint, GeometryMismatchIsRejected)
{
    harness::Session small(testConfig(), kernels::Params{}.seed);
    runOn(small, "gjk");
    std::string blob = small.checkpoint();

    harness::Session big(arch::MachineConfig::scaled(4),
                         kernels::Params{}.seed);
    EXPECT_THROW(big.restore(blob), sim::SnapshotError);
}

TEST(Checkpoint, ModeMismatchIsRejected)
{
    harness::Session coh(testConfig(), kernels::Params{}.seed);
    runOn(coh, "gjk");
    std::string blob = coh.checkpoint();

    arch::MachineConfig swcc = testConfig();
    swcc.mode = arch::CoherenceMode::SWccOnly;
    harness::Session other(swcc, kernels::Params{}.seed);
    EXPECT_THROW(other.restore(blob), sim::SnapshotError);
}

// --- Committed snapshot bytes -------------------------------------------

/** FNV-1a of the framed CCKPT1 snapshot taken after one sobel run on
 *  testConfig(). The blob carries the queue record, every component's
 *  state, the stat histograms and the flight-recorder ring in its
 *  staged merge order, so a change to the wire format or to the event
 *  schedule moves it. Re-record only with a recorded reason (a
 *  deliberate format or timing-model change). Observers (narration,
 *  the trace-event renderer) are not part of the machine, so the same
 *  run traced into every view must produce the same bytes. */
constexpr std::uint64_t kSobelSnapshotDigest = 0xc1d60003cbb833baull;

TEST(Checkpoint, SnapshotBytesMatchCommittedDigest)
{
    std::ostringstream json;
    harness::RunOptions plain, traced;
    traced.traceJson = &json;
    traced.traceMask = arch::parseTraceGroups("all");
    for (const harness::RunOptions *opts : {&plain, &traced}) {
        harness::Session session(testConfig(), kernels::Params{}.seed);
        {
            sim::LogCapture narration;
            runOn(session, "sobel", *opts);
        }
        std::string blob = session.checkpoint();
        EXPECT_FALSE(blob.empty());
        EXPECT_EQ(fnv1a(blob), kSobelSnapshotDigest)
            << (opts == &traced ? "traced" : "plain")
            << " snapshot digest 0x" << std::hex << fnv1a(blob);
    }
    EXPECT_FALSE(json.str().empty());
}

// --- CCKPT1 container ---------------------------------------------------

TEST(SnapshotFormat, FrameRoundTrip)
{
    sim::Serializer ser;
    ser.tag("unit");
    ser.u64(0xDEADBEEFCAFEF00DULL);
    ser.str("hello");
    ser.f64(3.25);

    std::string framed = sim::frameSnapshot(ser.blob());
    // Deserializer views its input; keep the payload alive.
    std::string payload = sim::unframeSnapshot(framed);
    sim::Deserializer des(payload);
    des.tag("unit");
    EXPECT_EQ(des.u64(), 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(des.str(), "hello");
    EXPECT_EQ(des.f64(), 3.25);
    EXPECT_TRUE(des.atEnd());
}

TEST(SnapshotFormat, RejectsGarbageAndTruncation)
{
    EXPECT_THROW(sim::unframeSnapshot("garbage"), sim::SnapshotError);
    EXPECT_THROW(sim::unframeSnapshot(""), sim::SnapshotError);

    sim::Serializer ser;
    ser.u64(42);
    std::string framed = sim::frameSnapshot(ser.blob());
    // Every possible truncation point must fail cleanly.
    for (std::size_t n = 0; n < framed.size(); ++n) {
        EXPECT_THROW(sim::unframeSnapshot(framed.substr(0, n)),
                     sim::SnapshotError)
            << "truncated to " << n << " bytes";
    }
}

TEST(SnapshotFormat, RejectsBadMagicVersionAndChecksum)
{
    sim::Serializer ser;
    ser.u64(42);
    std::string framed = sim::frameSnapshot(ser.blob());

    std::string bad_magic = framed;
    bad_magic[0] = 'X';
    EXPECT_THROW(sim::unframeSnapshot(bad_magic), sim::SnapshotError);

    // The u64 version field sits right after the 8-byte magic.
    std::string bad_version = framed;
    bad_version[8] = 99;
    try {
        sim::unframeSnapshot(bad_version);
        FAIL() << "wrong version accepted";
    } catch (const sim::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }

    std::string bad_payload = framed;
    bad_payload.back() ^= 0x5A;
    EXPECT_THROW(sim::unframeSnapshot(bad_payload), sim::SnapshotError);
}

TEST(SnapshotFormat, RejectsTrailingGarbageOnRestore)
{
    harness::Session first(testConfig(), kernels::Params{}.seed);
    runOn(first, "gjk");
    std::string payload = sim::unframeSnapshot(first.checkpoint());

    harness::Session resumed(testConfig(), kernels::Params{}.seed);
    EXPECT_THROW(
        resumed.restore(sim::frameSnapshot(payload + std::string(8, '\0'))),
        sim::SnapshotError);
}

TEST(SnapshotFormat, MissingFileIsASnapshotError)
{
    harness::Session s(testConfig(), kernels::Params{}.seed);
    EXPECT_THROW(s.restoreFrom("no-such-snapshot.ck"), sim::SnapshotError);
}

} // namespace
