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
 * stat-registry CSV hash. Any field missing from a snapshot()
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
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

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

    // The file holds exactly checkpoint()'s bytes: one CCKPT1 frame.
    std::ifstream in(path, std::ios::binary);
    std::string file{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    EXPECT_TRUE(file == first.checkpoint());

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

/** One committed snapshot: a testConfig() variant, the options of the
 *  sobel run before the checkpoint, and the FNV-1a of the framed
 *  CCKPT1 bytes. */
struct DigestRow
{
    const char *name;
    arch::MachineConfig cfg;
    harness::RunOptions opts;
    std::uint64_t digest;
};

std::vector<DigestRow>
digestRows()
{
    std::vector<DigestRow> rows;
    auto row = [&](const char *name, std::uint64_t digest) -> DigestRow & {
        rows.push_back(DigestRow{name, testConfig(), {}, digest});
        return rows.back();
    };
    row("msi", 0xc1d60003cbb833baull);
    row("dir4b", 0x8f37f59156ee8f78ull).cfg.backend = "dir4b";
    row("dls", 0x29c4bee86fc8aae4ull).cfg.backend = "dls";
    row("hwcc", 0xb88551e1e94ab166ull).cfg.mode =
        arch::CoherenceMode::HWccOnly;
    row("swcc", 0x0d4220cd90e818a3ull).cfg.mode =
        arch::CoherenceMode::SWccOnly;
    {
        arch::MachineConfig &c =
            row("table-cache-sparse", 0x2500dd7861191a5aull).cfg;
        c.tableCacheEntries = 64;
        c.directory = {256, 8, coherence::SharerKind::FullMap, 4};
    }
    {
        arch::MachineConfig &c =
            row("hwcc-mesi-sparse-dir4b", 0x20e4e94b2b024ba2ull).cfg;
        c.mode = arch::CoherenceMode::HWccOnly;
        c.useMesi = true;
        c.directory = {128, 4, coherence::SharerKind::LimitedPtr, 4};
    }
    {
        arch::MachineConfig &c = row("faults", 0x47e18a306481edaeull).cfg;
        c.faults.site(sim::FaultSite::FabricC2BDrop).rate = 0.02;
        c.faults.site(sim::FaultSite::FabricB2CDup).rate = 0.01;
        c.faults.seed = 7;
    }
    {
        harness::RunOptions &o = row("observers", 0x597985a9aa0f102aull).opts;
        o.recorderCapacity = 0;
        o.latency = true;
        o.sampleOccupancy = true;
    }
    return rows;
}

/** The committed bytes of a snapshot taken after one sobel run, one
 *  row per machine shape the format encodes differently: each
 *  backend and mode, the table cache and a sparse set-associative
 *  directory, MESI with Dir4B sharer sets, live fault lanes, and the
 *  observer-dependent sections (recorder off, occupancy samplers on).
 *  The blob carries the queue record, every component's state, the
 *  stat histograms and the flight-recorder ring in its staged merge
 *  order, so a change to the wire format or to the event schedule
 *  moves a digest. Re-record only with a recorded reason (a deliberate
 *  format or timing-model change). Restoring a row's blob and
 *  checkpointing again must give the same bytes. Observers (narration,
 *  the trace-event renderer) are not part of the machine, so the first
 *  row traced into every view must produce the same bytes too. */
TEST(Checkpoint, SnapshotBytesMatchCommittedDigest)
{
    std::ostringstream json;
    harness::RunOptions traced;
    traced.traceJson = &json;
    traced.traceMask = arch::parseTraceGroups("all");
    const std::vector<DigestRow> rows = digestRows();
    for (const DigestRow &row : rows) {
        std::vector<const harness::RunOptions *> runs{&row.opts};
        if (&row == &rows.front())
            runs.push_back(&traced);
        for (const harness::RunOptions *opts : runs) {
            SCOPED_TRACE(std::string(row.name) +
                         (opts == &traced ? " traced" : " plain"));
            harness::Session session(row.cfg, kernels::Params{}.seed);
            {
                sim::LogCapture narration;
                runOn(session, "sobel", *opts);
            }
            std::string blob = session.checkpoint();
            EXPECT_FALSE(blob.empty());
            EXPECT_EQ(fnv1a(blob), row.digest)
                << "snapshot digest 0x" << std::hex << fnv1a(blob);

            harness::Session resumed(row.cfg, kernels::Params{}.seed);
            resumed.restore(blob);
            EXPECT_TRUE(resumed.checkpoint() == blob)
                << "restore-then-checkpoint changed the bytes";
        }
    }
    EXPECT_FALSE(json.str().empty());
}

// --- CCKPT1 container ---------------------------------------------------

TEST(SnapshotFormat, FrameRoundTrip)
{
    std::uint64_t word = 0xDEADBEEFCAFEF00DULL;
    double real = 3.25;
    sim::Archive ser;
    ser.tag("unit");
    ser(word);
    ser.tag("hello");
    ser(real);

    std::string framed = sim::frameSnapshot(ser.payload());
    // A reading Archive views its input; keep the payload alive.
    std::string payload = sim::unframeSnapshot(framed);
    sim::Archive des(payload);
    word = 0;
    real = 0;
    des.tag("unit");
    des(word);
    EXPECT_EQ(word, 0xDEADBEEFCAFEF00DULL);
    des.tag("hello");
    des(real);
    EXPECT_EQ(real, 3.25);
    EXPECT_TRUE(des.atEnd());
}

TEST(SnapshotFormat, RejectsGarbageAndTruncation)
{
    EXPECT_THROW(sim::unframeSnapshot("garbage"), sim::SnapshotError);
    EXPECT_THROW(sim::unframeSnapshot(""), sim::SnapshotError);

    std::uint64_t answer = 42;
    sim::Archive ser;
    ser(answer);
    std::string framed = sim::frameSnapshot(ser.payload());
    // Every possible truncation point must fail cleanly.
    for (std::size_t n = 0; n < framed.size(); ++n) {
        EXPECT_THROW(sim::unframeSnapshot(framed.substr(0, n)),
                     sim::SnapshotError)
            << "truncated to " << n << " bytes";
    }
}

TEST(SnapshotFormat, RejectsBadMagicVersionAndChecksum)
{
    std::uint64_t answer = 42;
    sim::Archive ser;
    ser(answer);
    std::string framed = sim::frameSnapshot(ser.payload());

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

/** Every field passes through one reader, which checks it against what
 *  the field can hold before it is stored. */
TEST(SnapshotFormat, ArchiveRejectsOutOfRangeFields)
{
    auto words = [](std::initializer_list<std::uint64_t> ws) {
        sim::Archive ar;
        for (std::uint64_t w : ws) {
            std::uint64_t v = w;
            ar(v);
        }
        return ar.payload();
    };

    // A count must leave at least one word per element.
    std::string fits = words({2, 0, 0});
    sim::Archive fits_ar(fits);
    std::uint64_t n = 0;
    fits_ar.count(n);
    EXPECT_EQ(n, 2u);
    std::string overruns = words({3, 0, 0});
    sim::Archive overruns_ar(overruns);
    EXPECT_THROW(overruns_ar.count(n), sim::SnapshotError);

    std::string page = words({65536});
    sim::Archive page_ar(page);
    std::uint32_t page_no = 0;
    EXPECT_THROW(page_ar.below(page_no, 65536), sim::SnapshotError);

    std::string state = words({4});
    sim::Archive state_ar(state);
    cache::CohState s = cache::CohState::Invalid;
    EXPECT_THROW(state_ar.below(s, cache::numCohStates), sim::SnapshotError);

    std::string clusters = words({2});
    sim::Archive clusters_ar(clusters);
    EXPECT_THROW(clusters_ar.expect(4u, "cluster count"), sim::SnapshotError);

    std::string flag = words({2});
    sim::Archive flag_ar(flag);
    bool b = false;
    EXPECT_THROW(flag_ar(b), sim::SnapshotError);

    std::string wide = words({std::uint64_t(1) << 32});
    sim::Archive wide_ar(wide);
    std::uint32_t narrow = 0;
    EXPECT_THROW(wide_ar(narrow), sim::SnapshotError);
}

/** Offset just past the first section tag (a u64 length, then the
 *  name) whose name starts with @p prefix. */
std::size_t
afterTag(const std::string &payload, const std::string &prefix)
{
    for (std::size_t at = payload.find(prefix); at != std::string::npos;
         at = payload.find(prefix, at + 1)) {
        if (at < 8)
            continue;
        std::uint64_t len = 0;
        std::memcpy(&len, payload.data() + at - 8, 8);
        if (len >= prefix.size() && len <= 64 && at + len <= payload.size())
            return at + len;
    }
    ADD_FAILURE() << "no section tag " << prefix;
    return 0;
}

/** A snapshot whose framing is intact but whose fields are not: a
 *  page number past the page table, list lengths the payload cannot
 *  hold, an out-of-range line state. Each must be a SnapshotError (so
 *  cohesion-sim --restore exits 4), never an allocation or an index
 *  taken on the corrupt value. */
TEST(SnapshotFormat, CorruptFieldsAreSnapshotErrors)
{
    harness::Session first(testConfig(), kernels::Params{}.seed);
    runOn(first, "gjk");
    const std::string payload = sim::unframeSnapshot(first.checkpoint());

    struct Corruption
    {
        const char *tag;
        std::size_t offset;
        std::uint64_t value;
    };
    const Corruption cases[] = {
        {"store", 8, 65536},                       // first page number
        {"coarse-regions", 0, std::uint64_t(1) << 40}, // region count
        {"recorder", 0, std::uint64_t(1) << 31},   // ring capacity
        {"cache:", 32, 200},                       // first line's state
    };
    for (const Corruption &c : cases) {
        SCOPED_TRACE(c.tag);
        std::string bad = payload;
        std::size_t at = afterTag(bad, c.tag) + c.offset;
        ASSERT_LE(at + 8, bad.size());
        for (unsigned i = 0; i < 8; ++i)
            bad[at + i] = static_cast<char>((c.value >> (8 * i)) & 0xFF);
        harness::Session resumed(testConfig(), kernels::Params{}.seed);
        EXPECT_THROW(resumed.restore(sim::frameSnapshot(bad)),
                     sim::SnapshotError);
    }
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
