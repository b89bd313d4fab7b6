#include "harness/session.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <vector>

#include "harness/hostprof.hh"
#include "harness/report.hh"
#include "runtime/ctx.hh"
#include "runtime/layout.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"
#include "sim/trace_json.hh"

namespace harness {

namespace {

/**
 * CI post-mortem hook: when COHESION_RECORDER_DUMP_DIR is set, write
 * the recorder ring and the failure text there so the workflow can
 * upload them as artifacts. Best-effort — a failed write must not mask
 * the original error.
 */
void
dumpPostMortem(const arch::Chip &chip, const std::string &kernel_name,
               std::uint64_t seed, const char *what)
{
    const char *dir = std::getenv("COHESION_RECORDER_DUMP_DIR");
    if (!dir || !*dir || !chip.recorder().enabled())
        return;
    std::string stem = std::string(dir) + "/" + kernel_name + "-" +
                       std::to_string(seed) + "-postmortem";
    std::ofstream bin(stem + ".cfr", std::ios::binary);
    if (bin) {
        std::string blob = chip.recorder().serialize();
        bin.write(blob.data(),
                  static_cast<std::streamsize>(blob.size()));
    }
    std::ofstream txt(stem + ".txt");
    if (txt)
        txt << what << "\n" << chip.postMortemHistory();
}

} // namespace

Session::Session(const arch::MachineConfig &cfg,
                 std::uint64_t workload_seed)
    : _cfg(cfg), _cfgEff(cfg)
{
    if (_cfgEff.faults.anyEnabled() && _cfgEff.faults.seed == 0) {
        // Chain the fault stream off the workload seed so one --seed
        // reproduces the entire session, faults included.
        _cfgEff.faults.seed = sim::deriveSeed(workload_seed, "fault");
    }
    _chip = std::make_unique<arch::Chip>(_cfgEff,
                                         runtime::Layout::tableBase);
    _rt = std::make_unique<runtime::CohesionRuntime>(*_chip);
}

Session::~Session() = default;

std::string
Session::checkpoint()
{
    // Auditor pre-checkpoint pass: never snapshot an inconsistent
    // machine (throws coherence::AuditError). The structural quiescence
    // conditions are then enforced by checkpointState itself.
    _chip->verifyNow();
    sim::Serializer ser;
    _chip->checkpointState(ser);
    _rt->checkpointState(ser);
    return sim::frameSnapshot(ser.blob());
}

void
Session::checkpointTo(const std::string &path)
{
    sim::writeSnapshotFile(path, checkpoint());
}

void
Session::restore(const std::string &framed)
{
    std::string payload = sim::unframeSnapshot(framed);
    sim::Deserializer des(payload);
    _chip->restoreState(des);
    _rt->restoreState(des);
    if (!des.atEnd())
        throw sim::SnapshotError("snapshot has trailing bytes");
}

void
Session::restoreFrom(const std::string &path)
{
    restore(sim::readSnapshotFile(path));
}

RunResult
Session::run(kernels::Kernel &kernel, const RunOptions &opts)
{
    const auto wall0 = std::chrono::steady_clock::now();
    auto wallSec = [&wall0]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall0)
            .count();
    };
    sim::HostProfiler::Profile prof0;
    if (opts.hostProfile) {
        sim::HostProfiler::enable();
        // The run's profile is this thread's accumulation delta, so
        // concurrent sweep jobs on sibling workers don't bleed in.
        prof0 = sim::HostProfiler::threadSnapshot();
    }
    sim::HostProfiler::Scope setup(sim::HostProfiler::Phase::Setup);

    arch::Chip &chip = *_chip;
    runtime::CohesionRuntime &rt = *_rt;

    if (opts.audit)
        chip.enableAudit();
    // Later runs of a session (and restored sessions) keep the live
    // ring rolling: re-enabling would clear it and fork the behavior
    // of an uninterrupted session from a restored one.
    if (opts.recorderCapacity && !chip.recorder().enabled())
        chip.enableRecorder(opts.recorderCapacity);
    if (unsigned top_n = opts.profileTopN ? opts.profileTopN
                                          : (opts.statsJson ? 8u : 0u))
        chip.enableLineProfiler(top_n);
    if (opts.latency)
        chip.enableLatencyAccounting();

    // The observers of the record stream are this run's: they detach
    // on every exit path, so a chip that outlives a failed run never
    // points at the writer below (the guard is declared after it, so
    // it runs first).
    std::optional<sim::TraceJsonWriter> trace_json;
    struct Detach
    {
        arch::Chip &chip;
        ~Detach()
        {
            chip.setNarration(0, ~mem::Addr(0));
            chip.renderTo(nullptr);
        }
    } detach{chip};
    chip.setNarration(opts.traceMask, opts.watchLine);
    if (opts.traceJson) {
        trace_json.emplace(*opts.traceJson);
        chip.renderTo(&*trace_json);
    }

    kernel.setup(rt);

    sim::Tick period = opts.samplePeriod;
    if (period == 0 && opts.sampleOccupancy)
        period = 1000;
    if (period)
        chip.enableOccupancySampling(period);

    if (opts.progress)
        chip.setProgressHook(opts.progress);

    std::vector<sim::CoTask> workers;
    workers.reserve(chip.totalCores());
    for (unsigned c = 0; c < chip.totalCores(); ++c)
        workers.push_back(kernel.worker(runtime::Ctx(rt, chip.core(c))));
    for (auto &w : workers)
        w.start();
    setup.close();

    sim::Tick end = 0;
    try {
        end = chip.runUntilQuiescent();

        for (unsigned c = 0; c < workers.size(); ++c) {
            workers[c].rethrow();
            fatal_if(!workers[c].done(), kernel.name(), ": core ", c,
                     " did not finish (deadlock?) at cycle ", end);
        }

        if (opts.audit) {
            sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::Audit);
            chip.auditNow(); // final pass over the quiesced machine
        }
    } catch (const std::exception &e) {
        dumpPostMortem(chip, kernel.name(), kernel.params().seed,
                       e.what());
        throw;
    }

    if (!opts.skipVerify) {
        sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::Verify);
        kernel.verify(rt);
    }

    RunResult r;
    r.cycles = end;
    r.instructions = chip.totalInstructions();
    r.eventsRun = chip.totalEventsRun();
    r.msgs = chip.aggregateMessages();

    for (unsigned c = 0; c < chip.numClusters(); ++c) {
        arch::Cluster &cl = chip.cluster(c);
        r.flushIssued += cl.flushesIssued();
        r.flushUseful += cl.flushesUseful();
        r.invIssued += cl.invsIssued();
        r.invUseful += cl.invsUseful();
        r.l2Hits += cl.l2Hits();
        r.l2Misses += cl.l2Misses();
    }

    for (unsigned b = 0; b < chip.numBanks(); ++b) {
        arch::L3Bank &bank = chip.bank(b);
        r.transitions += bank.transitions();
        r.tableLookups += bank.tableLookups();
        r.tableCacheHits += bank.tableCache().hits();
        r.tableCacheMisses += bank.tableCache().misses();
        r.dirEvictions += bank.dirEvictions();
        r.atomics += bank.atomics();
        r.mergeConflicts += bank.mergeConflicts();
        r.dirInsertions += bank.dirInsertions();
        r.dirPeak += bank.dirPeakEntries();
        r.l3Hits += bank.l3Hits();
        r.l3Misses += bank.l3Misses();
    }

    if (period) {
        r.dirAvgTotal = chip.occupancyAverageTotal();
        r.dirMax = chip.occupancyMax();
        for (unsigned s = 0; s < arch::numSegments; ++s) {
            r.dirAvgBySegment[s] =
                chip.occupancyAverage(static_cast<arch::Segment>(s));
        }
        r.timeSeries = chip.timeSeries().data();
    }

    r.seed = kernel.params().seed;
    r.faultSeed = chip.faults().enabled() ? chip.faults().seed() : 0;
    r.faultsInjected = chip.faults().totalInjected();
    r.faultsRecovered = chip.faults().totalRecovered();

    r.dramAccesses = chip.dram().totalAccesses();
    r.fabricBytes = chip.fabric().bytesUp() + chip.fabric().bytesDown();

    for (unsigned c = 0; c < arch::numMsgClasses; ++c)
        r.reqRetries[c] = chip.reqRetries(static_cast<arch::MsgClass>(c));
    r.respRetries = chip.respRetries();

    if (chip.recorder().enabled()) {
        sim::HostProfiler::Scope hp(
            sim::HostProfiler::Phase::TraceExport);
        r.recorderDump = chip.recorder().serialize();
        r.recorderRecorded = chip.recorder().recorded();
        if (!opts.recorderDumpPath.empty()) {
            std::ofstream out(opts.recorderDumpPath, std::ios::binary);
            fatal_if(!out, "cannot write recorder dump ",
                     opts.recorderDumpPath);
            out.write(r.recorderDump.data(),
                      static_cast<std::streamsize>(r.recorderDump.size()));
        }
    }

    if (chip.latencyOn())
        r.latency = chip.latAcc().totals();

    for (unsigned c = 0; c < arch::numMsgClasses; ++c)
        r.reqLatency[c] = chip.reqLatency(static_cast<arch::MsgClass>(c));
    r.respLatency = chip.respLatency();
    r.probeLatency = chip.probeLatency();
    r.fabricDelayUp = chip.fabric().delayUp();
    r.fabricDelayDown = chip.fabric().delayDown();

    if (opts.statsJson) {
        sim::HostProfiler::Scope hp(
            sim::HostProfiler::Phase::StatsExport);
        sim::StatRegistry reg;
        buildStatRegistry(_cfg, r, reg);
        chip.registerStats(reg);
        // host.* rides along in statsJson but is registered only
        // here, never by the chip: determinism goldens hash the chip
        // registry and must not see nondeterministic host timings.
        if (opts.hostProfile) {
            addHostStats(
                reg, sim::HostProfiler::threadSnapshot().since(prof0),
                wallSec());
        }
        // Wall-clock companion to chip.latency.*: registered only by
        // the runner (never the chip, same rule as host.*) so the
        // deterministic breakdown and the nondeterministic host timing
        // live under distinct prefixes ("latency.host_*" is in
        // cohesion-diff's default ignore set).
        if (opts.latency)
            reg.addScalar("latency.host_wall_sec", wallSec());
        reg.dumpJson(*opts.statsJson);
    }
    if (trace_json) {
        sim::HostProfiler::Scope hp(
            sim::HostProfiler::Phase::TraceExport);
        trace_json->finish();
    }
    if (opts.hostProfile)
        r.hostProfile = sim::HostProfiler::threadSnapshot().since(prof0);
    r.hostWallSec = wallSec();
    return r;
}

} // namespace harness
