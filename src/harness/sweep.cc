#include "harness/sweep.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "coherence/auditor.hh"
#include "harness/progress.hh"
#include "harness/session.hh"
#include "kernels/registry.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace sim {

const char *
jobOutcomeName(JobOutcome o)
{
    switch (o) {
      case JobOutcome::Ok:
        return "ok";
      case JobOutcome::Audit:
        return "audit-error";
      case JobOutcome::Deadlock:
        return "deadlock-error";
      case JobOutcome::Panic:
        return "panic";
      case JobOutcome::Verify:
        return "verify-error";
      case JobOutcome::Unknown:
        return "unknown-error";
      case JobOutcome::Skipped:
        return "skipped";
    }
    return "?";
}

SweepEngine::SweepEngine(unsigned threads) : _threads(threads)
{
    if (_threads == 0) {
        _threads = std::thread::hardware_concurrency();
        if (_threads == 0)
            _threads = 1;
    }
}

JobResult
SweepEngine::runOne(const SweepJob &job, JobTelemetry *telemetry)
{
    JobResult r;
    r.label = job.label;
    if (telemetry)
        telemetry->state.store(JobTelemetry::Running,
                               std::memory_order_release);

    // Everything the machine prints — including the message of the
    // panic/fatal that kills it — lands in this job's private buffer,
    // so parallel failure dumps never interleave.
    LogCapture capture;
    auto t0 = std::chrono::steady_clock::now();
    try {
        r.run = telemetry && job.bodyT ? job.bodyT(telemetry)
                                       : job.body();
        r.outcome = JobOutcome::Ok;
    } catch (const coherence::AuditError &e) {
        r.outcome = JobOutcome::Audit;
        r.what = e.what();
    } catch (const arch::DeadlockError &e) {
        r.outcome = JobOutcome::Deadlock;
        r.what = e.what();
    } catch (const std::logic_error &e) {
        r.outcome = JobOutcome::Panic;
        r.what = e.what();
    } catch (const std::runtime_error &e) {
        r.outcome = JobOutcome::Verify;
        r.what = e.what();
    } catch (const std::exception &e) {
        r.outcome = JobOutcome::Unknown;
        r.what = e.what();
    } catch (...) {
        r.outcome = JobOutcome::Unknown;
        r.what = "non-std::exception thrown";
    }
    r.wallSec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    r.log = capture.text();
    if (telemetry) {
        if (r.ok())
            telemetry->events.store(r.run.eventsRun,
                                    std::memory_order_relaxed);
        telemetry->state.store(r.ok() ? JobTelemetry::Done
                                      : JobTelemetry::Failed,
                               std::memory_order_release);
    }
    return r;
}

std::vector<JobResult>
SweepEngine::run(const std::vector<SweepJob> &jobs) const
{
    return run(jobs, SweepProgress{});
}

std::vector<JobResult>
SweepEngine::run(const std::vector<SweepJob> &jobs,
                 const SweepProgress &progress) const
{
    std::vector<JobResult> results(jobs.size());
    if (jobs.empty())
        return results;
    unsigned workers = _threads;
    if (workers > jobs.size())
        workers = static_cast<unsigned>(jobs.size());

    // Telemetry slots and the monitor that samples them. A deque so
    // the non-movable atomic slots construct in place. The monitor
    // strictly reads; the ETA feeds off completed-job wall times.
    const bool live = progress.enabled;
    std::deque<JobTelemetry> slots(live ? jobs.size() : 0);
    std::atomic<std::uint64_t> doneWallUs{0};

    auto stopping = [&]() {
        return progress.stop &&
               progress.stop->load(std::memory_order_acquire);
    };

    std::mutex done_mutex;
    std::vector<char> ran(jobs.size(), 0);
    auto execJob = [&](std::size_t idx) {
        JobTelemetry *t = live ? &slots[idx] : nullptr;
        results[idx] = runOne(jobs[idx], t);
        ran[idx] = 1;
        doneWallUs.fetch_add(
            static_cast<std::uint64_t>(results[idx].wallSec * 1e6),
            std::memory_order_relaxed);
        if (progress.onJobDone) {
            std::lock_guard<std::mutex> g(done_mutex);
            progress.onJobDone(idx, results[idx]);
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    auto makeBeat = [&](std::uint64_t *last_events,
                        std::chrono::steady_clock::time_point *last_t,
                        bool final) {
        harness::SweepBeat b;
        b.total = jobs.size();
        b.final = final;
        std::uint64_t events = 0;
        for (JobTelemetry &s : slots) {
            std::uint8_t st = s.state.load(std::memory_order_acquire);
            events += s.events.load(std::memory_order_relaxed);
            if (st == JobTelemetry::Done) {
                ++b.done;
            } else if (st == JobTelemetry::Failed) {
                ++b.done;
                ++b.failed;
            } else if (st == JobTelemetry::Running) {
                ++b.running;
            }
        }
        auto now = std::chrono::steady_clock::now();
        b.events = events;
        b.elapsedSec =
            std::chrono::duration<double>(now - t0).count();
        double dt =
            std::chrono::duration<double>(now - *last_t).count();
        b.eventsPerSec =
            dt > 0 ? static_cast<double>(events - *last_events) / dt : 0;
        *last_events = events;
        *last_t = now;
        if (b.done > 0 && !final) {
            double avg_wall =
                static_cast<double>(
                    doneWallUs.load(std::memory_order_relaxed)) /
                1e6 / static_cast<double>(b.done);
            b.etaSec = avg_wall *
                       static_cast<double>(b.total - b.done) /
                       static_cast<double>(workers ? workers : 1);
        }
        return b;
    };
    auto emit = [&](const harness::SweepBeat &b) {
        if (progress.human)
            harness::printSweepBeat(std::cerr, b);
        if (progress.jsonl)
            harness::writeSweepBeatJsonl(*progress.jsonl, b);
    };

    std::atomic<bool> stop_monitor{false};
    std::thread monitor;
    if (live) {
        monitor = std::thread([&]() {
            std::uint64_t last_events = 0;
            auto last_t = t0;
            auto next = t0 + std::chrono::duration<double>(
                                 progress.intervalSec);
            while (!stop_monitor.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                if (std::chrono::steady_clock::now() < next)
                    continue;
                emit(makeBeat(&last_events, &last_t, false));
                next += std::chrono::duration<double>(
                    progress.intervalSec);
            }
            // Final summary beat with everything accounted for.
            emit(makeBeat(&last_events, &last_t, true));
        });
    }

    // One shared cursor: a worker claims the next unstarted job until
    // none is left or a stop is requested. Results are indexed by
    // submission order, so which worker ran a job never shows.
    std::atomic<std::size_t> cursor{0};
    auto worker = [&]() {
        while (!stopping()) {
            std::size_t idx = cursor.fetch_add(1, std::memory_order_relaxed);
            if (idx >= jobs.size())
                return;
            execJob(idx);
        }
    };
    if (workers <= 1) {
        worker(); // inline: the bit-exact serial reference (--jobs 1)
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    if (live) {
        stop_monitor.store(true, std::memory_order_release);
        monitor.join();
    }

    // Jobs a cooperative stop kept from ever starting report as
    // Skipped (with their label, so callers can resume them later).
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!ran[i]) {
            results[i] = JobResult{};
            results[i].label = jobs[i].label;
            results[i].outcome = JobOutcome::Skipped;
        }
    }
    return results;
}

namespace {

harness::RunOptions
optsFor(const SweepPoint &p)
{
    harness::RunOptions opts;
    opts.sampleOccupancy = p.sampleOccupancy;
    opts.skipVerify = p.skipVerify;
    opts.audit = p.audit;
    opts.hostProfile = p.hostProfile;
    return opts;
}

/**
 * Process-global cache of warm-machine snapshots, keyed by everything
 * that shapes warm-up state. The first job with a given key simulates
 * the warm-up and publishes the snapshot; concurrent jobs with the
 * same key wait for it instead of redundantly re-simulating. A failed
 * build abandons the slot so a sibling can retry.
 */
class WarmupCache
{
  public:
    /** Returns the snapshot if ready; "" if the caller should build
     *  it (it then must publish() or abandon()). Blocks while another
     *  thread is building the same key. */
    std::string
    acquire(const std::string &key)
    {
        std::unique_lock<std::mutex> lk(_m);
        for (;;) {
            Slot &s = _slots[key];
            if (s.ready)
                return s.blob;
            if (!s.building) {
                s.building = true;
                return "";
            }
            _cv.wait(lk);
        }
    }

    void
    publish(const std::string &key, std::string blob)
    {
        std::lock_guard<std::mutex> lk(_m);
        Slot &s = _slots[key];
        s.blob = std::move(blob);
        s.ready = true;
        s.building = false;
        _cv.notify_all();
    }

    void
    abandon(const std::string &key)
    {
        std::lock_guard<std::mutex> lk(_m);
        _slots[key].building = false;
        _cv.notify_all();
    }

  private:
    struct Slot
    {
        bool building = false;
        bool ready = false;
        std::string blob;
    };

    std::mutex _m;
    std::condition_variable _cv;
    std::map<std::string, Slot> _slots;
};

WarmupCache &
warmupCache()
{
    static WarmupCache cache;
    return cache;
}

/** Everything that shapes the warm machine, folded into a cache key.
 *  Conservative: any field that could matter is included, so a
 *  collision can only happen between genuinely identical warm-ups. */
std::string
warmupKey(const SweepPoint &p)
{
    std::ostringstream os;
    os << p.kernel << '|' << p.params.seed << '|' << p.params.scale
       << '|' << p.warmupRuns << '|'
       << static_cast<unsigned>(p.cfg.mode) << '|' << p.cfg.numClusters
       << '|' << p.cfg.coresPerCluster << '|' << p.cfg.numL3Banks << '|'
       << p.cfg.numChannels << '|' << p.cfg.l1iBytes << '|'
       << p.cfg.l1iAssoc << '|' << p.cfg.l1dBytes << '|' << p.cfg.l1dAssoc
       << '|' << p.cfg.l2Bytes << '|' << p.cfg.l2Assoc << '|'
       << p.cfg.l3BankBytes << '|' << p.cfg.l3Assoc << '|'
       << p.cfg.l1Latency << '|' << p.cfg.l2Latency << '|'
       << p.cfg.l2Ports << '|' << p.cfg.l3Latency << '|' << p.cfg.l3Ports
       << '|' << p.cfg.netLatency << '|' << p.cfg.linkBytesPerCycle
       << '|' << p.cfg.dram.rowHit << '|' << p.cfg.dram.rowMiss << '|'
       << p.cfg.dram.burst << '|' << p.cfg.dram.writeRecovery << '|'
       << p.cfg.directory.entries << '|' << p.cfg.directory.assoc << '|'
       << static_cast<unsigned>(p.cfg.directory.sharerKind) << '|'
       << p.cfg.directory.pointers << '|' << p.cfg.backend << '|'
       << p.cfg.tableCacheEntries
       << '|' << p.cfg.useMesi << '|' << p.cfg.slackWindow << '|'
       << p.cfg.faults.seed << '|' << p.cfg.faults.pumpPeriod;
    for (const FaultSiteConfig &s : p.cfg.faults.sites)
        os << '|' << s.rate << ',' << s.max << ',' << s.delay;
    return os.str();
}

/** Run one declarative point: optional (cached) warm-up runs on a
 *  persistent machine, then the measured run. */
harness::RunResult
runPoint(const SweepPoint &p, const harness::RunOptions &opts)
{
    if (p.warmupRuns == 0) {
        return harness::runKernel(p.cfg, kernels::kernelFactory(p.kernel),
                                  p.params, opts);
    }
    kernels::KernelFactory factory = kernels::kernelFactory(p.kernel);
    harness::Session session(p.cfg, p.params.seed);
    const std::string key = warmupKey(p);
    std::string blob = warmupCache().acquire(key);
    if (!blob.empty()) {
        session.restore(blob);
    } else {
        try {
            harness::RunOptions wopts = opts;
            wopts.statsJson = nullptr;
            wopts.traceJson = nullptr;
            for (unsigned i = 0; i < p.warmupRuns; ++i) {
                auto kernel = factory(p.params);
                session.run(*kernel, wopts);
            }
            warmupCache().publish(key, session.checkpoint());
        } catch (...) {
            warmupCache().abandon(key);
            throw;
        }
    }
    auto kernel = factory(p.params);
    return session.run(*kernel, opts);
}

} // namespace

SweepJob
makeJob(const SweepPoint &p)
{
    SweepJob job;
    job.label = p.label;
    job.body = [p]() { return runPoint(p, optsFor(p)); };
    job.bodyT = [p](JobTelemetry *t) {
        harness::RunOptions opts = optsFor(p);
        // The hook only stores into the job's telemetry slot; the
        // monitor reads it. Nothing flows back into the simulation.
        opts.progress = [t](sim::Tick tick, std::uint64_t events) {
            t->tick.store(tick, std::memory_order_relaxed);
            t->events.store(events, std::memory_order_relaxed);
        };
        return runPoint(p, opts);
    };
    return job;
}

// --------------------------------------------------------------------
// Declarative spec
// --------------------------------------------------------------------

namespace {

bool
parseMode(std::string_view name, arch::CoherenceMode *out)
{
    if (name == "swcc") {
        *out = arch::CoherenceMode::SWccOnly;
    } else if (name == "hwcc") {
        *out = arch::CoherenceMode::HWccOnly;
    } else if (name == "cohesion") {
        *out = arch::CoherenceMode::Cohesion;
    } else {
        return false;
    }
    return true;
}

const char *
modeToken(arch::CoherenceMode m)
{
    switch (m) {
      case arch::CoherenceMode::SWccOnly:
        return "swcc";
      case arch::CoherenceMode::HWccOnly:
        return "hwcc";
      case arch::CoherenceMode::Cohesion:
        return "cohesion";
    }
    return "?";
}

bool
specFail(std::string *err, const std::string &why)
{
    if (err)
        *err = why;
    return false;
}

} // namespace

bool
SweepSpec::parse(std::string_view json_text, SweepSpec *out,
                 std::string *err)
{
    JsonValue doc;
    std::string perr;
    if (!parseJson(json_text, &doc, &perr))
        return specFail(err, "sweep spec: " + perr);
    if (!doc.isObject())
        return specFail(err, "sweep spec: top level must be an object");

    SweepSpec spec;

    if (const JsonValue *m = doc.find("machine")) {
        if (!m->isObject())
            return specFail(err, "sweep spec: machine must be an object");
        if (const JsonValue *v = m->find("clusters")) {
            if (!v->isNumber() || v->number < 1)
                return specFail(err, "sweep spec: machine.clusters must "
                                     "be a positive number");
            spec.clusters = static_cast<unsigned>(v->number);
        }
        if (const JsonValue *v = m->find("paper")) {
            if (!v->isBool())
                return specFail(err,
                                "sweep spec: machine.paper must be bool");
            spec.paper = v->boolean;
        }
        if (const JsonValue *v = m->find("scale")) {
            if (!v->isNumber() || v->number < 1)
                return specFail(err, "sweep spec: machine.scale must be "
                                     "a positive number");
            spec.scale = static_cast<unsigned>(v->number);
        }
    }

    if (const JsonValue *k = doc.find("kernels")) {
        if (!k->isArray())
            return specFail(err, "sweep spec: kernels must be an array");
        for (const JsonValue &v : k->arr) {
            if (!v.isString())
                return specFail(err,
                                "sweep spec: kernels entries are strings");
            if (v.str == "all") {
                for (const std::string &name : kernels::allKernelNames())
                    spec.kernels.push_back(name);
            } else if (!kernels::isKernelName(v.str)) {
                return specFail(err, "sweep spec: unknown kernel \"" +
                                         v.str + "\"");
            } else {
                spec.kernels.push_back(v.str);
            }
        }
    }

    if (const JsonValue *m = doc.find("modes")) {
        if (!m->isArray())
            return specFail(err, "sweep spec: modes must be an array");
        for (const JsonValue &v : m->arr) {
            arch::CoherenceMode mode;
            if (!v.isString() || !parseMode(v.str, &mode))
                return specFail(err, "sweep spec: unknown mode \"" +
                                         v.str + "\"");
            spec.modes.push_back(mode);
        }
    }

    if (const JsonValue *b = doc.find("backends")) {
        if (!b->isArray())
            return specFail(err, "sweep spec: backends must be an array");
        for (const JsonValue &v : b->arr) {
            if (!v.isString())
                return specFail(err,
                                "sweep spec: backends entries are strings");
            if (v.str == "all") {
                for (const std::string &name : coherence::backendNames())
                    spec.backends.push_back(name);
            } else if (!coherence::backendKnown(v.str)) {
                return specFail(err, "sweep spec: unknown backend \"" +
                                         v.str + "\" (registered: " +
                                         coherence::backendListString() +
                                         ")");
            } else {
                spec.backends.push_back(v.str);
            }
        }
    }

    if (const JsonValue *s = doc.find("seeds")) {
        if (!s->isArray())
            return specFail(err, "sweep spec: seeds must be an array");
        for (const JsonValue &v : s->arr) {
            if (!v.isNumber())
                return specFail(err,
                                "sweep spec: seeds entries are numbers");
            spec.seeds.push_back(static_cast<std::uint64_t>(v.number));
        }
    }

    if (const JsonValue *d = doc.find("directories")) {
        if (!d->isArray())
            return specFail(err,
                            "sweep spec: directories must be an array");
        for (const JsonValue &v : d->arr) {
            if (!v.isObject())
                return specFail(err,
                                "sweep spec: directory entries are objects");
            DirAxis axis;
            if (const JsonValue *l = v.find("label")) {
                if (!l->isString())
                    return specFail(err, "sweep spec: directory label "
                                         "must be a string");
                axis.label = l->str;
            }
            if (const JsonValue *e = v.find("entries")) {
                if (!e->isNumber() || e->number < 0)
                    return specFail(err, "sweep spec: directory entries "
                                         "must be a non-negative number");
                axis.dir.entries = static_cast<std::uint32_t>(e->number);
            }
            if (const JsonValue *a = v.find("assoc")) {
                if (!a->isNumber() || a->number < 0)
                    return specFail(err, "sweep spec: directory assoc "
                                         "must be a non-negative number");
                axis.dir.assoc = static_cast<std::uint32_t>(a->number);
            }
            if (const JsonValue *s = v.find("sharers")) {
                if (s->isString() && s->str == "dir4b") {
                    axis.dir.sharerKind = coherence::SharerKind::LimitedPtr;
                } else if (s->isString() && s->str == "fullmap") {
                    axis.dir.sharerKind = coherence::SharerKind::FullMap;
                } else {
                    return specFail(err, "sweep spec: directory sharers "
                                         "must be \"fullmap\" or "
                                         "\"dir4b\"");
                }
            }
            if (const JsonValue *p = v.find("pointers")) {
                if (!p->isNumber() || p->number < 1)
                    return specFail(err, "sweep spec: directory pointers "
                                         "must be a positive number");
                axis.dir.pointers = static_cast<unsigned>(p->number);
            }
            spec.dirs.push_back(std::move(axis));
        }
    }

    if (const JsonValue *f = doc.find("faults")) {
        if (!f->isArray())
            return specFail(err, "sweep spec: faults must be an array");
        for (const JsonValue &v : f->arr) {
            if (!v.isObject())
                return specFail(err,
                                "sweep spec: fault entries are objects");
            FaultAxis axis;
            if (const JsonValue *l = v.find("label")) {
                if (!l->isString())
                    return specFail(err, "sweep spec: fault label must "
                                         "be a string");
                axis.label = l->str;
            }
            if (const JsonValue *p = v.find("plan")) {
                if (!p->isObject())
                    return specFail(err, "sweep spec: fault plan must be "
                                         "an object (sim/fault.hh schema)");
                try {
                    axis.plan = FaultPlan::parse(p->dump());
                } catch (const std::exception &e) {
                    return specFail(err, e.what());
                }
            }
            spec.faults.push_back(std::move(axis));
        }
    }

    if (const JsonValue *o = doc.find("options")) {
        if (!o->isObject())
            return specFail(err, "sweep spec: options must be an object");
        if (const JsonValue *v = o->find("skip_verify")) {
            if (!v->isBool())
                return specFail(err, "sweep spec: options.skip_verify "
                                     "must be bool");
            spec.skipVerify = v->boolean;
        }
        if (const JsonValue *v = o->find("audit")) {
            if (!v->isBool())
                return specFail(err,
                                "sweep spec: options.audit must be bool");
            spec.audit = v->boolean;
        }
        if (const JsonValue *v = o->find("occupancy")) {
            if (!v->isBool())
                return specFail(err, "sweep spec: options.occupancy "
                                     "must be bool");
            spec.sampleOccupancy = v->boolean;
        }
        if (const JsonValue *v = o->find("table_cache")) {
            if (!v->isNumber() || v->number < 0)
                return specFail(err, "sweep spec: options.table_cache "
                                     "must be a non-negative number");
            spec.tableCacheEntries =
                static_cast<std::uint32_t>(v->number);
        }
        if (const JsonValue *v = o->find("warmup")) {
            if (!v->isNumber() || v->number < 0)
                return specFail(err, "sweep spec: options.warmup "
                                     "must be a non-negative number");
            spec.warmupRuns = static_cast<unsigned>(v->number);
        }
    }

    if (spec.kernels.empty())
        return specFail(err,
                        "sweep spec: at least one kernel is required");

    *out = std::move(spec);
    return true;
}

std::vector<SweepPoint>
SweepSpec::expand() const
{
    // Singleton defaults for the axes the spec left empty.
    std::vector<arch::CoherenceMode> modes_eff =
        modes.empty()
            ? std::vector<arch::CoherenceMode>{arch::CoherenceMode::
                                                   Cohesion}
            : modes;
    std::vector<DirAxis> dirs_eff =
        dirs.empty() ? std::vector<DirAxis>{DirAxis{}} : dirs;
    std::vector<std::uint64_t> seeds_eff =
        seeds.empty() ? std::vector<std::uint64_t>{kernels::Params{}.seed}
                      : seeds;
    std::vector<FaultAxis> faults_eff =
        faults.empty() ? std::vector<FaultAxis>{FaultAxis{}} : faults;
    // An empty backend string keeps the legacy default (derived from
    // the directory's sharer kind) and keeps legacy labels unchanged.
    std::vector<std::string> backends_eff =
        backends.empty() ? std::vector<std::string>{std::string()}
                         : backends;

    arch::MachineConfig base = paper
                                   ? arch::MachineConfig::paper1024()
                                   : arch::MachineConfig::scaled(clusters);
    base.tableCacheEntries = tableCacheEntries;

    std::vector<SweepPoint> points;
    points.reserve(kernels.size() * modes_eff.size() * dirs_eff.size() *
                   backends_eff.size() * seeds_eff.size() *
                   faults_eff.size());
    for (const std::string &kernel : kernels) {
        for (arch::CoherenceMode mode : modes_eff) {
            for (const DirAxis &dir : dirs_eff) {
                for (const std::string &backend : backends_eff) {
                    for (std::uint64_t seed : seeds_eff) {
                        for (const FaultAxis &fault : faults_eff) {
                            SweepPoint p;
                            p.kernel = kernel;
                            p.cfg = base;
                            p.cfg.mode = mode;
                            p.cfg.directory = dir.dir;
                            p.cfg.backend = backend;
                            p.cfg.faults = fault.plan;
                            p.params.scale = scale;
                            p.params.seed = seed;
                            p.sampleOccupancy = sampleOccupancy;
                            p.skipVerify = skipVerify;
                            p.audit = audit;
                            p.warmupRuns = warmupRuns;
                            // The backend token appears only when the
                            // axis is in play, so legacy specs keep
                            // their labels (journals, baselines).
                            p.label =
                                backend.empty()
                                    ? cat(kernel, ".", modeToken(mode),
                                          ".", dir.label, ".s", seed, ".",
                                          fault.label)
                                    : cat(kernel, ".", modeToken(mode),
                                          ".", dir.label, ".", backend,
                                          ".s", seed, ".", fault.label);
                            points.push_back(std::move(p));
                        }
                    }
                }
            }
        }
    }
    return points;
}

} // namespace sim
