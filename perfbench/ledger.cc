#include "ledger.hh"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "harness/session.hh"
#include "kernels/registry.hh"
#include "sim/json.hh"
#include "sim/random.hh"
#include "sim/stat_registry.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using Phase = sim::HostProfiler::Phase;

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

/** An ostream that formats everything and keeps nothing: the
 *  "--stats-json to a discarded sink" of the paper-hybrid workload. */
class NullStream : public std::ostream
{
  public:
    NullStream() : std::ostream(&_buf) {}

  private:
    struct Buf : std::streambuf
    {
        int overflow(int c) override { return c; }
        std::streamsize
        xsputn(const char *, std::streamsize n) override
        {
            return n;
        }
    } _buf;
};

JobSpec
makeJob(const std::string &kernel, const std::string &label,
        const arch::MachineConfig &cfg, unsigned scale, std::uint64_t seed)
{
    JobSpec j;
    j.label = label;
    j.cfg = cfg;
    j.params.scale = scale;
    j.params.seed = seed;
    j.factory = kernels::kernelFactory(kernel);
    return j;
}

Fingerprint
fingerprintOf(const harness::RunResult &r, const arch::Chip &chip)
{
    Fingerprint fp;
    fp.cycles = r.cycles;
    fp.events = r.eventsRun;
    fp.instructions = r.instructions;
    fp.l2Msgs = r.msgs.total();
    sim::StatRegistry reg;
    chip.registerStats(reg);
    std::ostringstream csv;
    reg.dumpCsv(csv);
    fp.statDigest = fnv1a(csv.str());
    return fp;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "paper-hybrid", "paper-hwcc-dirpressure", "sweep-short"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "paper-hybrid") {
        // The Fig. 10 "Cohesion" design point with user defaults:
        // auditor, flight recorder and verification on, stats exported.
        arch::MachineConfig cfg = arch::MachineConfig::paper1024();
        cfg.mode = arch::CoherenceMode::Cohesion;
        cfg.directory = coherence::DirectoryConfig::sparseRealistic();
        for (const std::string &k : kernels::allKernelNames()) {
            JobSpec j = makeJob(k, k, cfg, 4, seed);
            j.exportStats = true;
            w.jobs.push_back(std::move(j));
        }
    } else if (name == "paper-hwcc-dirpressure") {
        // HWcc only with 1/16 directory coverage: the Fig. 9A cliff.
        arch::MachineConfig cfg = arch::MachineConfig::paper1024();
        cfg.mode = arch::CoherenceMode::HWccOnly;
        cfg.directory = coherence::DirectoryConfig::fullyAssociative(512);
        for (const char *k : {"cg", "stencil", "heat", "kmeans"}) {
            JobSpec j = makeJob(k, k, cfg, 4, seed);
            j.audit = false;
            w.jobs.push_back(std::move(j));
        }
    } else if (name == "sweep-short") {
        // A short campaign with sweep defaults on two workers; machine
        // construction dominates each job.
        const std::pair<const char *, arch::CoherenceMode> modes[] = {
            {"swcc", arch::CoherenceMode::SWccOnly},
            {"hwcc", arch::CoherenceMode::HWccOnly},
            {"cohesion", arch::CoherenceMode::Cohesion}};
        for (const std::string &k : kernels::allKernelNames()) {
            for (const auto &[token, mode] : modes) {
                arch::MachineConfig cfg = arch::MachineConfig::paper1024();
                cfg.mode = mode;
                w.jobs.push_back(makeJob(k, k + "/" + token, cfg, 1, seed));
            }
        }
        w.workers = 2;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::string
Fingerprint::str() const
{
    std::ostringstream os;
    os << "cycles=" << cycles << ";events=" << events
       << ";instructions=" << instructions << ";l2_msgs=" << l2Msgs
       << ";stats=" << std::hex << statDigest;
    return os.str();
}

bool
FingerprintBook::parse(const std::string &text, std::string *err)
{
    sim::JsonValue doc;
    if (!sim::parseJson(text, &doc, err))
        return false;
    auto fail = [err](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    if (!doc.isObject())
        return fail("fingerprint book is not an object");
    _book.clear();
    for (const auto &[workload, seeds] : doc.obj) {
        if (!seeds.isObject())
            return fail(workload + ": seeds are not an object");
        for (const auto &[seed, jobs] : seeds.obj) {
            if (!jobs.isObject())
                return fail(workload + "/" + seed + ": not an object");
            for (const auto &[label, fp] : jobs.obj) {
                if (!fp.isString())
                    return fail(workload + "/" + seed + "/" + label +
                                ": not a string");
                _book[workload][seed][label] = fp.str;
            }
        }
    }
    return true;
}

std::string
FingerprintBook::dump() const
{
    std::ostringstream os;
    os << "{\n";
    bool first_w = true;
    for (const auto &[workload, seeds] : _book) {
        os << (first_w ? "" : ",\n") << "  ";
        sim::writeJsonString(os, workload);
        os << ": {\n";
        bool first_s = true;
        for (const auto &[seed, jobs] : seeds) {
            os << (first_s ? "" : ",\n") << "    ";
            sim::writeJsonString(os, seed);
            os << ": {\n";
            bool first_j = true;
            for (const auto &[label, fp] : jobs) {
                os << (first_j ? "" : ",\n") << "      ";
                sim::writeJsonString(os, label);
                os << ": ";
                sim::writeJsonString(os, fp);
                first_j = false;
            }
            os << "\n    }";
            first_s = false;
        }
        os << "\n  }";
        first_w = false;
    }
    os << "\n}\n";
    return os.str();
}

std::optional<std::string>
FingerprintBook::find(const std::string &workload, std::uint64_t seed,
                      const std::string &label) const
{
    auto w = _book.find(workload);
    if (w == _book.end())
        return std::nullopt;
    auto s = w->second.find(std::to_string(seed));
    if (s == w->second.end())
        return std::nullopt;
    auto j = s->second.find(label);
    if (j == s->second.end())
        return std::nullopt;
    return j->second;
}

void
FingerprintBook::set(const std::string &workload, std::uint64_t seed,
                     const std::string &label, const std::string &fp)
{
    _book[workload][std::to_string(seed)][label] = fp;
}

std::vector<std::uint64_t>
FingerprintBook::seeds(const std::string &workload) const
{
    std::vector<std::uint64_t> out;
    auto w = _book.find(workload);
    if (w == _book.end())
        return out;
    for (const auto &[seed, jobs] : w->second) {
        std::uint64_t v = 0;
        const char *end = seed.data() + seed.size();
        auto [p, ec] = std::from_chars(seed.data(), end, v);
        if (ec == std::errc() && p == end)
            out.push_back(v);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t
inputSeed(std::uint64_t run_seed, const std::vector<std::uint64_t> &recorded)
{
    if (recorded.empty() ||
        std::find(recorded.begin(), recorded.end(), run_seed) !=
            recorded.end())
        return run_seed;
    return recorded[sim::deriveSeed(run_seed, "perfbench.input") %
                    recorded.size()];
}

std::size_t
PassResult::failed() const
{
    return std::count_if(jobs.begin(), jobs.end(),
                         [](const JobRecord &j) { return !j.ok(); });
}

PassResult
runPass(const Workload &w, bool traced, const FingerprintBook *book)
{
    PassResult p;
    p.traced = traced;
    p.workers = w.workers;
    p.jobs.resize(w.jobs.size());

    const Clock::time_point t0 = Clock::now();
    auto since = [t0]() {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    // Each body writes only its own record; SweepEngine::run joins its
    // workers before returning, which orders those writes before the
    // reads below.
    std::vector<sim::SweepJob> jobs;
    jobs.reserve(w.jobs.size());
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        const JobSpec *spec = &w.jobs[i];
        JobRecord *rec = &p.jobs[i];
        rec->label = spec->label;
        sim::SweepJob job;
        job.label = spec->label;
        job.body = [spec, rec, traced, since]() {
            rec->start = since();
            std::unique_ptr<kernels::Kernel> kernel =
                spec->factory(spec->params);
            harness::RunOptions opts;
            opts.audit = spec->audit;
            opts.hostProfile = traced;
            NullStream sink;
            if (spec->exportStats)
                opts.statsJson = &sink;
            auto session = std::make_unique<harness::Session>(
                spec->cfg, spec->params.seed);
            rec->constructEnd = since();
            harness::RunResult r = session->run(*kernel, opts);
            rec->runEnd = since();
            rec->fp = fingerprintOf(r, session->chip());
            rec->fingerprintEnd = since();
            session.reset();
            rec->end = since();
            return r;
        };
        jobs.push_back(std::move(job));
    }

    std::vector<sim::JobResult> results =
        sim::SweepEngine(w.workers).run(jobs);
    p.wallSec = since();
    if (traced)
        sim::HostProfiler::disable();

    for (std::size_t i = 0; i < results.size(); ++i) {
        JobRecord &rec = p.jobs[i];
        const sim::JobResult &res = results[i];
        rec.outcome = res.outcome;
        rec.what = res.what;
        if (!res.ok())
            continue;
        const harness::RunResult &r = res.run;
        rec.profile = r.hostProfile;
        rec.l2Hits = r.l2Hits;
        rec.l2Misses = r.l2Misses;
        rec.l3Hits = r.l3Hits;
        rec.l3Misses = r.l3Misses;
        rec.fabricBytes = r.fabricBytes;
        rec.recorderRecords = r.recorderRecorded;
        rec.dirInsertions = r.dirInsertions;
        rec.dirEvictions = r.dirEvictions;
        rec.probeResponses = r.msgs.get(arch::MsgClass::ProbeResponse);
        rec.tableLookups = r.tableLookups;
        rec.transitions = r.transitions;
        rec.dramAccesses = r.dramAccesses;
        if (book) {
            std::optional<std::string> want =
                book->find(w.name, w.jobs[i].params.seed, rec.label);
            if (want && *want != rec.fp.str()) {
                rec.fingerprintMismatch = true;
                rec.what = "fingerprint " + rec.fp.str() +
                           " differs from recorded " + *want;
            }
        }
    }

    if (traced) {
        p.spans.push_back(Span{"pass", 0, p.wallSec, -1, -1});
        for (std::size_t i = 0; i < p.jobs.size(); ++i) {
            const JobRecord &j = p.jobs[i];
            if (j.outcome != sim::JobOutcome::Ok)
                continue;
            const int ji = static_cast<int>(i);
            const int parent = static_cast<int>(p.spans.size());
            p.spans.push_back(Span{"job", j.start, j.end, 0, ji});
            p.spans.push_back(Span{"harness.construct", j.start,
                                   j.constructEnd, parent, ji});
            p.spans.push_back(Span{"session.run", j.constructEnd, j.runEnd,
                                   parent, ji});
            p.spans.push_back(Span{"bench.fingerprint", j.runEnd,
                                   j.fingerprintEnd, parent, ji});
            p.spans.push_back(Span{"harness.teardown", j.fingerprintEnd,
                                   j.end, parent, ji});
        }
    }
    return p;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.start, s.end);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        // Children of the pass overlap when the sweep runs on several
        // workers, so subtract the union of their intervals.
        std::vector<std::pair<double, double>> &k = kids[i];
        std::sort(k.begin(), k.end());
        double covered = 0, lo = 0, hi = 0;
        bool open = false;
        for (auto [a, b] : k) {
            a = std::max(a, spans[i].start);
            b = std::min(b, spans[i].end);
            if (b <= a)
                continue;
            if (open && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (open)
                covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
        }
        if (open)
            covered += hi - lo;
        self[i] = spans[i].dur() - covered;
    }
    return self;
}

std::vector<Metric>
endToEndMetrics(const std::vector<PassResult> &passes, double peak_rss_mb)
{
    std::vector<double> wall, setup, kips;
    std::size_t attempted = 0, ok = 0;
    for (const PassResult &p : passes) {
        double construct = 0, instructions = 0;
        for (const JobRecord &j : p.jobs) {
            construct += j.constructSec();
            instructions += static_cast<double>(j.fp.instructions);
            ++attempted;
            ok += j.ok();
        }
        wall.push_back(p.wallSec);
        setup.push_back(construct);
        kips.push_back(instructions / p.wallSec / 1000.0);
    }
    // Simulated totals are deterministic; the caller checks that every
    // pass agrees, so the first pass speaks for all.
    double cycles = 0, msgs = 0;
    if (!passes.empty()) {
        for (const JobRecord &j : passes.front().jobs) {
            cycles += static_cast<double>(j.fp.cycles);
            msgs += static_cast<double>(j.fp.l2Msgs);
        }
    }
    const double jobs =
        passes.empty() ? 0 : static_cast<double>(passes.front().jobs.size());
    return {
        {"wall_s", "s", median(wall)},
        {"setup_s", "s", median(setup)},
        {"sim_kips", "kinst/s", median(kips)},
        {"peak_rss_mb", "MiB", peak_rss_mb},
        {"sim_cycles", "cycles", cycles},
        {"l2_msgs", "count", msgs},
        {"jobs", "count", jobs},
        {"pass_ratio", "ratio",
         attempted ? static_cast<double>(ok) / attempted : 0},
    };
}

std::vector<Metric>
perLayerMetrics(const PassResult &base, const PassResult &traced,
                const std::vector<Metric> &micro)
{
    double construct = 0, run = 0, teardown = 0, job_wall = 0;
    double l2h = 0, l2m = 0, l3h = 0, l3m = 0, fabric = 0, records = 0;
    double events = 0, windows = 0, ins = 0, evict = 0, probes = 0;
    double lookups = 0, transitions = 0, dram = 0, attributed = 0;
    sim::HostProfiler::Profile prof;
    for (const JobRecord &j : traced.jobs) {
        if (j.outcome != sim::JobOutcome::Ok)
            continue;
        construct += j.constructSec();
        run += j.runSec();
        teardown += j.teardownSec();
        job_wall += j.wallSec();
        prof.merge(j.profile);
        attributed += static_cast<double>(j.profile.attributedNs()) * 1e-9;
        l2h += j.l2Hits;
        l2m += j.l2Misses;
        l3h += j.l3Hits;
        l3m += j.l3Misses;
        fabric += j.fabricBytes;
        records += j.recorderRecords;
        events += j.fp.events;
        windows += j.profile[Phase::EqDispatch].count;
        ins += j.dirInsertions;
        evict += j.dirEvictions;
        probes += j.probeResponses;
        lookups += j.tableLookups;
        transitions += j.transitions;
        dram += j.dramAccesses;
    }
    auto sec = [&prof](Phase ph) {
        return static_cast<double>(prof.estNs(ph)) * 1e-9;
    };
    // Session::run = its exact profiler phases + what no phase covers.
    const double unattributed = run - attributed;
    const double arch_run = run - sec(Phase::Setup) - sec(Phase::Audit) -
                            sec(Phase::Verify) - sec(Phase::StatsExport) -
                            sec(Phase::TraceExport);
    const double overhead = traced.wallSec - base.wallSec;
    std::vector<Metric> m{
        {"harness.construct_s", "s", construct},
        {"harness.export_s", "s", sec(Phase::StatsExport)},
        {"harness.sweep_busy_frac", "ratio",
         job_wall / (traced.workers * traced.wallSec)},
        {"harness.job_wall_sum_s", "s", job_wall},
        {"harness.job_coverage", "ratio",
         job_wall > 0 ? (construct + run) / job_wall : 0},
        {"harness.teardown_s", "s", teardown},
        {"kernels.setup_s", "s", sec(Phase::Setup)},
        {"kernels.verify_s", "s", sec(Phase::Verify)},
        {"arch.run_s", "s", arch_run},
        {"arch.cluster_core_s", "s", sec(Phase::ClusterCore)},
        {"arch.cluster_msg_s", "s", sec(Phase::ClusterMsg)},
        {"arch.bank_msg_s", "s", sec(Phase::BankMsg)},
        {"arch.loop_unattributed_s", "s", unattributed},
        {"arch.l2_hits", "count", l2h},
        {"arch.l2_misses", "count", l2m},
        {"arch.l3_hits", "count", l3h},
        {"arch.l3_misses", "count", l3m},
        {"arch.fabric_bytes", "B", fabric},
        {"sim.dispatch_s", "s", sec(Phase::EqDispatch)},
        {"sim.events", "count", events},
        {"sim.windows", "count", windows},
        {"sim.events_per_s", "1/s", arch_run > 0 ? events / arch_run : 0},
        {"sim.recorder_records", "count", records},
        {"sim.recorder_export_s", "s", sec(Phase::TraceExport)},
        {"coherence.audit_s", "s", sec(Phase::Audit)},
        {"coherence.dir_s", "s", sec(Phase::Directory)},
        {"coherence.dir_insertions", "count", ins},
        {"coherence.dir_evictions", "count", evict},
        {"coherence.probe_responses", "count", probes},
        {"cohesion.table_s", "s", sec(Phase::RegionTable)},
        {"cohesion.table_lookups", "count", lookups},
        {"cohesion.transitions", "count", transitions},
        {"mem.dram_accesses", "count", dram},
        {"trace.wall_s", "s", traced.wallSec},
        {"trace.overhead_s", "s", overhead},
        {"trace.overhead_frac", "ratio", overhead / base.wallSec},
    };
    m.insert(m.end(), micro.begin(), micro.end());
    return m;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
