/**
 * @file
 * cohesion-sweep: the parallel campaign driver. Two modes:
 *
 * 1. Spec mode — run a declarative multi-configuration campaign:
 *
 *      cohesion-sweep --spec sweep.json --jobs 8 --out results.json
 *
 *    The spec is the cross-product schema of harness/sweep.hh; results
 *    are written as a JSON object whose "jobs" array is in
 *    job-submission order and deterministic for any --jobs value;
 *    host timing (per-job "host" subtrees, the top-level "host"
 *    aggregate) is the one nondeterministic part and is ignored by
 *    cohesion-diff by default. Exit 1 if any job failed.
 *
 *    --progress[=FILE] emits a campaign heartbeat every second —
 *    done/failed/running counts, aggregate events/sec, an ETA — as a
 *    human one-liner on stderr and, with =FILE, as JSON lines. The
 *    monitor thread only reads per-job atomics, so results stay
 *    identical. --host-profile enables the in-simulator host profiler
 *    in every job and reports per-job attribution in the results.
 *
 *    --backend a,b|all overrides the spec's "backends" axis; without
 *    --spec it runs a built-in backend-ablation campaign (every
 *    kernel — or the --quick trio — under cohesion and hwcc modes,
 *    once per requested coherence backend). Unknown backend names
 *    exit 2 listing the registered ones.
 *
 * 2. Baseline mode — re-run the committed perf/paper-metric baseline
 *    and gate on drift:
 *
 *      cohesion-sweep --baseline BENCH_simcore.json [--jobs N]
 *                     [--tolerance-pct 0] [--perf-tolerance-pct 30]
 *                     [--metrics-only | --perf-only] [--kernels a,b,c]
 *
 *    Re-runs the baseline's end-to-end kernels at the same machine
 *    scale and compares (a) the paper metrics — final cycle count and
 *    events fired, which are deterministic, so the default tolerance
 *    is 0% — and (b) events/sec against the recorded throughput.
 *    Exit codes: 0 ok, 1 usage/run error, 2 paper-metric drift,
 *    3 perf regression. CI runs --metrics-only as a blocking gate and
 *    the perf comparison as a separate advisory step.
 *
 *    Perf numbers are only meaningful when each job has a core of its
 *    own; baseline mode therefore defaults to --jobs 1 unless
 *    --metrics-only (wall time irrelevant) or an explicit --jobs is
 *    given.
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "coherence/backend.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "kernels/registry.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace {

/** Set by SIGINT/SIGTERM; the engine checks it between jobs. */
std::atomic<bool> g_stop{false};

extern "C" void
stopSignalHandler(int)
{
    g_stop.store(true);
}

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: cohesion-sweep --spec FILE [--jobs N] [--out FILE]\n"
        "                      [--backend a,b|all]\n"
        "                      [--journal FILE | --resume FILE]\n"
        "                      [--progress[=FILE]] [--host-profile]\n"
        "       cohesion-sweep --backend a,b|all [--quick] [--jobs N]\n"
        "                      [--out FILE]    (built-in ablation "
        "campaign)\n"
        "       cohesion-sweep --baseline FILE [--jobs N]\n"
        "                      [--tolerance-pct P] "
        "[--perf-tolerance-pct P]\n"
        "                      [--metrics-only | --perf-only]\n"
        "                      [--kernels a,b,c] [--out FILE]\n"
        "  --spec FILE            declarative sweep (harness/sweep.hh "
        "schema)\n"
        "  --baseline FILE        BENCH_simcore.json drift gate\n"
        "  --backend a,b|all      coherence-backend axis: overrides the\n"
        "                         spec's \"backends\"; without --spec "
        "runs\n"
        "                         the built-in ablation campaign\n"
        "  --list-backends        print registered backends and exit\n"
        "  --jobs N               worker threads (default: all cores;\n"
        "                         baseline perf runs default to 1)\n"
        "  --out FILE             results JSON (\"-\" = stdout)\n"
        "  --journal FILE         append each finished job to FILE as a\n"
        "                         JSON line; SIGINT/SIGTERM then stop the\n"
        "                         campaign gracefully (running jobs\n"
        "                         finish and are journaled)\n"
        "  --resume FILE          skip jobs already in the journal FILE,\n"
        "                         run the rest, and write a results file\n"
        "                         byte-identical to an uninterrupted\n"
        "                         campaign (implies --journal FILE; the\n"
        "                         journal omits per-job host timing)\n"
        "  --tolerance-pct P      allowed cycles/events drift "
        "(default 0)\n"
        "  --perf-tolerance-pct P allowed events/sec loss (default 30)\n"
        "  --metrics-only         gate only the deterministic metrics\n"
        "  --perf-only            gate only throughput\n"
        "  --kernels a,b,c        restrict baseline/ablation kernels\n"
        "  --quick                baseline/ablation: three fastest "
        "kernels only\n"
        "  --progress[=FILE]      live heartbeat on stderr (and JSON\n"
        "                         lines to FILE)\n"
        "  --host-profile         profile host time inside each job\n"
        "exit: 0 ok, 1 error/failed job, 2 metric drift, 3 perf "
        "regression,\n"
        "      5 interrupted (journal holds finished jobs; rerun with "
        "--resume)\n";
    std::exit(code);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cohesion-sweep: cannot open " << path << '\n';
        std::exit(1);
    }
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeResultsJson(std::ostream &os,
                 const std::vector<sim::JobResult> &results)
{
    // Everything under the per-job "host" keys and the top-level
    // "host" aggregate is nondeterministic wall-clock data;
    // cohesion-diff skips those subtrees by default so results files
    // still compare identical for any --jobs value.
    os << "{\n  \"schema\": \"cohesion-sweep-results-v2\",\n"
       << "  \"jobs\": [\n";
    double wall_total = 0, wall_max = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const sim::JobResult &r = results[i];
        wall_total += r.wallSec;
        wall_max = std::max(wall_max, r.wallSec);
        os << "    {";
        harness::writeJobFields(os, r);
        os << ", \"host\": {\"wall_sec\": " << r.wallSec;
        if (r.ok() && !r.run.hostProfile.empty()) {
            double attr = r.run.hostProfile.attributedNs() / 1e9;
            os << ", \"attributed_sec\": " << attr;
            if (r.run.hostWallSec > 0) {
                os << ", \"attributed_pct\": "
                   << 100.0 * attr / r.run.hostWallSec;
            }
        }
        os << "}}" << (i + 1 < results.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"host\": {\"jobs\": " << results.size()
       << ", \"wall_sec_total\": " << wall_total
       << ", \"wall_sec_max\": " << wall_max << "}\n}\n";
}

/** Campaign-table footer: where the host time went. */
void
printHostSummary(const std::vector<sim::JobResult> &results)
{
    if (results.empty())
        return;
    double total = 0, slowest = 0;
    const sim::JobResult *slow = nullptr;
    for (const sim::JobResult &r : results) {
        total += r.wallSec;
        if (r.wallSec > slowest) {
            slowest = r.wallSec;
            slow = &r;
        }
    }
    std::cerr << "cohesion-sweep: host time " << total << "s across "
              << results.size() << " jobs";
    if (slow)
        std::cerr << ", slowest " << slow->label << " (" << slowest
                  << "s)";
    std::cerr << '\n';
}

/** CLI-level telemetry options shared by both modes. */
struct ProgressCli
{
    bool enabled = false;
    std::string jsonlPath;
    bool hostProfile = false;
};

int
runSpec(const std::string &spec_path, unsigned jobs,
        const std::string &out_path, const std::string &journal_path,
        bool resume, const ProgressCli &pcli,
        const std::vector<std::string> &backends,
        const std::vector<std::string> &kernel_filter)
{
    sim::SweepSpec spec;
    std::string err;
    if (spec_path.empty()) {
        // Built-in backend-ablation campaign: every requested kernel
        // under both coherence modes, once per backend.
        spec.kernels = kernel_filter.empty() ? kernels::allKernelNames()
                                             : kernel_filter;
        spec.modes = {arch::CoherenceMode::Cohesion,
                      arch::CoherenceMode::HWccOnly};
    } else if (!sim::SweepSpec::parse(readFile(spec_path), &spec,
                                      &err)) {
        std::cerr << "cohesion-sweep: " << err << '\n';
        // A bad backend name is a usage error, distinct from a broken
        // spec file or a failed job.
        return err.find("unknown backend") != std::string::npos ? 2 : 1;
    }
    if (!backends.empty())
        spec.backends = backends; // CLI overrides the spec's axis

    std::vector<sim::SweepPoint> points = spec.expand();

    // Jobs already journaled by an earlier, interrupted campaign are
    // not re-run; their journaled bytes re-enter the results document
    // verbatim, which is what makes a resumed results file
    // byte-identical to an uninterrupted one.
    std::map<std::string, std::string> journaled;
    if (resume) {
        if (!harness::ResultsJournal::load(journal_path, &journaled,
                                           &err)) {
            std::cerr << "cohesion-sweep: " << err << '\n';
            return 1;
        }
    }

    harness::ResultsJournal journal;
    if (!journal_path.empty() &&
        !journal.open(journal_path, &err)) {
        std::cerr << "cohesion-sweep: " << err << '\n';
        return 1;
    }

    std::vector<std::size_t> pending_idx;
    std::vector<sim::SweepJob> sweep_jobs;
    sweep_jobs.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i].hostProfile = pcli.hostProfile;
        if (journaled.count(points[i].label))
            continue;
        pending_idx.push_back(i);
        sweep_jobs.push_back(sim::makeJob(points[i]));
    }
    if (resume) {
        std::cerr << "cohesion-sweep: resuming — "
                  << points.size() - pending_idx.size() << '/'
                  << points.size() << " jobs already journaled\n";
    }

    sim::SweepEngine engine(jobs);
    std::cerr << "cohesion-sweep: " << sweep_jobs.size() << " jobs on "
              << engine.threads() << " threads\n";
    std::ofstream jsonl;
    sim::SweepProgress sp;
    sp.enabled = pcli.enabled;
    if (!pcli.jsonlPath.empty()) {
        jsonl.open(pcli.jsonlPath);
        if (!jsonl) {
            std::cerr << "cohesion-sweep: cannot write "
                      << pcli.jsonlPath << '\n';
            return 1;
        }
        sp.jsonl = &jsonl;
    }
    sp.stop = &g_stop;
    std::signal(SIGINT, stopSignalHandler);
    std::signal(SIGTERM, stopSignalHandler);
    if (journal.isOpen()) {
        sp.onJobDone = [&journal](std::size_t, const sim::JobResult &r) {
            journal.append(r.label, harness::jobObjectJson(r));
        };
    }
    std::vector<sim::JobResult> results = engine.run(sweep_jobs, sp);

    bool interrupted = false;
    unsigned failed = 0;
    for (const sim::JobResult &r : results) {
        if (r.outcome == sim::JobOutcome::Skipped) {
            interrupted = true;
            continue;
        }
        if (!r.ok()) {
            ++failed;
            std::cerr << "FAIL " << r.label << " ["
                      << sim::jobOutcomeName(r.outcome) << "] "
                      << r.what << '\n';
            if (!r.log.empty())
                std::cerr << r.log;
        }
    }
    // Journal-replayed failures count too: a deterministic failure is
    // the same failure on resume.
    for (const sim::SweepPoint &p : points) {
        auto it = journaled.find(p.label);
        if (it == journaled.end())
            continue;
        sim::JsonValue job;
        std::string perr;
        if (sim::parseJson(it->second, &job, &perr)) {
            const sim::JsonValue *o = job.find("outcome");
            if (o && o->isString() && o->str != "ok") {
                ++failed;
                std::cerr << "FAIL " << p.label << " [" << o->str
                          << "] (journaled)\n";
            }
        }
    }

    if (!journal_path.empty()) {
        // Journaled campaigns write the deterministic document (no
        // host-timing blocks): journaled and freshly-run jobs compose
        // byte-stably. An interrupted campaign writes none — the
        // journal is the partial result, --resume completes it.
        if (interrupted) {
            if (!out_path.empty()) {
                std::cerr << "cohesion-sweep: interrupted; not writing "
                          << out_path << " (resume with --resume "
                          << journal_path << ")\n";
            }
        } else {
            std::vector<std::string> objs(points.size());
            for (std::size_t i = 0; i < points.size(); ++i) {
                auto it = journaled.find(points[i].label);
                if (it != journaled.end())
                    objs[i] = it->second;
            }
            for (std::size_t j = 0; j < results.size(); ++j)
                objs[pending_idx[j]] =
                    harness::jobObjectJson(results[j]);
            if (out_path == "-") {
                harness::writeResultsDoc(std::cout, objs);
            } else if (!out_path.empty()) {
                std::ofstream os(out_path);
                if (!os) {
                    std::cerr << "cohesion-sweep: cannot write "
                              << out_path << '\n';
                    return 1;
                }
                harness::writeResultsDoc(os, objs);
            }
        }
    } else if (out_path == "-") {
        writeResultsJson(std::cout, results);
    } else if (!out_path.empty()) {
        std::ofstream os(out_path);
        if (!os) {
            std::cerr << "cohesion-sweep: cannot write " << out_path
                      << '\n';
            return 1;
        }
        writeResultsJson(os, results);
    }

    printHostSummary(results);
    if (interrupted) {
        std::size_t skipped = 0;
        for (const sim::JobResult &r : results)
            skipped += r.outcome == sim::JobOutcome::Skipped;
        std::cerr << "cohesion-sweep: interrupted — " << skipped
                  << " jobs not run";
        if (!journal_path.empty())
            std::cerr << "; resume with --resume " << journal_path;
        std::cerr << '\n';
        return 5;
    }
    std::cerr << "cohesion-sweep: " << points.size() - failed << '/'
              << points.size() << " jobs ok\n";
    return failed ? 1 : 0;
}

struct BaselineKernel
{
    std::string kernel;
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    double eventsPerSec = 0;
};

int
runBaseline(const std::string &baseline_path, unsigned jobs,
            bool jobs_given, double tol_pct, double perf_tol_pct,
            bool metrics_only, bool perf_only,
            std::vector<std::string> kernel_filter,
            const std::string &out_path, const ProgressCli &pcli)
{
    sim::JsonValue doc;
    std::string err;
    if (!sim::parseJson(readFile(baseline_path), &doc, &err)) {
        std::cerr << "cohesion-sweep: " << baseline_path << ": " << err
                  << '\n';
        return 1;
    }

    const sim::JsonValue *kernels_v = doc.find("kernels");
    if (!kernels_v || !kernels_v->isArray() || kernels_v->arr.empty()) {
        std::cerr << "cohesion-sweep: baseline has no kernels array\n";
        return 1;
    }
    unsigned scale = 4;
    if (const sim::JsonValue *s = doc.find("workload_scale");
        s && s->isNumber()) {
        scale = static_cast<unsigned>(s->number);
    }
    bool paper = true;
    if (const sim::JsonValue *m = doc.find("machine");
        m && m->isString() && m->str.find("1024 cores") == std::string::npos) {
        paper = false; // scaled baseline; keep the default 4-cluster box
    }

    std::vector<BaselineKernel> base;
    for (const sim::JsonValue &k : kernels_v->arr) {
        BaselineKernel b;
        if (const sim::JsonValue *v = k.find("kernel"); v && v->isString())
            b.kernel = v->str;
        if (const sim::JsonValue *v = k.find("cycles"); v && v->isNumber())
            b.cycles = static_cast<std::uint64_t>(v->number);
        if (const sim::JsonValue *v = k.find("events"); v && v->isNumber())
            b.events = static_cast<std::uint64_t>(v->number);
        if (const sim::JsonValue *v = k.find("events_per_sec");
            v && v->isNumber()) {
            b.eventsPerSec = v->number;
        }
        if (b.kernel.empty() || !kernels::isKernelName(b.kernel)) {
            std::cerr << "cohesion-sweep: baseline names unknown kernel\n";
            return 1;
        }
        if (!kernel_filter.empty() &&
            std::find(kernel_filter.begin(), kernel_filter.end(),
                      b.kernel) == kernel_filter.end()) {
            continue;
        }
        base.push_back(std::move(b));
    }
    if (base.empty()) {
        std::cerr << "cohesion-sweep: kernel filter matched nothing\n";
        return 1;
    }

    // The baseline was recorded one kernel at a time (perf_simcore):
    // audit off, default seed, paper machine. Reproduce that exactly.
    arch::MachineConfig cfg = paper ? arch::MachineConfig::paper1024()
                                    : arch::MachineConfig::scaled(4);
    std::vector<sim::SweepJob> sweep_jobs;
    for (const BaselineKernel &b : base) {
        sim::SweepPoint p;
        p.label = b.kernel;
        p.kernel = b.kernel;
        p.cfg = cfg;
        p.params.scale = scale;
        p.audit = false;
        sweep_jobs.push_back(sim::makeJob(p));
    }

    // Contended cores corrupt the throughput measurement; default to
    // the serial reference unless wall time is irrelevant.
    if (!jobs_given && !metrics_only)
        jobs = 1;
    sim::SweepEngine engine(jobs);
    std::cerr << "cohesion-sweep: baseline gate, " << sweep_jobs.size()
              << " kernels on " << engine.threads() << " threads\n";
    std::ofstream jsonl;
    sim::SweepProgress sp;
    sp.enabled = pcli.enabled;
    if (!pcli.jsonlPath.empty()) {
        jsonl.open(pcli.jsonlPath);
        if (jsonl)
            sp.jsonl = &jsonl;
    }
    std::vector<sim::JobResult> results = engine.run(sweep_jobs, sp);

    bool metric_drift = false, perf_drift = false, run_error = false;
    std::printf("  %-10s %12s %12s %9s %9s  %s\n", "kernel", "cycles",
                "events", "d-cyc%", "d-ev/s%", "verdict");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const sim::JobResult &r = results[i];
        const BaselineKernel &b = base[i];
        if (!r.ok()) {
            run_error = true;
            std::printf("  %-10s %38s  FAIL[%s] %s\n", b.kernel.c_str(),
                        "", sim::jobOutcomeName(r.outcome),
                        r.what.c_str());
            continue;
        }
        double dcyc =
            b.cycles ? 100.0 * (double(r.run.cycles) - double(b.cycles)) /
                           double(b.cycles)
                     : 0.0;
        double dev =
            b.events
                ? 100.0 * (double(r.run.eventsRun) - double(b.events)) /
                      double(b.events)
                : 0.0;
        double eps = r.wallSec > 0 ? double(r.run.eventsRun) / r.wallSec
                                   : 0.0;
        double deps = b.eventsPerSec
                          ? 100.0 * (eps - b.eventsPerSec) /
                                b.eventsPerSec
                          : 0.0;
        bool cell_metric = false, cell_perf = false;
        if (!perf_only &&
            (std::abs(dcyc) > tol_pct || std::abs(dev) > tol_pct)) {
            cell_metric = true;
        }
        if (!metrics_only && deps < -perf_tol_pct)
            cell_perf = true;
        metric_drift |= cell_metric;
        perf_drift |= cell_perf;
        std::printf("  %-10s %12llu %12llu %8.2f%% %8.1f%%  %s\n",
                    b.kernel.c_str(),
                    static_cast<unsigned long long>(r.run.cycles),
                    static_cast<unsigned long long>(r.run.eventsRun),
                    dcyc, deps,
                    cell_metric   ? "METRIC DRIFT"
                    : cell_perf   ? "PERF REGRESSION"
                                  : "ok");
    }

    if (!out_path.empty()) {
        std::ofstream os(out_path);
        if (os)
            writeResultsJson(os, results);
    }

    if (run_error) {
        std::cerr << "cohesion-sweep: baseline kernels failed to run\n";
        return 1;
    }
    if (metric_drift) {
        std::cerr << "cohesion-sweep: paper-metric drift beyond "
                  << tol_pct << "% (cycles/events are deterministic; "
                  << "an intended change needs a baseline refresh: "
                  << "perf_simcore --json " << baseline_path << ")\n";
        return 2;
    }
    if (perf_drift) {
        std::cerr << "cohesion-sweep: events/sec regressed more than "
                  << perf_tol_pct << "% vs baseline\n";
        return 3;
    }
    std::cerr << "cohesion-sweep: baseline ok\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec_path, baseline_path, out_path, journal_path;
    bool resume = false;
    unsigned jobs = 0;
    bool jobs_given = false;
    double tol_pct = 0.0;
    double perf_tol_pct = 30.0;
    bool metrics_only = false, perf_only = false, quick = false;
    std::vector<std::string> kernel_filter;
    std::vector<std::string> backend_args;
    ProgressCli pcli;

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " requires a value\n";
                usage(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--spec")) {
            spec_path = next("--spec");
        } else if (!std::strcmp(argv[i], "--baseline")) {
            baseline_path = next("--baseline");
        } else if (!std::strcmp(argv[i], "--jobs")) {
            jobs = std::atoi(next("--jobs"));
            jobs_given = true;
        } else if (!std::strcmp(argv[i], "--out")) {
            out_path = next("--out");
        } else if (!std::strcmp(argv[i], "--journal")) {
            journal_path = next("--journal");
        } else if (!std::strcmp(argv[i], "--resume")) {
            journal_path = next("--resume");
            resume = true;
        } else if (!std::strcmp(argv[i], "--tolerance-pct")) {
            tol_pct = std::atof(next("--tolerance-pct"));
        } else if (!std::strcmp(argv[i], "--perf-tolerance-pct")) {
            perf_tol_pct = std::atof(next("--perf-tolerance-pct"));
        } else if (!std::strcmp(argv[i], "--metrics-only")) {
            metrics_only = true;
        } else if (!std::strcmp(argv[i], "--perf-only")) {
            perf_only = true;
        } else if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
        } else if (!std::strcmp(argv[i], "--progress")) {
            pcli.enabled = true;
        } else if (!std::strncmp(argv[i], "--progress=", 11)) {
            pcli.enabled = true;
            pcli.jsonlPath = argv[i] + 11;
        } else if (!std::strcmp(argv[i], "--host-profile")) {
            pcli.hostProfile = true;
        } else if (!std::strcmp(argv[i], "--backend")) {
            std::stringstream ss(next("--backend"));
            std::string tok;
            while (std::getline(ss, tok, ','))
                if (!tok.empty())
                    backend_args.push_back(tok);
        } else if (!std::strcmp(argv[i], "--list-backends")) {
            for (const auto &b : coherence::backendNames())
                std::cout << b << '\n';
            return 0;
        } else if (!std::strcmp(argv[i], "--kernels")) {
            std::stringstream ss(next("--kernels"));
            std::string tok;
            while (std::getline(ss, tok, ','))
                if (!tok.empty())
                    kernel_filter.push_back(tok);
        } else if (!std::strcmp(argv[i], "--help")) {
            usage(0);
        } else {
            std::cerr << "unknown option: " << argv[i] << '\n';
            usage(1);
        }
    }

    // Expand and validate --backend before picking a mode, so a typo
    // fails fast with the registered list (exit 2, a usage error CI
    // can tell apart from a failed job).
    std::vector<std::string> backends;
    for (const std::string &b : backend_args) {
        if (b == "all") {
            for (const std::string &name : coherence::backendNames())
                backends.push_back(name);
        } else if (!coherence::backendKnown(b)) {
            std::cerr << "cohesion-sweep: unknown backend '" << b
                      << "' (registered: "
                      << coherence::backendListString() << ")\n";
            return 2;
        } else {
            backends.push_back(b);
        }
    }

    bool ablation = spec_path.empty() && !backends.empty() &&
                    baseline_path.empty();
    if (!ablation && spec_path.empty() == baseline_path.empty()) {
        std::cerr << "exactly one of --spec / --baseline / --backend "
                     "is required\n";
        usage(1);
    }
    if (!baseline_path.empty() && !backends.empty()) {
        std::cerr << "--backend is not supported with --baseline\n";
        usage(1);
    }
    if (metrics_only && perf_only) {
        std::cerr << "--metrics-only and --perf-only conflict\n";
        usage(1);
    }
    if (quick && kernel_filter.empty())
        kernel_filter = {"gjk", "sobel", "kmeans"};
    if (!journal_path.empty() && spec_path.empty() && !ablation) {
        std::cerr << "--journal/--resume require --spec\n";
        usage(1);
    }

    if (!spec_path.empty() || ablation)
        return runSpec(spec_path, jobs, out_path, journal_path, resume,
                       pcli, backends, kernel_filter);
    return runBaseline(baseline_path, jobs, jobs_given, tol_pct,
                       perf_tol_pct, metrics_only, perf_only,
                       std::move(kernel_filter), out_path, pcli);
}
