/**
 * @file
 * perfbench: runs one workload of the Table-3 ledger, checks every
 * job, and prints two JSON lines on stdout: a report (environment
 * stamp, per-pass figures, failures, span self times) and, last, the
 * result {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload paper-hybrid [--seed N] [--seconds S]
 *             [--trace 0|1] [--fingerprints FILE [--record]]
 *             [--trace-out FILE] [--git-sha SHA] [--source-digest HEX]
 *
 * --trace 0 repeats untraced passes until --seconds have elapsed and
 * reports the end-to-end metrics (host times are medians over passes).
 * --trace 1 runs one untraced and one traced pass plus the component
 * micro-rates and reports the per-layer metrics. With --fingerprints
 * the kernels run on one of the seeds recorded in FILE for the
 * workload, picked by --seed (see inputSeed). --record stores this
 * run's fingerprints for --seed itself in FILE instead of checking them.
 */

#include <charconv>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <thread>

#include "ledger.hh"
#include "sim/json.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1]\n"
                 "                 [--fingerprints FILE [--record]]"
                 " [--trace-out FILE]\n"
                 "                 [--git-sha SHA] [--source-digest HEX]\n"
                 "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << ' ' << w;
    std::cerr << '\n';
    std::exit(2);
}

std::uint64_t
parseU64(const char *flag, const char *text)
{
    std::uint64_t v = 0;
    const char *end = text + std::strlen(text);
    auto [p, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || p != end)
        usage(std::string("bad value for ") + flag + ": " + text);
    return v;
}

/** Shortest text that reads back as exactly @p v. */
std::string
num(double v)
{
    char buf[64];
    auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc() ? std::string(buf, p) : "0";
}

std::string
str(const std::string &s)
{
    std::ostringstream os;
    sim::writeJsonString(os, s);
    return os.str();
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** The Session::run split of job @p j: each exact profiler phase, and
 *  what none of them covers. */
void
writePhases(std::ostream &out, const JobRecord &j)
{
    using HP = sim::HostProfiler;
    out << ",\"phases\":{";
    for (unsigned p = 1; p < static_cast<unsigned>(HP::firstSampled); ++p) {
        const auto ph = static_cast<HP::Phase>(p);
        out << str(HP::phaseName(ph)) << ':'
            << num(static_cast<double>(j.profile.estNs(ph)) * 1e-9) << ',';
    }
    out << "\"unattributed\":"
        << num(j.runSec() -
               static_cast<double>(j.profile.attributedNs()) * 1e-9)
        << '}';
}

int
run(int argc, char **argv)
{
    std::string workload, fingerprints, trace_out;
    std::string git_sha = "unknown", source_digest = "unknown";
    std::uint64_t seed = 12345, seconds = 10, trace = 0;
    bool record = false;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usage(std::string(flag) + " requires a value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload")) {
            workload = next("--workload");
        } else if (!std::strcmp(argv[i], "--seed")) {
            seed = parseU64("--seed", next("--seed"));
        } else if (!std::strcmp(argv[i], "--seconds")) {
            seconds = parseU64("--seconds", next("--seconds"));
        } else if (!std::strcmp(argv[i], "--trace")) {
            trace = parseU64("--trace", next("--trace"));
            if (trace > 1)
                usage("--trace takes 0 or 1");
        } else if (!std::strcmp(argv[i], "--fingerprints")) {
            fingerprints = next("--fingerprints");
        } else if (!std::strcmp(argv[i], "--record")) {
            record = true;
        } else if (!std::strcmp(argv[i], "--trace-out")) {
            trace_out = next("--trace-out");
        } else if (!std::strcmp(argv[i], "--git-sha")) {
            git_sha = next("--git-sha");
        } else if (!std::strcmp(argv[i], "--source-digest")) {
            source_digest = next("--source-digest");
        } else {
            usage(std::string("unknown option ") + argv[i]);
        }
    }
    if (workload.empty())
        usage("--workload is required");
    if (record && fingerprints.empty())
        usage("--record needs --fingerprints");

    FingerprintBook book;
    if (!fingerprints.empty()) {
        std::ifstream in(fingerprints);
        if (in) {
            std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            std::string err;
            if (!book.parse(text, &err)) {
                std::cerr << "perfbench: " << fingerprints << ": " << err
                          << '\n';
                return 1;
            }
        } else if (!record) {
            std::cerr << "perfbench: cannot read " << fingerprints << '\n';
            return 1;
        }
    }
    const FingerprintBook *check =
        fingerprints.empty() || record ? nullptr : &book;
    const std::uint64_t input_seed =
        check ? inputSeed(seed, book.seeds(workload)) : seed;

    Workload w;
    try {
        w = makeWorkload(workload, input_seed);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }

    std::vector<PassResult> passes;
    std::vector<Metric> metrics;
    std::map<std::string, double> self;
    if (trace == 0) {
        const auto t0 = std::chrono::steady_clock::now();
        do {
            passes.push_back(runPass(w, false, check));
        } while (std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count() < static_cast<double>(seconds));
        metrics = endToEndMetrics(passes, peakRssMb());
    } else {
        passes.push_back(runPass(w, false, check));
        passes.push_back(runPass(w, true, check));
        metrics = perLayerMetrics(passes[0], passes[1], runMicro(seed));
        const std::vector<Span> &spans = passes[1].spans;
        const std::vector<double> span_self = selfTimes(spans);
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[spans[i].name] += span_self[i];
        if (!trace_out.empty()) {
            std::ofstream out(trace_out);
            out << "{\"workload\":" << str(workload) << ",\"seed\":" << seed
                << ",\"spans\":[";
            for (std::size_t i = 0; i < spans.size(); ++i) {
                const Span &s = spans[i];
                out << (i ? "," : "") << "{\"id\":" << i
                    << ",\"name\":" << str(s.name)
                    << ",\"start_s\":" << num(s.start)
                    << ",\"end_s\":" << num(s.end)
                    << ",\"self_s\":" << num(span_self[i])
                    << ",\"parent\":" << s.parent << ",\"job\":" << s.job;
                if (s.job >= 0)
                    out << ",\"label\":" << str(passes[1].jobs[s.job].label);
                if (s.name == "session.run")
                    writePhases(out, passes[1].jobs[s.job]);
                out << '}';
            }
            out << "]}\n";
            if (!out)
                std::cerr << "perfbench: cannot write " << trace_out << '\n';
        }
    }

    // A job is correct if it ran, verified, matched its recorded
    // fingerprint, and produced the same fingerprint in every pass.
    std::vector<std::string> failures;
    std::size_t attempted = 0, failed = 0;
    for (const PassResult &p : passes) {
        for (std::size_t i = 0; i < p.jobs.size(); ++i) {
            const JobRecord &j = p.jobs[i];
            bool ok = j.ok();
            if (ok && !(j.fp == passes.front().jobs[i].fp)) {
                ok = false;
                failures.push_back(j.label + ": fingerprint " + j.fp.str() +
                                   " differs between passes");
            } else if (!ok) {
                failures.push_back(
                    j.label + ": " +
                    (j.fingerprintMismatch ? std::string("fingerprint")
                                           : sim::jobOutcomeName(j.outcome)) +
                    ": " + j.what.substr(0, j.what.find('\n')));
            }
            ++attempted;
            failed += !ok;
        }
    }
    for (const std::string &f : failures)
        std::cerr << "perfbench: FAILED " << f << '\n';
    if (!optimizedBuild()) {
        std::cerr << "perfbench: WARNING: not an optimized build; these "
                     "numbers do not belong in the ledger\n";
    }

    if (record) {
        if (failed) {
            std::cerr << "perfbench: not recording a failing run\n";
            return 1;
        }
        for (const JobRecord &j : passes.front().jobs)
            book.set(workload, seed, j.label, j.fp.str());
        std::ofstream out(fingerprints);
        out << book.dump();
        if (!out) {
            std::cerr << "perfbench: cannot write " << fingerprints << '\n';
            return 1;
        }
    }

    std::ostringstream report;
    report << "{\"report\":{\"workload\":" << str(workload)
           << ",\"seed\":" << seed << ",\"input_seed\":" << input_seed
           << ",\"trace\":" << trace
           << ",\"env\":{\"host_cores\":"
           << std::thread::hardware_concurrency()
           << ",\"compiler\":" << str(compilerId())
           << ",\"build_type\":" << str(PERFBENCH_BUILD_TYPE)
           << ",\"optimized\":" << (optimizedBuild() ? "true" : "false")
           << ",\"git_sha\":" << str(git_sha)
           << ",\"source_digest\":" << str(source_digest)
           << ",\"workers\":" << w.workers << "},\"passes\":[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        double construct = 0;
        for (const JobRecord &j : passes[i].jobs)
            construct += j.constructSec();
        report << (i ? "," : "") << "{\"traced\":"
               << (passes[i].traced ? "true" : "false")
               << ",\"wall_s\":" << num(passes[i].wallSec)
               << ",\"setup_s\":" << num(construct)
               << ",\"failed\":" << passes[i].failed() << ",\"job_wall_s\":[";
        for (std::size_t j = 0; j < passes[i].jobs.size(); ++j)
            report << (j ? "," : "") << num(passes[i].jobs[j].wallSec());
        report << "]}";
    }
    report << "],\"self_s\":{";
    bool first = true;
    for (const auto &[name, sec] : self) {
        report << (first ? "" : ",") << str(name) << ':' << num(sec);
        first = false;
    }
    report << "},\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        report << (i ? "," : "") << str(failures[i]);
    report << "]}}";
    std::cout << report.str() << '\n';

    std::cout << "{\"correct\":" << (failed ? "false" : "true")
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? "," : "") << str(metrics[i].name)
                  << ":{\"value\":" << num(metrics[i].value)
                  << ",\"unit\":" << str(metrics[i].unit) << '}';
    }
    std::cout << "}}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
