/**
 * @file
 * Observer-overhead bench. The flight recorder, the host profiler and
 * latency accounting each promise at most 2% events/sec against a run
 * with every observer (and the auditor) off. One table lists the
 * observer configurations, and one routine measures every row:
 *
 *  - Each rep runs the all-off configuration and every row once, in an
 *    order rotated across reps so no configuration always runs first.
 *  - A row's overhead is the median over reps of (off - on) / off,
 *    paired within a rep so whatever the host did then hits both
 *    sides. Its quartiles tell overhead from noise.
 *  - A sample is this process's CPU time, immune to other processes on
 *    the box; a short kernel repeats until a sample holds 0.4 s.
 *
 * A row over its budget WARNs (exit 0), or FAILs (exit 1) with
 * --strict. A latency stage-sum violation is a bug, not host noise,
 * and exits 1 either way.
 *
 * With no flags: the Table-3 machine (1024 cores), workload scale 4,
 * all eight kernels, 7 reps; BENCH_overhead.json is its --json output
 * under the perf preset. --quick (the `overhead` ctest): heat and
 * kmeans at scale 2 on the 32-core scaled(4) machine, 3 reps.
 */

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "sim/host_profiler.hh"

namespace {

using harness::RunOptions;

/** One row: observers turned on over the all-off configuration. */
struct Observer
{
    const char *name;
    double budgetPct; ///< events/sec budget (0: reported, not gated)
    void (*enable)(RunOptions &);
};

const std::uint32_t defaultRing = RunOptions{}.recorderCapacity;

const Observer observers[] = {
    {"recorder", 2.0, [](RunOptions &o) { o.recorderCapacity = defaultRing; }},
    // The recorder feeding the per-line sharing profiler.
    {"recorder+profiler", 0,
     [](RunOptions &o) {
         o.recorderCapacity = defaultRing;
         o.profileTopN = 8;
     }},
    {"hostprof", 2.0, [](RunOptions &o) { o.hostProfile = true; }},
    // The default heartbeat interval with a sink that does no I/O:
    // measures the run-loop chunking, not the terminal.
    {"hostprof+progress", 0,
     [](RunOptions &o) {
         o.hostProfile = true;
         o.progress = [](sim::Tick, std::uint64_t) {};
     }},
    {"latency", 2.0, [](RunOptions &o) { o.latency = true; }},
};
constexpr std::size_t numRows = std::size(observers);

/** Configuration 0 is all off; configuration c > 0 is row c - 1. */
constexpr std::size_t numConfigs = numRows + 1;

double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Quantile @p q of @p v, interpolating between closest ranks. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

struct RowResult
{
    double evSec = 0;    ///< median events/sec
    double overhead = 0; ///< median paired (off - on) / off, in %
    double q1 = 0, q3 = 0;
};

struct KernelResult
{
    std::string kernel;
    double offEvSec = 0;
    std::array<RowResult, numRows> rows;
    std::uint64_t recorded = 0;     ///< records a recorder run logged
    double attributedPct = 0;       ///< profiled share of a run's wall
    std::uint64_t transactions = 0; ///< transactions latency accounted
    std::uint64_t violations = 0;   ///< latency stage-sum failures
};

KernelResult
measure(const arch::MachineConfig &cfg, const std::string &kernel,
        const kernels::Params &params,
        const std::array<RunOptions, numConfigs> &configs, unsigned reps)
{
    constexpr double minSampleSeconds = 0.4;
    KernelResult k;
    k.kernel = kernel;
    std::array<std::vector<double>, numConfigs> samples;
    for (unsigned i = 0; i < reps; ++i) {
        for (std::size_t j = 0; j < numConfigs; ++j) {
            std::size_t c = (i + j) % numConfigs;
            // runKernel leaves a profiled run's profiler enabled.
            if (!configs[c].hostProfile)
                sim::HostProfiler::disable();
            std::uint64_t events = 0;
            double elapsed = 0;
            do {
                double t0 = cpuSeconds();
                harness::RunResult r = harness::runKernel(
                    cfg, kernels::kernelFactory(kernel), params,
                    configs[c]);
                elapsed += cpuSeconds() - t0;
                events += r.eventsRun;
                k.recorded = std::max(k.recorded, r.recorderRecorded);
                if (configs[c].hostProfile) {
                    k.attributedPct = 100.0 *
                                      double(r.hostProfile.attributedNs()) /
                                      1e9 / r.hostWallSec;
                }
                k.transactions =
                    std::max(k.transactions, r.latency.completed());
                k.violations += r.latency.violations;
            } while (elapsed < minSampleSeconds);
            samples[c].push_back(static_cast<double>(events) / elapsed);
        }
    }
    sim::HostProfiler::disable();
    k.offEvSec = quantile(samples[0], 0.5);
    for (std::size_t c = 1; c < numConfigs; ++c) {
        std::vector<double> ratios;
        for (unsigned i = 0; i < reps; ++i) {
            ratios.push_back((samples[0][i] - samples[c][i]) /
                             samples[0][i] * 100.0);
        }
        k.rows[c - 1] = {quantile(samples[c], 0.5), quantile(ratios, 0.5),
                         quantile(ratios, 0.25), quantile(ratios, 0.75)};
    }
    return k;
}

void
writeJson(const std::string &path, const std::string &machine,
          unsigned scale, unsigned reps,
          const std::vector<KernelResult> &results)
{
    std::ofstream os(path);
    os << std::fixed << std::setprecision(2)
       << "{\n  \"bench\": \"perf_overhead\",\n"
       << "  \"machine\": \"" << machine << "\",\n"
       << "  \"workload_scale\": " << scale << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"host_cores\": " << std::thread::hardware_concurrency()
       << ",\n  \"budget_pct\": {";
    for (std::size_t c = 0; c < numRows; ++c) {
        os << (c ? ", \"" : "\"") << observers[c].name << "\": ";
        if (observers[c].budgetPct > 0)
            os << observers[c].budgetPct;
        else
            os << "null";
    }
    os << "},\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const KernelResult &k = results[i];
        os << "    {\"kernel\": \"" << k.kernel
           << "\", \"off_events_per_sec\": " << std::uint64_t(k.offEvSec)
           << ", \"events_recorded\": " << k.recorded
           << ", \"attributed_pct\": " << k.attributedPct
           << ", \"transactions\": " << k.transactions
           << ", \"violations\": " << k.violations << ", \"rows\": {";
        for (std::size_t c = 0; c < numRows; ++c) {
            const RowResult &r = k.rows[c];
            os << "\n      \"" << observers[c].name
               << "\": {\"events_per_sec\": " << std::uint64_t(r.evSec)
               << ", \"overhead_pct\": " << r.overhead
               << ", \"overhead_q1_pct\": " << r.q1
               << ", \"overhead_q3_pct\": " << r.q3
               << (c + 1 < numRows ? "}," : "}");
        }
        os << "}}" << (i + 1 < results.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool strict = false;
    unsigned scale = 0;
    unsigned reps_override = 0;
    std::string json_path;
    std::vector<std::string> only;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
        } else if (!std::strcmp(argv[i], "--strict")) {
            strict = true;
        } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
            scale = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
            reps_override = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--kernel") && i + 1 < argc) {
            only.push_back(argv[++i]);
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::cout << "usage: " << argv[0]
                      << " [--quick] [--strict] [--scale N] [--reps N]"
                         " [--kernel NAME]... [--json FILE]\n";
            return !std::strcmp(argv[i], "--help") ? 0 : 1;
        }
    }

    arch::MachineConfig cfg = quick ? arch::MachineConfig::scaled(4)
                                    : arch::MachineConfig::paper1024();
    kernels::Params params;
    params.scale = scale ? scale : (quick ? 2 : 4);
    const unsigned reps = reps_override ? reps_override : (quick ? 3 : 7);
    std::vector<std::string> which =
        !only.empty() ? only
        : quick       ? std::vector<std::string>{"heat", "kmeans"}
                      : kernels::allKernelNames();

    std::array<RunOptions, numConfigs> configs;
    configs[0].audit = false;
    configs[0].recorderCapacity = 0;
    for (std::size_t c = 1; c < numConfigs; ++c) {
        configs[c] = configs[0];
        observers[c - 1].enable(configs[c]);
    }

    std::printf("observer overhead on %s, workload scale %u, median of %u "
                "reps, %u host cores\n"
                "  kernel   observer                 ev/s  overhead"
                "  [    q1,     q3]\n",
                cfg.summary().c_str(), params.scale, reps,
                std::thread::hardware_concurrency());
    std::vector<KernelResult> results;
    for (const std::string &kernel : which) {
        KernelResult k = measure(cfg, kernel, params, configs, reps);
        std::printf("  %-8s %-18s %10.0f  (%" PRIu64 " recorded, %.2f%% "
                    "attributed, %" PRIu64 " transactions)\n",
                    kernel.c_str(), "off", k.offEvSec, k.recorded,
                    k.attributedPct, k.transactions);
        for (std::size_t c = 0; c < numRows; ++c) {
            const RowResult &r = k.rows[c];
            std::printf("  %-8s %-18s %10.0f  %6.2f%%  [%6.2f, %6.2f]\n",
                        kernel.c_str(), observers[c].name, r.evSec,
                        r.overhead, r.q1, r.q3);
        }
        results.push_back(std::move(k));
    }

    std::fflush(stdout); // the table before the verdicts on stderr
    if (!json_path.empty())
        writeJson(json_path, cfg.summary(), params.scale, reps, results);

    int rc = 0;
    std::uint64_t violations = 0;
    for (const KernelResult &k : results)
        violations += k.violations;
    if (violations) {
        std::fprintf(stderr, "FAIL: %" PRIu64 " latency stage-sum "
                             "invariant violation(s)\n", violations);
        rc = 1;
    }
    for (std::size_t c = 0; c < numRows; ++c) {
        const Observer &o = observers[c];
        if (o.budgetPct <= 0)
            continue;
        const KernelResult &worst = *std::max_element(
            results.begin(), results.end(),
            [c](const KernelResult &a, const KernelResult &b) {
                return a.rows[c].overhead < b.rows[c].overhead;
            });
        if (worst.rows[c].overhead > o.budgetPct) {
            std::fprintf(stderr,
                         "%s: %s overhead %.2f%% (%s) exceeds the %.0f%% "
                         "events/sec budget\n",
                         strict ? "FAIL" : "WARN", o.name,
                         worst.rows[c].overhead, worst.kernel.c_str(),
                         o.budgetPct);
            rc = strict ? 1 : rc;
        } else {
            std::printf("PASS: %s overhead <= %.0f%% events/sec\n", o.name,
                        o.budgetPct);
        }
    }
    return rc;
}
