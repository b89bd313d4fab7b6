/**
 * @file
 * cohesion-sim: the command-line simulator driver. Runs one benchmark
 * kernel on a configurable machine and prints either a full
 * human-readable statistics report or machine-readable CSV.
 *
 *   cohesion-sim --kernel heat --mode cohesion --clusters 8 --scale 4
 *   cohesion-sim --kernel kmeans --mode swcc --csv > stats.csv
 *   cohesion-sim --list
 *
 * Options:
 *   --kernel NAME     cg|dmm|gjk|heat|kmeans|mri|sobel|stencil
 *   --mode MODE       swcc | hwcc | cohesion  (default cohesion)
 *   --backend NAME    coherence backend (msi-fullmap | dir4b | dls;
 *                     default derives from the directory config)
 *   --list-backends   print the registered backend names and exit
 *   --clusters N      clusters of 8 cores (default 4)
 *   --paper           full 1024-core Table 3 machine
 *   --scale N         workload scale (default 1)
 *   --seed N          workload seed
 *   --dir-entries N   per-bank directory entries (0 = infinite)
 *   --dir-assoc N     directory associativity (0 = fully associative)
 *   --dir4b           limited Dir4B sharer pointers
 *   --occupancy       sample directory occupancy every 1000 cycles
 *   --no-verify       skip numerical verification
 *   --csv             emit CSV instead of the report
 *   --trace GROUPS    narrate the flight-recorder records of these
 *                     groups to stderr, one decoded line each:
 *                     protocol,cache,transition,net,fault or all
 *   --stats-json F    hierarchical statistics as JSON ("-" = stdout)
 *   --trace-json F    the same records as a Chrome trace-event /
 *                     Perfetto JSON trace (what cohesion-trace
 *                     --perfetto renders from a dump)
 *   --sample-period N sample the time series every N cycles
 *   --timeseries-csv F  sampled series as tidy CSV ("-" = stdout)
 *   --fault-plan F    JSON fault campaign (sim/fault.hh schema)
 *   --fault-seed N    fault-stream seed (default derives from --seed)
 *   --fault-drop-rate R  drop rate on both fabric directions
 *   --no-audit        disable the runtime coherence auditor
 *   --recorder N      flight-recorder ring capacity (0 disables)
 *   --recorder-dump F write the binary recorder dump after the run
 *                     (decode with cohesion-trace)
 *   --watch-line A    also narrate every record touching line A
 *   --latency         per-transaction latency accounting (adds the
 *                     chip.latency.* / latency.* blame breakdown;
 *                     observer-only, results are byte-identical)
 *   --latency-topn N  print the top-N contended (class, stage) cells
 *                     and the per-mode waterfall (implies --latency)
 *   --host-profile F  enable the host-side self-profiler and write its
 *                     JSON report (per-phase host time) to F
 *   --progress[=F]    live heartbeat on stderr while the run executes;
 *                     =F also appends machine-readable JSON lines to F
 *   --checkpoint-at F write a CCKPT1 machine snapshot after the run
 *   --restore F       restore machine state from a snapshot before the
 *                     run (exit 4 on a corrupt/incompatible snapshot)
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "arch/flight_decode.hh"
#include "coherence/backend.hh"
#include "harness/hostprof.hh"
#include "harness/progress.hh"
#include "harness/report.hh"
#include "sim/fault.hh"
#include "sim/serialize.hh"
#include "harness/runner.hh"
#include "kernels/registry.hh"

namespace {

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: cohesion-sim [--kernel NAME] [--mode swcc|hwcc|cohesion]\n"
        "                    [--backend NAME] [--list-backends]\n"
        "                    [--clusters N] [--paper] [--scale N]\n"
        "                    [--seed N] [--dir-entries N] [--dir-assoc N]\n"
        "                    [--dir4b] [--occupancy] [--no-verify]\n"
        "                    [--table-cache N] [--trace CATEGORIES]\n"
        "                    [--csv] [--list]\n"
        "                    [--stats-json FILE] [--trace-json FILE]\n"
        "                    [--sample-period N] [--timeseries-csv FILE]\n"
        "                    [--fault-plan FILE] [--fault-seed N]\n"
        "                    [--fault-drop-rate R] [--no-audit]\n"
        "                    [--recorder N] [--recorder-dump FILE]\n"
        "                    [--watch-line 0xADDR]\n"
        "                    [--latency] [--latency-topn N]\n"
        "                    [--host-profile FILE] [--progress[=FILE]]\n"
        "                    [--checkpoint-at FILE] [--restore FILE]\n"
        "  trace categories: " << arch::traceGroupList() << "\n"
        "  FILE may be \"-\" for stdout (except --trace-json)\n";
    std::exit(code);
}

/** Open @p path for writing; "-" means stdout. Exits on failure. */
std::ostream *
openSink(const std::string &path,
         std::vector<std::unique_ptr<std::ofstream>> &owned)
{
    if (path == "-")
        return &std::cout;
    owned.push_back(std::make_unique<std::ofstream>(path));
    if (!*owned.back()) {
        std::cerr << "cannot open " << path << " for writing\n";
        std::exit(1);
    }
    return owned.back().get();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string kernel = "heat";
    std::string mode = "cohesion";
    std::string backend;
    unsigned clusters = 4;
    bool paper = false;
    kernels::Params params;
    coherence::DirectoryConfig dir =
        coherence::DirectoryConfig::optimistic();
    bool dir4b = false;
    std::uint32_t table_cache = 0;
    harness::RunOptions opts;
    int latency_topn = 0;
    bool csv = false;
    std::string trace;
    std::string stats_json, trace_json, timeseries_csv;
    std::string host_profile, progress_jsonl;
    bool progress = false;
    std::string fault_plan_path;
    std::uint64_t fault_seed = 0;
    double fault_drop_rate = 0.0;
    std::vector<std::unique_ptr<std::ofstream>> sinks;

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " requires a value\n";
                usage(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--kernel")) {
            kernel = next("--kernel");
        } else if (!std::strcmp(argv[i], "--mode")) {
            mode = next("--mode");
        } else if (!std::strcmp(argv[i], "--backend")) {
            backend = next("--backend");
        } else if (!std::strcmp(argv[i], "--list-backends")) {
            for (const auto &b : coherence::backendNames())
                std::cout << b << '\n';
            return 0;
        } else if (!std::strcmp(argv[i], "--clusters")) {
            clusters = std::atoi(next("--clusters"));
        } else if (!std::strcmp(argv[i], "--paper")) {
            paper = true;
        } else if (!std::strcmp(argv[i], "--scale")) {
            params.scale = std::atoi(next("--scale"));
        } else if (!std::strcmp(argv[i], "--seed")) {
            params.seed = std::atoll(next("--seed"));
        } else if (!std::strcmp(argv[i], "--dir-entries")) {
            dir.entries = std::atoi(next("--dir-entries"));
        } else if (!std::strcmp(argv[i], "--dir-assoc")) {
            dir.assoc = std::atoi(next("--dir-assoc"));
        } else if (!std::strcmp(argv[i], "--dir4b")) {
            dir4b = true;
        } else if (!std::strcmp(argv[i], "--table-cache")) {
            table_cache = std::atoi(next("--table-cache"));
        } else if (!std::strcmp(argv[i], "--occupancy")) {
            opts.sampleOccupancy = true;
        } else if (!std::strcmp(argv[i], "--no-verify")) {
            opts.skipVerify = true;
        } else if (!std::strcmp(argv[i], "--csv")) {
            csv = true;
        } else if (!std::strcmp(argv[i], "--trace")) {
            trace = next("--trace");
        } else if (!std::strcmp(argv[i], "--stats-json")) {
            stats_json = next("--stats-json");
        } else if (!std::strcmp(argv[i], "--trace-json")) {
            trace_json = next("--trace-json");
        } else if (!std::strcmp(argv[i], "--sample-period")) {
            opts.samplePeriod = std::atoll(next("--sample-period"));
        } else if (!std::strcmp(argv[i], "--timeseries-csv")) {
            timeseries_csv = next("--timeseries-csv");
        } else if (!std::strcmp(argv[i], "--fault-plan")) {
            fault_plan_path = next("--fault-plan");
        } else if (!std::strcmp(argv[i], "--fault-seed")) {
            fault_seed = std::strtoull(next("--fault-seed"), nullptr, 0);
        } else if (!std::strcmp(argv[i], "--fault-drop-rate")) {
            fault_drop_rate = std::atof(next("--fault-drop-rate"));
        } else if (!std::strcmp(argv[i], "--no-audit")) {
            opts.audit = false;
        } else if (!std::strcmp(argv[i], "--recorder")) {
            opts.recorderCapacity = static_cast<std::uint32_t>(
                std::strtoul(next("--recorder"), nullptr, 0));
        } else if (!std::strcmp(argv[i], "--recorder-dump")) {
            opts.recorderDumpPath = next("--recorder-dump");
        } else if (!std::strcmp(argv[i], "--checkpoint-at")) {
            opts.checkpointAt = next("--checkpoint-at");
        } else if (!std::strcmp(argv[i], "--restore")) {
            opts.restoreFrom = next("--restore");
        } else if (!std::strcmp(argv[i], "--host-profile")) {
            host_profile = next("--host-profile");
        } else if (!std::strcmp(argv[i], "--progress")) {
            progress = true;
        } else if (!std::strncmp(argv[i], "--progress=", 11)) {
            progress = true;
            progress_jsonl = argv[i] + 11;
        } else if (!std::strcmp(argv[i], "--latency")) {
            opts.latency = true;
        } else if (!std::strcmp(argv[i], "--latency-topn")) {
            latency_topn = std::atoi(next("--latency-topn"));
            if (latency_topn < 1) {
                std::cerr << "--latency-topn must be >= 1\n";
                usage(1);
            }
            opts.latency = true;
        } else if (!std::strcmp(argv[i], "--watch-line")) {
            opts.watchLine =
                std::strtoull(next("--watch-line"), nullptr, 0);
        } else if (!std::strcmp(argv[i], "--list")) {
            for (const auto &k : kernels::allKernelNames())
                std::cout << k << '\n';
            return 0;
        } else if (!std::strcmp(argv[i], "--help")) {
            usage(0);
        } else {
            std::cerr << "unknown option: " << argv[i] << '\n';
            usage(1);
        }
    }

    arch::MachineConfig cfg = paper ? arch::MachineConfig::paper1024()
                                    : arch::MachineConfig::scaled(clusters);
    if (mode == "swcc") {
        cfg.mode = arch::CoherenceMode::SWccOnly;
    } else if (mode == "hwcc") {
        cfg.mode = arch::CoherenceMode::HWccOnly;
    } else if (mode == "cohesion") {
        cfg.mode = arch::CoherenceMode::Cohesion;
    } else {
        std::cerr << "unknown mode: " << mode << '\n';
        usage(1);
    }
    if (dir4b)
        dir.sharerKind = coherence::SharerKind::LimitedPtr;
    cfg.directory = dir;
    cfg.tableCacheEntries = table_cache;
    if (!backend.empty() && !coherence::backendKnown(backend)) {
        // Exit 2: a usage error CI can tell apart from a sim failure.
        std::cerr << "unknown coherence backend '" << backend
                  << "' (registered: " << coherence::backendListString()
                  << ")\n";
        return 2;
    }
    cfg.backend = backend;

    if (!fault_plan_path.empty()) {
        std::ifstream in(fault_plan_path);
        if (!in) {
            std::cerr << "cannot open fault plan " << fault_plan_path
                      << '\n';
            return 1;
        }
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        cfg.faults = sim::FaultPlan::parse(text);
    }
    if (fault_drop_rate > 0.0) {
        cfg.faults.site(sim::FaultSite::FabricC2BDrop).rate =
            fault_drop_rate;
        cfg.faults.site(sim::FaultSite::FabricB2CDrop).rate =
            fault_drop_rate;
    }
    if (fault_seed)
        cfg.faults.seed = fault_seed;

    try {
        opts.traceMask = arch::parseTraceGroups(trace);
    } catch (const std::invalid_argument &e) {
        // Exit 2: a usage error, like an unknown backend.
        std::cerr << "--trace: " << e.what() << '\n';
        return 2;
    }

    if (!stats_json.empty())
        opts.statsJson = openSink(stats_json, sinks);
    if (!trace_json.empty()) {
        if (trace_json == "-") {
            std::cerr << "--trace-json needs a file path (not \"-\")\n";
            usage(1);
        }
        opts.traceJson = openSink(trace_json, sinks);
    }
    if (!timeseries_csv.empty() && opts.samplePeriod == 0 &&
        !opts.sampleOccupancy) {
        // A CSV sink without an explicit period implies sampling at
        // the paper's default cadence.
        opts.sampleOccupancy = true;
    }

    if (!host_profile.empty())
        opts.hostProfile = true;
    std::optional<harness::RunProgress> prog;
    if (progress) {
        std::ostream *jsonl = progress_jsonl.empty()
                                  ? nullptr
                                  : openSink(progress_jsonl, sinks);
        prog.emplace(kernel, jsonl);
        opts.progress = [&prog](sim::Tick t, std::uint64_t events) {
            prog->beat(t, events);
        };
    }

    try {
        harness::RunResult r = harness::runKernel(
            cfg, kernels::kernelFactory(kernel), params, opts);
        if (!timeseries_csv.empty())
            r.timeSeries.dumpCsv(*openSink(timeseries_csv, sinks));
        if (!host_profile.empty()) {
            // The RunResult snapshot already includes the export
            // phases: it is taken at the very end of runKernel.
            harness::writeHostProfileJson(*openSink(host_profile, sinks),
                                          r.hostProfile, r.hostWallSec,
                                          r.eventsRun);
        }
        // A "-" sink claims stdout for machine-readable output; the
        // human report would corrupt it.
        if (stats_json == "-" || timeseries_csv == "-" ||
            host_profile == "-") {
        } else if (csv) {
            harness::printCsv(std::cout, cfg, r);
        } else {
            std::cout << "kernel: " << kernel
                      << (opts.skipVerify ? " (not verified)"
                                          : " (verified)")
                      << '\n'
                      << "seed: " << r.seed;
            if (r.faultSeed) {
                std::cout << "  fault-seed: " << r.faultSeed
                          << "  faults-injected: " << r.faultsInjected
                          << "  faults-recovered: " << r.faultsRecovered;
            }
            std::cout << '\n';
            harness::printReport(std::cout, cfg, r);
        }
        if (latency_topn > 0) {
            // When a "-" sink owns stdout the table goes to stderr so
            // the machine-readable stream stays parseable.
            bool stdout_claimed = stats_json == "-" ||
                                  timeseries_csv == "-" ||
                                  host_profile == "-";
            harness::printLatencyTopN(stdout_claimed ? std::cerr
                                                     : std::cout,
                                      r,
                                      static_cast<unsigned>(latency_topn));
        }
    } catch (const sim::SnapshotError &e) {
        std::cerr << "snapshot error: " << e.what() << '\n';
        return 4;
    } catch (const std::exception &e) {
        std::cerr << "simulation failed: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
