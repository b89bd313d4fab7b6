#include "harness/hostprof.hh"

#include <algorithm>
#include <ostream>
#include <vector>

#include "sim/logging.hh"

namespace harness {

namespace {

using sim::HostProfiler;

constexpr double nsPerSec = 1e9;

double
secOf(std::uint64_t ns)
{
    return static_cast<double>(ns) / nsPerSec;
}

double
pctOf(std::uint64_t ns, double wall_sec)
{
    if (wall_sec <= 0)
        return 0;
    return 100.0 * secOf(ns) / wall_sec;
}

} // namespace

void
addHostStats(sim::StatRegistry &reg, const HostProfiler::Profile &p,
             double wall_sec)
{
    reg.addScalar("host.wall_sec", wall_sec);
    reg.addScalar("host.attributed_sec", secOf(p.attributedNs()));
    reg.addScalar("host.attributed_pct", pctOf(p.attributedNs(), wall_sec));
    reg.addScalar("host.sample_shift",
                  static_cast<double>(p.sampleShift));
    for (unsigned i = 1; i < HostProfiler::numPhases; ++i) {
        auto ph = static_cast<HostProfiler::Phase>(i);
        const HostProfiler::PhaseAcc &a = p[ph];
        if (!a.count)
            continue;
        std::string base = sim::cat("host.phase.", HostProfiler::phaseName(ph));
        reg.addScalar(base + ".sec", secOf(p.estNs(ph)));
        reg.addScalar(base + ".calls", static_cast<double>(a.count));
        reg.addScalar(base + ".pct", pctOf(p.estNs(ph), wall_sec));
    }
}

void
writeHostProfileJson(std::ostream &os, const HostProfiler::Profile &p,
                     double wall_sec, std::uint64_t events_run)
{
    using Phase = HostProfiler::Phase;

    // Rank phases by estimated time within each kind.
    std::vector<Phase> exact, sampled;
    for (unsigned i = 1; i < HostProfiler::numPhases; ++i) {
        auto ph = static_cast<Phase>(i);
        if (!p[ph].count)
            continue;
        (HostProfiler::phaseSampled(ph) ? sampled : exact).push_back(ph);
    }
    auto by_time = [&](Phase a, Phase b) { return p.estNs(a) > p.estNs(b); };
    std::sort(exact.begin(), exact.end(), by_time);
    std::sort(sampled.begin(), sampled.end(), by_time);

    const std::uint64_t dispatch_ns = p.estNs(Phase::EqDispatch);

    os << "{\n";
    os << "  \"schema\": \"cohesion-host-profile-v1\",\n";
    os << "  \"wall_sec\": " << wall_sec << ",\n";
    os << "  \"events_run\": " << events_run << ",\n";
    os << "  \"events_per_sec\": "
       << (wall_sec > 0 ? static_cast<double>(events_run) / wall_sec : 0)
       << ",\n";
    os << "  \"sample_shift\": " << p.sampleShift << ",\n";
    os << "  \"attributed_sec\": " << secOf(p.attributedNs()) << ",\n";
    os << "  \"attributed_pct\": " << pctOf(p.attributedNs(), wall_sec)
       << ",\n";

    // Exact phases tile the run: their seconds are measured, not
    // estimated, and sum to attributed_sec.
    os << "  \"phases\": [";
    bool first = true;
    for (Phase ph : exact) {
        os << (first ? "" : ",") << "\n    {\"name\": \""
           << HostProfiler::phaseName(ph) << "\", \"calls\": "
           << p[ph].count << ", \"sec\": " << secOf(p.estNs(ph))
           << ", \"pct_of_wall\": " << pctOf(p.estNs(ph), wall_sec)
           << "}";
        first = false;
    }
    os << "\n  ],\n";

    // Sampled per-component attribution of dispatch time. Inclusive
    // (a region-table scope under a bank scope accrues to both), so
    // entries can overlap and are reported against eq.dispatch rather
    // than summed.
    os << "  \"components\": [";
    first = true;
    for (Phase ph : sampled) {
        const HostProfiler::PhaseAcc &a = p[ph];
        double pct_dispatch =
            dispatch_ns ? 100.0 * static_cast<double>(p.estNs(ph)) /
                              static_cast<double>(dispatch_ns)
                        : 0;
        os << (first ? "" : ",") << "\n    {\"name\": \""
           << HostProfiler::phaseName(ph) << "\", \"calls\": " << a.count
           << ", \"timed\": " << a.timedCount
           << ", \"est_sec\": " << secOf(p.estNs(ph))
           << ", \"pct_of_dispatch\": " << pct_dispatch << "}";
        first = false;
    }
    os << "\n  ]\n";
    os << "}\n";
}

} // namespace harness
