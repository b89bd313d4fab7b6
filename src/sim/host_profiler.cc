#include "sim/host_profiler.hh"

#include <memory>
#include <mutex>
#include <vector>

namespace sim {

std::atomic<bool> HostProfiler::_on{false};
std::atomic<unsigned> HostProfiler::_sampleShift{
    HostProfiler::defaultSampleShift};
thread_local HostProfiler::ThreadAcc *HostProfiler::_tlAcc = nullptr;

namespace {

struct AccRegistry
{
    std::mutex mu;
    std::vector<std::unique_ptr<HostProfiler::ThreadAcc>> accs;
};

AccRegistry &
registry()
{
    // Leaked intentionally: thread-exit order vs static destruction
    // order is unknowable, and the registry must outlive both.
    static AccRegistry *r = new AccRegistry;
    return *r;
}

} // namespace

HostProfiler::ThreadAcc &
HostProfiler::threadAcc()
{
    if (!_tlAcc) {
        auto acc = std::make_unique<ThreadAcc>();
        _tlAcc = acc.get();
        AccRegistry &r = registry();
        std::lock_guard<std::mutex> g(r.mu);
        r.accs.push_back(std::move(acc));
    }
    return *_tlAcc;
}

void
HostProfiler::enable(unsigned sample_shift)
{
    _sampleShift.store(sample_shift < 16 ? sample_shift : 15,
                       std::memory_order_relaxed);
    _on.store(true, std::memory_order_relaxed);
}

void
HostProfiler::disable()
{
    _on.store(false, std::memory_order_relaxed);
}

void
HostProfiler::reset()
{
    AccRegistry &r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    for (auto &acc : r.accs) {
        acc->phases.fill(PhaseAcc{});
        acc->stride.fill(0);
    }
}

HostProfiler::Profile
HostProfiler::processSnapshot()
{
    Profile p;
    p.sampleShift = sampleShift();
    AccRegistry &r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    for (const auto &acc : r.accs) {
        for (unsigned i = 0; i < numPhases; ++i) {
            p.phases[i].count += acc->phases[i].count;
            p.phases[i].timedCount += acc->phases[i].timedCount;
            p.phases[i].timedNs += acc->phases[i].timedNs;
        }
    }
    return p;
}

HostProfiler::Profile
HostProfiler::threadSnapshot()
{
    Profile p;
    p.sampleShift = sampleShift();
    // A thread that never profiled owns no accumulator: nothing to
    // report, and registering one just to read zeros would be waste.
    if (!_tlAcc)
        return p;
    std::lock_guard<std::mutex> g(registry().mu);
    p.phases = _tlAcc->phases;
    return p;
}

std::uint64_t
HostProfiler::Profile::estNs(Phase p) const
{
    const PhaseAcc &a = (*this)[p];
    if (!phaseSampled(p) || a.count == a.timedCount)
        return a.timedNs;
    if (!a.timedCount)
        return 0;
    return static_cast<std::uint64_t>(
        static_cast<double>(a.timedNs) * static_cast<double>(a.count) /
        static_cast<double>(a.timedCount));
}

std::uint64_t
HostProfiler::Profile::attributedNs() const
{
    std::uint64_t ns = 0;
    for (unsigned i = 1; i < numPhases; ++i) {
        Phase p = static_cast<Phase>(i);
        if (!phaseSampled(p))
            ns += estNs(p);
    }
    return ns;
}

void
HostProfiler::Profile::merge(const Profile &other)
{
    for (unsigned i = 0; i < numPhases; ++i) {
        phases[i].count += other.phases[i].count;
        phases[i].timedCount += other.phases[i].timedCount;
        phases[i].timedNs += other.phases[i].timedNs;
    }
}

HostProfiler::Profile
HostProfiler::Profile::since(const Profile &earlier) const
{
    auto sub = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : 0;
    };
    Profile d;
    d.sampleShift = sampleShift;
    for (unsigned i = 0; i < numPhases; ++i) {
        d.phases[i].count = sub(phases[i].count, earlier.phases[i].count);
        d.phases[i].timedCount =
            sub(phases[i].timedCount, earlier.phases[i].timedCount);
        d.phases[i].timedNs =
            sub(phases[i].timedNs, earlier.phases[i].timedNs);
    }
    return d;
}

const char *
HostProfiler::phaseName(Phase p)
{
    switch (p) {
      case Phase::None:
        return "none";
      case Phase::Setup:
        return "setup";
      case Phase::EqDispatch:
        return "eq.dispatch";
      case Phase::Barrier:
        return "barrier";
      case Phase::Audit:
        return "audit";
      case Phase::FaultPump:
        return "fault.pump";
      case Phase::Sampler:
        return "sampler";
      case Phase::Verify:
        return "verify";
      case Phase::StatsExport:
        return "export.stats";
      case Phase::TraceExport:
        return "export.trace";
      case Phase::ClusterCore:
        return "cluster.core";
      case Phase::ClusterMsg:
        return "cluster.msg";
      case Phase::ClusterSwcc:
        return "cluster.swcc";
      case Phase::BankMsg:
        return "bank.msg";
      case Phase::Directory:
        return "bank.directory";
      case Phase::RegionTable:
        return "cohesion.table";
      case Phase::numPhases:
        break;
    }
    return "?";
}

} // namespace sim
