#include "sim/latency_accounting.hh"

#include "sim/stat_registry.hh"

namespace sim {

namespace lat {

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Issue:
        return "issue";
      case Stage::Mshr:
        return "mshr";
      case Stage::ReqFabric:
        return "req_fabric";
      case Stage::Retry:
        return "retry";
      case Stage::BankLock:
        return "bank_lock";
      case Stage::Dir:
        return "dir";
      case Stage::Probe:
        return "probe";
      case Stage::Dram:
        return "dram";
      case Stage::Service:
        return "service";
      case Stage::RespFabric:
        return "resp_fabric";
    }
    return "?";
}

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Hwcc:
        return "hwcc";
      case Mode::Swcc:
        return "swcc";
      case Mode::Transition:
        return "transition";
    }
    return "?";
}

} // namespace lat

void
registerLatencyTotals(StatRegistry &reg, const std::string &prefix,
                      const LatencyTotals &t,
                      const char *(*class_name)(unsigned))
{
    auto bucket = [&reg](const std::string &base,
                         const LatencyTotals::Bucket &b) {
        reg.addScalar(base + ".count",
                      static_cast<double>(b.count));
        reg.addScalar(base + ".e2e", static_cast<double>(b.e2e));
        for (unsigned s = 0; s < lat::numStages; ++s) {
            reg.addScalar(
                base + "." +
                    lat::stageName(static_cast<lat::Stage>(s)),
                static_cast<double>(b.stage[s]));
        }
    };
    for (unsigned m = 0; m < lat::numModes; ++m) {
        bucket(prefix + ".mode." +
                   lat::modeName(static_cast<lat::Mode>(m)),
               t.mode[m]);
    }
    for (unsigned c = 0; c < t.cls.size(); ++c)
        bucket(prefix + ".class." + class_name(c), t.cls[c]);
    reg.addScalar(prefix + ".violations",
                  static_cast<double>(t.violations));
}

void
LatencyAccountant::registerStats(StatRegistry &reg,
                                 const std::string &prefix,
                                 const char *(*class_name)(unsigned)) const
{
    registerLatencyTotals(reg, prefix, _totals, class_name);
}

} // namespace sim
