#include "harness/runner.hh"

#include "harness/session.hh"

namespace harness {

RunResult
runKernel(const arch::MachineConfig &cfg, kernels::Kernel &kernel,
          const RunOptions &opts)
{
    Session session(cfg, kernel.params().seed);
    if (!opts.restoreFrom.empty())
        session.restoreFrom(opts.restoreFrom);
    RunResult r = session.run(kernel, opts);
    if (!opts.checkpointAt.empty())
        session.checkpointTo(opts.checkpointAt);
    return r;
}

RunResult
runKernel(const arch::MachineConfig &cfg, kernels::KernelFactory factory,
          const kernels::Params &params, const RunOptions &opts)
{
    auto kernel = factory(params);
    return runKernel(cfg, *kernel, opts);
}

} // namespace harness
