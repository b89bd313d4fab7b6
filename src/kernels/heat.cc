/**
 * @file
 * heat: 2D Jacobi stencil (Section 4.1). Two buffers alternate as
 * source and destination across barrier-separated iterations; each
 * task relaxes a block of interior rows. Under software-managed
 * coherence the task lazily invalidates the source rows it reads
 * (they were produced by other clusters last iteration) and eagerly
 * flushes the destination rows it wrote — the canonical TCMM idiom.
 */

#include "kernels/heat.hh"

#include <cmath>
#include <vector>

#include "sim/logging.hh"

namespace kernels {

HeatKernel::HeatKernel(const Params &params) : Kernel(params)
{
    _n = 48 * params.scale;
    _iters = 6;
    _rng = sim::Rng(params.seed);
}

void
HeatKernel::setup(runtime::CohesionRuntime &rt)
{
    const std::uint32_t cells = _n * _n;
    _a = rt.cohMalloc(cells * 4);
    _b = rt.cohMalloc(cells * 4);

    _init.resize(cells);
    for (std::uint32_t i = 0; i < cells; ++i) {
        _init[i] = static_cast<float>(_rng.range(0.0, 100.0));
        rt.poke<float>(_a + i * 4, _init[i]);
        rt.poke<float>(_b + i * 4, _init[i]); // boundary cells persist
    }

    // One phase per iteration over the interior rows.
    unsigned cores = rt.chip().totalCores();
    std::uint32_t rows = _n - 2;
    std::uint32_t chunk = std::max<std::uint32_t>(1, rows / (2 * cores));
    _phases.clear();
    for (unsigned t = 0; t < _iters; ++t)
        _phases.push_back(addPhase(rt, chunkTasks(rows, chunk)));
}

sim::CoTask
HeatKernel::taskBody(runtime::Ctx &ctx, runtime::TaskDesc td,
                     mem::Addr src, mem::Addr dst)
{
    const std::uint32_t first_row = td.arg0 + 1; // interior offset
    const std::uint32_t rows = td.arg1;
    const std::uint32_t n = _n;

    // Lazily invalidate the source rows (incl. halo) we are about to
    // read: other clusters produced them last iteration.
    if (ctx.swccManaged(src)) {
        co_await ctx.invRegion(src + (first_row - 1) * n * 4,
                               (rows + 2) * n * 4);
    }

    for (std::uint32_t r = first_row; r < first_row + rows; ++r) {
        for (std::uint32_t c = 1; c + 1 < n; ++c) {
            mem::Addr center = src + (r * n + c) * 4;
            float up = runtime::Ctx::asF32(
                co_await ctx.load32(center - n * 4));
            float down = runtime::Ctx::asF32(
                co_await ctx.load32(center + n * 4));
            float left = runtime::Ctx::asF32(
                co_await ctx.load32(center - 4));
            float right = runtime::Ctx::asF32(
                co_await ctx.load32(center + 4));
            co_await ctx.compute(6);
            float v = 0.25f * (up + down + left + right);
            co_await ctx.storeF32(dst + (r * n + c) * 4, v);
        }
    }

    // Eagerly write back the produced rows.
    if (ctx.swccManaged(dst))
        co_await ctx.flushRegion(dst + first_row * n * 4, rows * n * 4);
}

sim::CoTask
HeatKernel::worker(runtime::Ctx ctx)
{
    ctx.core().setCodeRegion(runtime::Layout::codeBase + 0x1000, 768);
    for (unsigned t = 0; t < _iters; ++t) {
        mem::Addr src = (t % 2 == 0) ? _a : _b;
        mem::Addr dst = (t % 2 == 0) ? _b : _a;
        co_await ctx.forEachTask(
            _phases[t],
            [this, src, dst](runtime::Ctx &c,
                             const runtime::TaskDesc &td) {
                return taskBody(c, td, src, dst);
            });
        co_await ctx.barrier();
    }
}

void
HeatKernel::verify(runtime::CohesionRuntime &rt)
{
    const std::uint32_t n = _n;
    std::vector<float> cur = _init;
    std::vector<float> next = _init;
    for (unsigned t = 0; t < _iters; ++t) {
        for (std::uint32_t r = 1; r + 1 < n; ++r) {
            for (std::uint32_t c = 1; c + 1 < n; ++c) {
                next[r * n + c] = 0.25f * (cur[(r - 1) * n + c] +
                                           cur[(r + 1) * n + c] +
                                           cur[r * n + c - 1] +
                                           cur[r * n + c + 1]);
            }
        }
        std::swap(cur, next);
    }

    const std::vector<float> result =
        rt.verifyReadF32((_iters % 2 == 0) ? _a : _b, n * n);
    for (std::uint32_t i = 0; i < n * n; ++i) {
        float got = result[i];
        float want = cur[i];
        // !(x <= t) so a NaN from an injected fault fails the check.
        fatal_if(!(std::fabs(got - want) <=
                   1e-3f + 1e-4f * std::fabs(want)),
                 "heat mismatch at cell ", i, ": got ", got, " want ",
                 want);
    }
}

std::unique_ptr<Kernel>
makeHeat(const Params &params)
{
    return std::make_unique<HeatKernel>(params);
}

} // namespace kernels
