#include "kernels/stencil.hh"

#include <cmath>

#include "sim/logging.hh"

namespace kernels {

StencilKernel::StencilKernel(const Params &params) : Kernel(params)
{
    _n = 14 * params.scale;
    _iters = 4;
    _rng = sim::Rng(params.seed ^ 0x57E7C);
}

void
StencilKernel::setup(runtime::CohesionRuntime &rt)
{
    const std::uint32_t cells = _n * _n * _n;
    _a = rt.cohMalloc(cells * 4);
    _b = rt.cohMalloc(cells * 4);

    _init.resize(cells);
    for (std::uint32_t i = 0; i < cells; ++i) {
        _init[i] = static_cast<float>(_rng.range(0.0, 10.0));
        rt.poke<float>(_a + i * 4, _init[i]);
        rt.poke<float>(_b + i * 4, _init[i]);
    }

    unsigned cores = rt.chip().totalCores();
    std::uint32_t slabs = _n - 2;
    std::uint32_t chunk = std::max<std::uint32_t>(1, slabs / (2 * cores));
    _phases.clear();
    for (unsigned t = 0; t < _iters; ++t)
        _phases.push_back(addPhase(rt, chunkTasks(slabs, chunk)));
}

sim::CoTask
StencilKernel::slabTask(runtime::Ctx &ctx, runtime::TaskDesc td,
                        mem::Addr src, mem::Addr dst)
{
    const std::uint32_t first_z = td.arg0 + 1;
    const std::uint32_t slabs = td.arg1;
    const std::uint32_t n = _n;
    const std::uint32_t plane = n * n;

    if (ctx.swccManaged(src)) {
        co_await ctx.invRegion(src + (first_z - 1) * plane * 4,
                               (slabs + 2) * plane * 4);
    }

    for (std::uint32_t z = first_z; z < first_z + slabs; ++z) {
        for (std::uint32_t y = 1; y + 1 < n; ++y) {
            for (std::uint32_t x = 1; x + 1 < n; ++x) {
                mem::Addr c = src + idx(x, y, z) * 4;
                float xm = runtime::Ctx::asF32(
                    co_await ctx.load32(c - 4));
                float xp = runtime::Ctx::asF32(
                    co_await ctx.load32(c + 4));
                float ym = runtime::Ctx::asF32(
                    co_await ctx.load32(c - n * 4));
                float yp = runtime::Ctx::asF32(
                    co_await ctx.load32(c + n * 4));
                float zm = runtime::Ctx::asF32(
                    co_await ctx.load32(c - plane * 4));
                float zp = runtime::Ctx::asF32(
                    co_await ctx.load32(c + plane * 4));
                float cc = runtime::Ctx::asF32(co_await ctx.load32(c));
                co_await ctx.compute(9);
                float v = (1.0f / 7.0f) *
                          (xm + xp + ym + yp + zm + zp + cc);
                co_await ctx.storeF32(dst + idx(x, y, z) * 4, v);
            }
        }
    }

    if (ctx.swccManaged(dst)) {
        co_await ctx.flushRegion(dst + first_z * plane * 4,
                                 slabs * plane * 4);
    }
}

sim::CoTask
StencilKernel::worker(runtime::Ctx ctx)
{
    ctx.core().setCodeRegion(runtime::Layout::codeBase + 0x4000, 1024);
    for (unsigned t = 0; t < _iters; ++t) {
        mem::Addr src = (t % 2 == 0) ? _a : _b;
        mem::Addr dst = (t % 2 == 0) ? _b : _a;
        co_await ctx.forEachTask(
            _phases[t],
            [this, src, dst](runtime::Ctx &c,
                             const runtime::TaskDesc &td) {
                return slabTask(c, td, src, dst);
            });
        co_await ctx.barrier();
    }
}

void
StencilKernel::verify(runtime::CohesionRuntime &rt)
{
    const std::uint32_t n = _n;
    std::vector<float> cur = _init;
    std::vector<float> next = _init;
    for (unsigned t = 0; t < _iters; ++t) {
        for (std::uint32_t z = 1; z + 1 < n; ++z) {
            for (std::uint32_t y = 1; y + 1 < n; ++y) {
                for (std::uint32_t x = 1; x + 1 < n; ++x) {
                    next[idx(x, y, z)] =
                        (1.0f / 7.0f) *
                        (cur[idx(x - 1, y, z)] + cur[idx(x + 1, y, z)] +
                         cur[idx(x, y - 1, z)] + cur[idx(x, y + 1, z)] +
                         cur[idx(x, y, z - 1)] + cur[idx(x, y, z + 1)] +
                         cur[idx(x, y, z)]);
                }
            }
        }
        std::swap(cur, next);
    }

    const std::vector<float> result =
        rt.verifyReadF32((_iters % 2 == 0) ? _a : _b, n * n * n);
    for (std::uint32_t i = 0; i < n * n * n; ++i) {
        float got = result[i];
        float want = cur[i];
        // !(x <= t) so a NaN from an injected fault fails.
        fatal_if(!(std::fabs(got - want) <=
                   1e-3f + 1e-4f * std::fabs(want)),
                 "stencil mismatch at cell ", i, ": got ", got, " want ",
                 want);
    }
}

std::unique_ptr<Kernel>
makeStencil(const Params &params)
{
    return std::make_unique<StencilKernel>(params);
}

} // namespace kernels
