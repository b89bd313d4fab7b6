#include "kernels/dmm.hh"

#include <cmath>

#include "sim/logging.hh"

namespace kernels {

DmmKernel::DmmKernel(const Params &params) : Kernel(params)
{
    _n = 32 * params.scale;
    _rng = sim::Rng(params.seed ^ 0xD33);
}

void
DmmKernel::setup(runtime::CohesionRuntime &rt)
{
    const std::uint32_t cells = _n * _n;
    _a = rt.cohMalloc(cells * 4);
    _b = rt.cohMalloc(cells * 4);
    _c = rt.cohMalloc(cells * 4);

    _ha.resize(cells);
    _hb.resize(cells);
    for (std::uint32_t i = 0; i < cells; ++i) {
        _ha[i] = static_cast<float>(_rng.range(-1.0, 1.0));
        _hb[i] = static_cast<float>(_rng.range(-1.0, 1.0));
        rt.poke<float>(_a + i * 4, _ha[i]);
        rt.poke<float>(_b + i * 4, _hb[i]);
    }

    unsigned cores = rt.chip().totalCores();
    std::uint32_t chunk = std::max<std::uint32_t>(1, _n / (2 * cores));
    _phase = addPhase(rt, chunkTasks(_n, chunk));
}

sim::CoTask
DmmKernel::tileTask(runtime::Ctx &ctx, runtime::TaskDesc td)
{
    const std::uint32_t first_row = td.arg0;
    const std::uint32_t rows = td.arg1;
    const std::uint32_t n = _n;

    for (std::uint32_t i = first_row; i < first_row + rows; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::uint32_t k = 0; k < n; ++k) {
                float av = runtime::Ctx::asF32(
                    co_await ctx.load32(_a + (i * n + k) * 4));
                float bv = runtime::Ctx::asF32(
                    co_await ctx.load32(_b + (k * n + j) * 4));
                acc += av * bv;
            }
            co_await ctx.compute(2 * n);
            co_await ctx.storeF32(_c + (i * n + j) * 4, acc);
        }
    }

    if (ctx.swccManaged(_c)) {
        co_await ctx.flushRegion(_c + first_row * n * 4, rows * n * 4);
    }
}

sim::CoTask
DmmKernel::worker(runtime::Ctx ctx)
{
    ctx.core().setCodeRegion(runtime::Layout::codeBase + 0x3000, 512);
    co_await ctx.forEachTask(
        _phase, [this](runtime::Ctx &c, const runtime::TaskDesc &td) {
            return tileTask(c, td);
        });
    co_await ctx.barrier();
}

void
DmmKernel::verify(runtime::CohesionRuntime &rt)
{
    const std::uint32_t n = _n;
    const std::vector<float> c = rt.verifyReadF32(_c, n * n);
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            float want = 0.0f;
            for (std::uint32_t k = 0; k < n; ++k)
                want += _ha[i * n + k] * _hb[k * n + j];
            float got = c[i * n + j];
            // !(x <= t) so a NaN from an injected fault fails the check.
            fatal_if(!(std::fabs(got - want) <=
                       1e-3f + 1e-3f * std::fabs(want)),
                     "dmm mismatch at (", i, ",", j, "): got ", got,
                     " want ", want);
        }
    }
}

std::unique_ptr<Kernel>
makeDmm(const Params &params)
{
    return std::make_unique<DmmKernel>(params);
}

} // namespace kernels
