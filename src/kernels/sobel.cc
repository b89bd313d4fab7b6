#include "kernels/sobel.hh"

#include <cmath>

#include "sim/logging.hh"

namespace kernels {

SobelKernel::SobelKernel(const Params &params) : Kernel(params)
{
    _w = 64 * params.scale;
    _h = 48 * params.scale;
    _rng = sim::Rng(params.seed ^ 0x50BE1);
}

void
SobelKernel::setup(runtime::CohesionRuntime &rt)
{
    const std::uint32_t pixels = _w * _h;
    _img = rt.cohMalloc(pixels * 4);
    _edges = rt.cohMalloc(pixels * 4);
    _count = rt.malloc(mem::lineBytes); // HWcc: shared atomic counter

    _input.resize(pixels);
    for (std::uint32_t i = 0; i < pixels; ++i) {
        _input[i] = static_cast<float>(_rng.range(0.0, 255.0));
        rt.poke<float>(_img + i * 4, _input[i]);
    }
    rt.poke<std::uint32_t>(_count, 0);

    unsigned cores = rt.chip().totalCores();
    std::uint32_t rows = _h - 2;
    std::uint32_t chunk = std::max<std::uint32_t>(1, rows / (2 * cores));
    _phaseGrad = addPhase(rt, chunkTasks(rows, chunk));
    _phaseThresh = addPhase(rt, chunkTasks(rows, chunk));
}

sim::CoTask
SobelKernel::gradientTask(runtime::Ctx &ctx, runtime::TaskDesc td)
{
    const std::uint32_t first_row = td.arg0 + 1;
    const std::uint32_t rows = td.arg1;
    const std::uint32_t w = _w;

    auto pix = [&](std::uint32_t r, std::uint32_t c) {
        return _img + (r * w + c) * 4;
    };

    for (std::uint32_t r = first_row; r < first_row + rows; ++r) {
        for (std::uint32_t c = 1; c + 1 < w; ++c) {
            float p[3][3];
            for (int dr = -1; dr <= 1; ++dr) {
                for (int dc = -1; dc <= 1; ++dc) {
                    p[dr + 1][dc + 1] = runtime::Ctx::asF32(
                        co_await ctx.load32(pix(r + dr, c + dc)));
                }
            }
            co_await ctx.compute(14);
            float gx = (p[0][2] + 2 * p[1][2] + p[2][2]) -
                       (p[0][0] + 2 * p[1][0] + p[2][0]);
            float gy = (p[2][0] + 2 * p[2][1] + p[2][2]) -
                       (p[0][0] + 2 * p[0][1] + p[0][2]);
            float mag = std::fabs(gx) + std::fabs(gy);
            co_await ctx.storeF32(_edges + (r * w + c) * 4, mag);
        }
    }

    if (ctx.swccManaged(_edges)) {
        co_await ctx.flushRegion(_edges + first_row * w * 4,
                                 rows * w * 4);
    }
}

sim::CoTask
SobelKernel::thresholdTask(runtime::Ctx &ctx, runtime::TaskDesc td)
{
    const std::uint32_t first_row = td.arg0 + 1;
    const std::uint32_t rows = td.arg1;
    const std::uint32_t w = _w;

    // The edge rows were written by other clusters in phase 1.
    if (ctx.swccManaged(_edges)) {
        co_await ctx.invRegion(_edges + first_row * w * 4, rows * w * 4);
    }

    std::uint32_t local = 0;
    for (std::uint32_t r = first_row; r < first_row + rows; ++r) {
        for (std::uint32_t c = 1; c + 1 < w; ++c) {
            float mag = runtime::Ctx::asF32(
                co_await ctx.load32(_edges + (r * w + c) * 4));
            co_await ctx.compute(2);
            if (mag > _threshold)
                ++local;
        }
    }
    if (local)
        co_await ctx.atomicAdd(_count, local);
}

sim::CoTask
SobelKernel::worker(runtime::Ctx ctx)
{
    ctx.core().setCodeRegion(runtime::Layout::codeBase + 0x2000, 896);
    co_await ctx.forEachTask(
        _phaseGrad, [this](runtime::Ctx &c, const runtime::TaskDesc &td) {
            return gradientTask(c, td);
        });
    co_await ctx.barrier();
    co_await ctx.forEachTask(
        _phaseThresh,
        [this](runtime::Ctx &c, const runtime::TaskDesc &td) {
            return thresholdTask(c, td);
        });
    co_await ctx.barrier();
}

void
SobelKernel::verify(runtime::CohesionRuntime &rt)
{
    const std::uint32_t w = _w, h = _h;
    const std::vector<float> edges = rt.verifyReadF32(_edges, w * h);
    std::uint32_t want_count = 0;
    for (std::uint32_t r = 1; r + 1 < h; ++r) {
        for (std::uint32_t c = 1; c + 1 < w; ++c) {
            auto p = [&](std::uint32_t rr, std::uint32_t cc) {
                return _input[rr * w + cc];
            };
            float gx = (p(r - 1, c + 1) + 2 * p(r, c + 1) +
                        p(r + 1, c + 1)) -
                       (p(r - 1, c - 1) + 2 * p(r, c - 1) +
                        p(r + 1, c - 1));
            float gy = (p(r + 1, c - 1) + 2 * p(r + 1, c) +
                        p(r + 1, c + 1)) -
                       (p(r - 1, c - 1) + 2 * p(r - 1, c) +
                        p(r - 1, c + 1));
            float want = std::fabs(gx) + std::fabs(gy);
            float got = edges[r * w + c];
            // !(x <= t) so a NaN from an injected fault fails.
            fatal_if(!(std::fabs(got - want) <= 1e-2f),
                     "sobel mismatch at (", r, ",", c, "): got ", got,
                     " want ", want);
            if (want > _threshold)
                ++want_count;
        }
    }
    std::uint32_t got_count = rt.verifyRead32(_count);
    fatal_if(got_count != want_count, "sobel edge count: got ", got_count,
             " want ", want_count);
}

std::unique_ptr<Kernel>
makeSobel(const Params &params)
{
    return std::make_unique<SobelKernel>(params);
}

} // namespace kernels
