#include "kernels/mri.hh"

#include <cmath>

#include "sim/logging.hh"

namespace kernels {

MriKernel::MriKernel(const Params &params) : Kernel(params)
{
    _numSamples = 16 * params.scale;
    _numVoxels = 4096 * params.scale;
    _rng = sim::Rng(params.seed ^ 0x3417);
}

void
MriKernel::setup(runtime::CohesionRuntime &rt)
{
    _ksp = rt.cohMalloc(_numSamples * 4 * 4);
    _vox = rt.cohMalloc(_numVoxels * 3 * 4);
    _qr = rt.cohMalloc(_numVoxels * 4);
    _qi = rt.cohMalloc(_numVoxels * 4);

    _hostKsp.resize(_numSamples * 4);
    for (std::uint32_t s = 0; s < _numSamples * 4; ++s) {
        _hostKsp[s] = static_cast<float>(_rng.range(-1.0, 1.0));
        rt.poke<float>(_ksp + s * 4, _hostKsp[s]);
    }
    _hostVox.resize(_numVoxels * 3);
    for (std::uint32_t v = 0; v < _numVoxels * 3; ++v) {
        _hostVox[v] = static_cast<float>(_rng.range(-3.0, 3.0));
        rt.poke<float>(_vox + v * 4, _hostVox[v]);
    }

    unsigned cores = rt.chip().totalCores();
    std::uint32_t chunk =
        std::max<std::uint32_t>(1, _numVoxels / (2 * cores));
    _phase = addPhase(rt, chunkTasks(_numVoxels, chunk));
}

sim::CoTask
MriKernel::voxelTask(runtime::Ctx &ctx, runtime::TaskDesc td)
{
    const std::uint32_t first = td.arg0;
    const std::uint32_t count = td.arg1;

    for (std::uint32_t v = first; v < first + count; ++v) {
        float x = runtime::Ctx::asF32(
            co_await ctx.load32(_vox + (v * 3 + 0) * 4));
        float y = runtime::Ctx::asF32(
            co_await ctx.load32(_vox + (v * 3 + 1) * 4));
        float z = runtime::Ctx::asF32(
            co_await ctx.load32(_vox + (v * 3 + 2) * 4));

        float qr = 0.0f, qi = 0.0f;
        for (std::uint32_t s = 0; s < _numSamples; ++s) {
            mem::Addr sa = _ksp + s * 4 * 4;
            float kx = runtime::Ctx::asF32(co_await ctx.load32(sa + 0));
            float ky = runtime::Ctx::asF32(co_await ctx.load32(sa + 4));
            float kz = runtime::Ctx::asF32(co_await ctx.load32(sa + 8));
            float phi = runtime::Ctx::asF32(
                co_await ctx.load32(sa + 12));
            // High arithmetic intensity: trig per sample.
            co_await ctx.compute(24);
            float arg = 2.0f * 3.14159265f * (kx * x + ky * y + kz * z);
            qr += phi * std::cos(arg);
            qi += phi * std::sin(arg);
        }
        co_await ctx.storeF32(_qr + v * 4, qr);
        co_await ctx.storeF32(_qi + v * 4, qi);
    }

    if (ctx.swccManaged(_qr)) {
        co_await ctx.flushRegion(_qr + first * 4, count * 4);
        co_await ctx.flushRegion(_qi + first * 4, count * 4);
    }
}

sim::CoTask
MriKernel::worker(runtime::Ctx ctx)
{
    // Large trig loop body: more I-fetch footprint than the L1I.
    ctx.core().setCodeRegion(runtime::Layout::codeBase + 0x6000, 2560);
    co_await ctx.forEachTask(
        _phase, [this](runtime::Ctx &c, const runtime::TaskDesc &td) {
            return voxelTask(c, td);
        });
    co_await ctx.barrier();
}

void
MriKernel::verify(runtime::CohesionRuntime &rt)
{
    const std::vector<float> sim_qr = rt.verifyReadF32(_qr, _numVoxels);
    const std::vector<float> sim_qi = rt.verifyReadF32(_qi, _numVoxels);
    for (std::uint32_t v = 0; v < _numVoxels; ++v) {
        float x = _hostVox[v * 3 + 0];
        float y = _hostVox[v * 3 + 1];
        float z = _hostVox[v * 3 + 2];
        float qr = 0.0f, qi = 0.0f;
        for (std::uint32_t s = 0; s < _numSamples; ++s) {
            float kx = _hostKsp[s * 4 + 0];
            float ky = _hostKsp[s * 4 + 1];
            float kz = _hostKsp[s * 4 + 2];
            float phi = _hostKsp[s * 4 + 3];
            float arg = 2.0f * 3.14159265f * (kx * x + ky * y + kz * z);
            qr += phi * std::cos(arg);
            qi += phi * std::sin(arg);
        }
        float got_r = sim_qr[v];
        float got_i = sim_qi[v];
        // !(x <= t) so a NaN from an injected fault fails.
        fatal_if(!(std::fabs(got_r - qr) <= 1e-3f + 1e-3f * std::fabs(qr)),
                 "mri Qr mismatch at voxel ", v, ": got ", got_r,
                 " want ", qr);
        fatal_if(!(std::fabs(got_i - qi) <= 1e-3f + 1e-3f * std::fabs(qi)),
                 "mri Qi mismatch at voxel ", v, ": got ", got_i,
                 " want ", qi);
    }
}

std::unique_ptr<Kernel>
makeMri(const Params &params)
{
    return std::make_unique<MriKernel>(params);
}

} // namespace kernels
