#include "kernels/gjk.hh"

#include <cmath>

#include "sim/logging.hh"

namespace kernels {

GjkKernel::GjkKernel(const Params &params) : Kernel(params)
{
    _numObjects = 24 * params.scale;
    _numPairs = 128 * params.scale;
    _rng = sim::Rng(params.seed ^ 0x61C);
}

void
GjkKernel::setup(runtime::CohesionRuntime &rt)
{
    // Irregularly sized convex point clouds around random centers.
    _hObjects.clear();
    _hVerts.clear();
    for (std::uint32_t o = 0; o < _numObjects; ++o) {
        Object obj;
        obj.vertOffset = _hVerts.size() / 3;
        obj.vertCount = 40 + static_cast<std::uint32_t>(_rng.below(80));
        obj.cx = static_cast<float>(_rng.range(-30.0, 30.0));
        obj.cy = static_cast<float>(_rng.range(-30.0, 30.0));
        obj.cz = static_cast<float>(_rng.range(-30.0, 30.0));
        for (std::uint32_t v = 0; v < obj.vertCount; ++v) {
            _hVerts.push_back(obj.cx +
                              static_cast<float>(_rng.range(-4.0, 4.0)));
            _hVerts.push_back(obj.cy +
                              static_cast<float>(_rng.range(-4.0, 4.0)));
            _hVerts.push_back(obj.cz +
                              static_cast<float>(_rng.range(-4.0, 4.0)));
        }
        _hObjects.push_back(obj);
    }

    _hPairs.clear();
    for (std::uint32_t p = 0; p < _numPairs; ++p) {
        std::uint32_t a = _rng.below(_numObjects);
        std::uint32_t b = _rng.below(_numObjects);
        if (b == a)
            b = (b + 1) % _numObjects;
        _hPairs.emplace_back(a, b);
    }

    _verts = rt.cohMalloc(_hVerts.size() * 4);
    _objects = rt.cohMalloc(_numObjects * 8 * 4);
    _pairs = rt.cohMalloc(_numPairs * 2 * 4);
    // One-word results per pair: too fine-grained for software
    // flushes to pay off, so Cohesion leaves them HWcc.
    _results = rt.malloc(_numPairs * 4);

    for (std::size_t i = 0; i < _hVerts.size(); ++i)
        rt.poke<float>(_verts + i * 4, _hVerts[i]);
    for (std::uint32_t o = 0; o < _numObjects; ++o) {
        rt.poke<std::uint32_t>(objAddr(o) + 0, _hObjects[o].vertOffset);
        rt.poke<std::uint32_t>(objAddr(o) + 4, _hObjects[o].vertCount);
        rt.poke<float>(objAddr(o) + 8, _hObjects[o].cx);
        rt.poke<float>(objAddr(o) + 12, _hObjects[o].cy);
        rt.poke<float>(objAddr(o) + 16, _hObjects[o].cz);
    }
    for (std::uint32_t p = 0; p < _numPairs; ++p) {
        rt.poke<std::uint32_t>(_pairs + p * 8, _hPairs[p].first);
        rt.poke<std::uint32_t>(_pairs + p * 8 + 4, _hPairs[p].second);
    }

    // One pair per task: fine granularity (dequeue overhead matters).
    _phase = addPhase(rt, chunkTasks(_numPairs, 1));
}

sim::CoTask
GjkKernel::pairTask(runtime::Ctx &ctx, runtime::TaskDesc td)
{
    const std::uint32_t pair = td.arg0;
    const std::uint32_t ai = co_await ctx.load32(_pairs + pair * 8);
    const std::uint32_t bi = co_await ctx.load32(_pairs + pair * 8 + 4);

    // Object headers.
    std::uint32_t a_off = co_await ctx.load32(objAddr(ai) + 0);
    std::uint32_t a_cnt = co_await ctx.load32(objAddr(ai) + 4);
    std::uint32_t b_off = co_await ctx.load32(objAddr(bi) + 0);
    std::uint32_t b_cnt = co_await ctx.load32(objAddr(bi) + 4);
    float dx = runtime::Ctx::asF32(co_await ctx.load32(objAddr(ai) + 8)) -
               runtime::Ctx::asF32(co_await ctx.load32(objAddr(bi) + 8));
    float dy =
        runtime::Ctx::asF32(co_await ctx.load32(objAddr(ai) + 12)) -
        runtime::Ctx::asF32(co_await ctx.load32(objAddr(bi) + 12));
    float dz =
        runtime::Ctx::asF32(co_await ctx.load32(objAddr(ai) + 16)) -
        runtime::Ctx::asF32(co_await ctx.load32(objAddr(bi) + 16));

    // Direction from B toward A; iterate support mapping.
    float d[3] = {-dx, -dy, -dz};
    float min_proj = 1e30f;
    const mem::Addr simplex = ctx.stack(); // per-core private scratch

    // Clear the simplex scratch: the stack is reused across tasks.
    for (unsigned s = 0; s < 4 * 3; ++s)
        co_await ctx.storeF32(simplex + s * 4, 0.0f);

    for (unsigned it = 0; it < kMaxIters; ++it) {
        // Support of A along d.
        float best_a[3] = {0, 0, 0};
        float best_dot = -1e30f;
        for (std::uint32_t v = 0; v < a_cnt; ++v) {
            float vx = runtime::Ctx::asF32(
                co_await ctx.load32(vertAddr(a_off + v, 0)));
            float vy = runtime::Ctx::asF32(
                co_await ctx.load32(vertAddr(a_off + v, 1)));
            float vz = runtime::Ctx::asF32(
                co_await ctx.load32(vertAddr(a_off + v, 2)));
            float dot = vx * d[0] + vy * d[1] + vz * d[2];
            if (dot > best_dot) {
                best_dot = dot;
                best_a[0] = vx;
                best_a[1] = vy;
                best_a[2] = vz;
            }
        }
        co_await ctx.compute(6 * a_cnt);
        // Support of B along -d.
        float best_b[3] = {0, 0, 0};
        best_dot = -1e30f;
        for (std::uint32_t v = 0; v < b_cnt; ++v) {
            float vx = runtime::Ctx::asF32(
                co_await ctx.load32(vertAddr(b_off + v, 0)));
            float vy = runtime::Ctx::asF32(
                co_await ctx.load32(vertAddr(b_off + v, 1)));
            float vz = runtime::Ctx::asF32(
                co_await ctx.load32(vertAddr(b_off + v, 2)));
            float dot = -(vx * d[0] + vy * d[1] + vz * d[2]);
            if (dot > best_dot) {
                best_dot = dot;
                best_b[0] = vx;
                best_b[1] = vy;
                best_b[2] = vz;
            }
        }
        co_await ctx.compute(6 * b_cnt);

        // Minkowski-difference support point, kept on the stack.
        float w[3] = {best_a[0] - best_b[0], best_a[1] - best_b[1],
                      best_a[2] - best_b[2]};
        for (unsigned c = 0; c < 3; ++c) {
            co_await ctx.storeF32(
                simplex + ((it % 4) * 3 + c) * 4, w[c]);
        }

        float dlen = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
        if (dlen < 1e-6f)
            break;
        float proj = (w[0] * d[0] + w[1] * d[1] + w[2] * d[2]) / dlen;
        co_await ctx.compute(12);
        if (proj < min_proj)
            min_proj = proj;
        if (proj <= 0.0f)
            break; // separating axis found: no collision
        // New direction: bend toward the latest support point.
        d[0] = 0.25f * d[0] - w[0];
        d[1] = 0.25f * d[1] - w[1];
        d[2] = 0.25f * d[2] - w[2];
    }

    // Fold the stacked simplex back in (forces stack read traffic).
    float norm = 0.0f;
    for (unsigned s = 0; s < 4 * 3; ++s) {
        float v =
            runtime::Ctx::asF32(co_await ctx.load32(simplex + s * 4));
        norm += v * v;
    }
    co_await ctx.compute(24);

    float result = min_proj + 1e-7f * norm;
    co_await ctx.storeF32(_results + pair * 4, result);
    if (ctx.swccManaged(_results))
        co_await ctx.flushRegion(_results + pair * 4, 4);
}

float
GjkKernel::hostPair(std::uint32_t ai, std::uint32_t bi) const
{
    const Object &a = _hObjects[ai];
    const Object &b = _hObjects[bi];
    float d[3] = {-(a.cx - b.cx), -(a.cy - b.cy), -(a.cz - b.cz)};
    float min_proj = 1e30f;
    float simplex[12] = {};

    for (unsigned it = 0; it < kMaxIters; ++it) {
        float best_a[3] = {0, 0, 0};
        float best_dot = -1e30f;
        for (std::uint32_t v = 0; v < a.vertCount; ++v) {
            const float *vv = &_hVerts[(a.vertOffset + v) * 3];
            float dot = vv[0] * d[0] + vv[1] * d[1] + vv[2] * d[2];
            if (dot > best_dot) {
                best_dot = dot;
                best_a[0] = vv[0];
                best_a[1] = vv[1];
                best_a[2] = vv[2];
            }
        }
        float best_b[3] = {0, 0, 0};
        best_dot = -1e30f;
        for (std::uint32_t v = 0; v < b.vertCount; ++v) {
            const float *vv = &_hVerts[(b.vertOffset + v) * 3];
            float dot = -(vv[0] * d[0] + vv[1] * d[1] + vv[2] * d[2]);
            if (dot > best_dot) {
                best_dot = dot;
                best_b[0] = vv[0];
                best_b[1] = vv[1];
                best_b[2] = vv[2];
            }
        }
        float w[3] = {best_a[0] - best_b[0], best_a[1] - best_b[1],
                      best_a[2] - best_b[2]};
        for (unsigned c = 0; c < 3; ++c)
            simplex[(it % 4) * 3 + c] = w[c];
        float dlen = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
        if (dlen < 1e-6f)
            break;
        float proj = (w[0] * d[0] + w[1] * d[1] + w[2] * d[2]) / dlen;
        if (proj < min_proj)
            min_proj = proj;
        if (proj <= 0.0f)
            break;
        d[0] = 0.25f * d[0] - w[0];
        d[1] = 0.25f * d[1] - w[1];
        d[2] = 0.25f * d[2] - w[2];
    }

    float norm = 0.0f;
    for (float v : simplex)
        norm += v * v;
    return min_proj + 1e-7f * norm;
}

sim::CoTask
GjkKernel::worker(runtime::Ctx ctx)
{
    ctx.core().setCodeRegion(runtime::Layout::codeBase + 0x8000, 1536);
    co_await ctx.forEachTask(
        _phase, [this](runtime::Ctx &c, const runtime::TaskDesc &td) {
            return pairTask(c, td);
        });
    co_await ctx.barrier();
}

void
GjkKernel::verify(runtime::CohesionRuntime &rt)
{
    const std::vector<float> results = rt.verifyReadF32(_results, _numPairs);
    for (std::uint32_t p = 0; p < _numPairs; ++p) {
        float want = hostPair(_hPairs[p].first, _hPairs[p].second);
        float got = results[p];
        // !(x <= t) so a NaN from an injected fault fails.
        fatal_if(!(std::fabs(got - want) <=
                   1e-3f + 1e-4f * std::fabs(want)),
                 "gjk mismatch at pair ", p, ": got ", got, " want ",
                 want);
    }
}

std::unique_ptr<Kernel>
makeGjk(const Params &params)
{
    return std::make_unique<GjkKernel>(params);
}

} // namespace kernels
