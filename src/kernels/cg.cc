#include "kernels/cg.hh"

#include <cmath>

#include "sim/logging.hh"

namespace kernels {

CgKernel::CgKernel(const Params &params) : Kernel(params)
{
    _grid = 20 * params.scale;
    _n = _grid * _grid;
    _iters = 4;
    _rng = sim::Rng(params.seed ^ 0xC6);
}

void
CgKernel::setup(runtime::CohesionRuntime &rt)
{
    // 2D 5-point Laplacian in CSR form.
    _hRowPtr.assign(_n + 1, 0);
    _hColIdx.clear();
    _hVals.clear();
    for (std::uint32_t row = 0; row < _n; ++row) {
        std::uint32_t gy = row / _grid, gx = row % _grid;
        auto push = [&](std::uint32_t col, float v) {
            _hColIdx.push_back(col);
            _hVals.push_back(v);
        };
        if (gy > 0)
            push(row - _grid, -1.0f);
        if (gx > 0)
            push(row - 1, -1.0f);
        push(row, 4.2f); // slightly diagonally dominant
        if (gx + 1 < _grid)
            push(row + 1, -1.0f);
        if (gy + 1 < _grid)
            push(row + _grid, -1.0f);
        _hRowPtr[row + 1] = _hColIdx.size();
    }
    _nnz = _hColIdx.size();

    _hB.resize(_n);
    for (std::uint32_t i = 0; i < _n; ++i)
        _hB[i] = static_cast<float>(_rng.range(-1.0, 1.0));

    _rowPtr = rt.cohMalloc((_n + 1) * 4);
    _colIdx = rt.cohMalloc(_nnz * 4);
    _vals = rt.cohMalloc(_nnz * 4);
    // The CSR matrix is immutable: incoherent heap (SWcc under
    // Cohesion). The solver vectors see gather-style, fine-grained
    // sharing (p is read by every row task), so the Cohesion variant
    // keeps them hardware-coherent (conventional heap) — the paper's
    // conservative annotation strategy.
    _x = rt.malloc(_n * 4);
    _r = rt.malloc(_n * 4);
    _p = rt.malloc(_n * 4);
    _q = rt.malloc(_n * 4);
    _scalars = rt.malloc(_iters * mem::lineBytes);
    _rr0 = rt.malloc(mem::lineBytes);

    for (std::uint32_t i = 0; i <= _n; ++i)
        rt.poke<std::uint32_t>(_rowPtr + i * 4, _hRowPtr[i]);
    for (std::uint32_t i = 0; i < _nnz; ++i) {
        rt.poke<std::uint32_t>(_colIdx + i * 4, _hColIdx[i]);
        rt.poke<float>(_vals + i * 4, _hVals[i]);
    }
    for (std::uint32_t i = 0; i < _n; ++i) {
        rt.poke<float>(_x + i * 4, 0.0f);
        rt.poke<float>(_r + i * 4, _hB[i]); // r0 = b (x0 = 0)
        rt.poke<float>(_p + i * 4, _hB[i]); // p0 = r0
        rt.poke<float>(_q + i * 4, 0.0f);
    }
    for (unsigned it = 0; it < _iters; ++it) {
        rt.poke<float>(pqAddr(it), 0.0f);
        rt.poke<float>(rnewAddr(it), 0.0f);
    }
    rt.poke<float>(_rr0, 0.0f);

    unsigned cores = rt.chip().totalCores();
    std::uint32_t chunk = std::max<std::uint32_t>(4, _n / (2 * cores));
    auto tasks = chunkTasks(_n, chunk);
    _phaseInit = addPhase(rt, tasks);
    for (unsigned it = 0; it < _iters; ++it) {
        _phaseMatvec.push_back(addPhase(rt, tasks));
        _phaseXr.push_back(addPhase(rt, tasks));
        _phaseP.push_back(addPhase(rt, tasks));
    }
}

sim::CoTask
CgKernel::initTask(runtime::Ctx &ctx, runtime::TaskDesc td)
{
    // Partial r.r for the initial residual (r = b).
    float acc = 0.0f;
    for (std::uint32_t i = td.arg0; i < td.arg0 + td.arg1; ++i) {
        float rv =
            runtime::Ctx::asF32(co_await ctx.load32(_r + i * 4));
        acc += rv * rv;
    }
    co_await ctx.compute(2 * td.arg1);
    co_await ctx.atomicAddF32(_rr0, acc);
}

sim::CoTask
CgKernel::matvecTask(runtime::Ctx &ctx, runtime::TaskDesc td,
                     unsigned iter)
{
    const std::uint32_t first = td.arg0, count = td.arg1;

    // p was produced by other clusters in the previous phase; q rows
    // cached from the previous iteration are stale.
    if (ctx.swccManaged(_p)) {
        co_await ctx.invRegion(_p, _n * 4); // gather access: whole p
        co_await ctx.invRegion(_q + first * 4, count * 4);
    }

    float acc = 0.0f;
    for (std::uint32_t row = first; row < first + count; ++row) {
        std::uint32_t lo = co_await ctx.load32(_rowPtr + row * 4);
        std::uint32_t hi = co_await ctx.load32(_rowPtr + (row + 1) * 4);
        float sum = 0.0f;
        for (std::uint32_t e = lo; e < hi; ++e) {
            std::uint32_t col = co_await ctx.load32(_colIdx + e * 4);
            float v =
                runtime::Ctx::asF32(co_await ctx.load32(_vals + e * 4));
            float pv =
                runtime::Ctx::asF32(co_await ctx.load32(_p + col * 4));
            sum += v * pv;
        }
        co_await ctx.compute(2 * (hi - lo) + 4);
        co_await ctx.storeF32(_q + row * 4, sum);
        float pr =
            runtime::Ctx::asF32(co_await ctx.load32(_p + row * 4));
        acc += pr * sum;
    }

    co_await ctx.atomicAddF32(pqAddr(iter), acc);
    if (ctx.swccManaged(_q))
        co_await ctx.flushRegion(_q + first * 4, count * 4);
}

sim::CoTask
CgKernel::xrTask(runtime::Ctx &ctx, runtime::TaskDesc td, unsigned iter)
{
    const std::uint32_t first = td.arg0, count = td.arg1;

    // Scalars were atomically accumulated; q rows for this chunk may
    // have been produced elsewhere.
    if (ctx.swccManaged(_scalars)) {
        co_await ctx.invRegion(pqAddr(iter), 8);
        co_await ctx.invRegion(rrAddr(iter), 4);
    }
    float rr = runtime::Ctx::asF32(co_await ctx.load32(rrAddr(iter)));
    float pq = runtime::Ctx::asF32(co_await ctx.load32(pqAddr(iter)));
    float alpha = rr / pq;

    if (ctx.swccManaged(_q)) {
        co_await ctx.invRegion(_q + first * 4, count * 4);
        co_await ctx.invRegion(_x + first * 4, count * 4);
        co_await ctx.invRegion(_r + first * 4, count * 4);
    }

    float acc = 0.0f;
    for (std::uint32_t i = first; i < first + count; ++i) {
        float xv = runtime::Ctx::asF32(co_await ctx.load32(_x + i * 4));
        float rv = runtime::Ctx::asF32(co_await ctx.load32(_r + i * 4));
        float pv = runtime::Ctx::asF32(co_await ctx.load32(_p + i * 4));
        float qv = runtime::Ctx::asF32(co_await ctx.load32(_q + i * 4));
        co_await ctx.compute(6);
        xv += alpha * pv;
        rv -= alpha * qv;
        co_await ctx.storeF32(_x + i * 4, xv);
        co_await ctx.storeF32(_r + i * 4, rv);
        acc += rv * rv;
    }

    co_await ctx.atomicAddF32(rnewAddr(iter), acc);
    if (ctx.swccManaged(_x)) {
        co_await ctx.flushRegion(_x + first * 4, count * 4);
        co_await ctx.flushRegion(_r + first * 4, count * 4);
    }
}

sim::CoTask
CgKernel::pTask(runtime::Ctx &ctx, runtime::TaskDesc td, unsigned iter)
{
    const std::uint32_t first = td.arg0, count = td.arg1;

    if (ctx.swccManaged(_scalars)) {
        co_await ctx.invRegion(rnewAddr(iter), 4);
        co_await ctx.invRegion(rrAddr(iter), 4);
    }
    float rnew =
        runtime::Ctx::asF32(co_await ctx.load32(rnewAddr(iter)));
    float rr = runtime::Ctx::asF32(co_await ctx.load32(rrAddr(iter)));
    float beta = rnew / rr;

    if (ctx.swccManaged(_r)) {
        co_await ctx.invRegion(_r + first * 4, count * 4);
        co_await ctx.invRegion(_p + first * 4, count * 4);
    }

    for (std::uint32_t i = first; i < first + count; ++i) {
        float rv = runtime::Ctx::asF32(co_await ctx.load32(_r + i * 4));
        float pv = runtime::Ctx::asF32(co_await ctx.load32(_p + i * 4));
        co_await ctx.compute(3);
        co_await ctx.storeF32(_p + i * 4, rv + beta * pv);
    }

    if (ctx.swccManaged(_p))
        co_await ctx.flushRegion(_p + first * 4, count * 4);
}

sim::CoTask
CgKernel::worker(runtime::Ctx ctx)
{
    ctx.core().setCodeRegion(runtime::Layout::codeBase + 0x7000, 1280);

    co_await ctx.forEachTask(
        _phaseInit, [this](runtime::Ctx &c, const runtime::TaskDesc &td) {
            return initTask(c, td);
        });
    co_await ctx.barrier();

    for (unsigned it = 0; it < _iters; ++it) {
        co_await ctx.forEachTask(
            _phaseMatvec[it],
            [this, it](runtime::Ctx &c, const runtime::TaskDesc &td) {
                return matvecTask(c, td, it);
            });
        co_await ctx.barrier();
        co_await ctx.forEachTask(
            _phaseXr[it],
            [this, it](runtime::Ctx &c, const runtime::TaskDesc &td) {
                return xrTask(c, td, it);
            });
        co_await ctx.barrier();
        co_await ctx.forEachTask(
            _phaseP[it],
            [this, it](runtime::Ctx &c, const runtime::TaskDesc &td) {
                return pTask(c, td, it);
            });
        co_await ctx.barrier();
    }
}

void
CgKernel::verify(runtime::CohesionRuntime &rt)
{
    // Host reference CG (double accumulators for the reductions).
    std::vector<float> x(_n, 0.0f), r = _hB, p = _hB, q(_n, 0.0f);
    double rr = 0;
    for (std::uint32_t i = 0; i < _n; ++i)
        rr += double(r[i]) * r[i];
    const double rr_initial = rr;

    for (unsigned it = 0; it < _iters; ++it) {
        double pq = 0;
        for (std::uint32_t row = 0; row < _n; ++row) {
            float sum = 0.0f;
            for (std::uint32_t e = _hRowPtr[row]; e < _hRowPtr[row + 1];
                 ++e) {
                sum += _hVals[e] * p[_hColIdx[e]];
            }
            q[row] = sum;
            pq += double(p[row]) * sum;
        }
        float alpha = static_cast<float>(rr / pq);
        double rnew = 0;
        for (std::uint32_t i = 0; i < _n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
            rnew += double(r[i]) * r[i];
        }
        float beta = static_cast<float>(rnew / rr);
        for (std::uint32_t i = 0; i < _n; ++i)
            p[i] = r[i] + beta * p[i];
        rr = rnew;
    }

    // CG converges: the reference residual must have dropped.
    fatal_if(rr > 0.9 * rr_initial, "cg reference did not converge");

    // The simulated run's reductions are atomic float adds whose
    // order differs run to run, and CG amplifies last-bit alpha/beta
    // differences across iterations. Verify the algorithmic property:
    // the simulated x must satisfy the same residual reduction the
    // reference achieved (within slack), plus a loose direct match.
    const std::vector<float> got = rt.verifyReadF32(_x, _n);
    const std::vector<double> xs(got.begin(), got.end());
    double rr_sim = 0;
    for (std::uint32_t row = 0; row < _n; ++row) {
        double ax = 0;
        for (std::uint32_t e = _hRowPtr[row]; e < _hRowPtr[row + 1]; ++e)
            ax += double(_hVals[e]) * xs[_hColIdx[e]];
        double res = double(_hB[row]) - ax;
        rr_sim += res * res;
    }
    // !(x <= t) instead of (x > t): a NaN in the simulated solution
    // (e.g. from an injected bit flip) must fail, not slip past.
    fatal_if(!(rr_sim <= 4.0 * rr + 1e-6),
             "cg simulated residual too high: ", rr_sim,
             " vs reference ", rr);

    double err = 0, norm = 0;
    for (std::uint32_t i = 0; i < _n; ++i) {
        err += std::fabs(xs[i] - x[i]);
        norm += std::fabs(x[i]);
    }
    fatal_if(!(err <= 0.10 * norm + 1e-3),
             "cg solution mismatch: |err|=", err, " |x|=", norm);
}

std::unique_ptr<Kernel>
makeCg(const Params &params)
{
    return std::make_unique<CgKernel>(params);
}

} // namespace kernels
