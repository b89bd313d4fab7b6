#include "coherence/backend_dls.hh"

#include <utility>
#include <vector>

#include "arch/chip.hh"
#include "arch/l3bank.hh"
#include "sim/logging.hh"

namespace coherence {

namespace {

using FR = sim::FlightRecorder;

} // namespace

using arch::AckGate;
using arch::CoherenceMode;
using arch::Delay;
using arch::Held;
using arch::ProbeResult;
using arch::ProbeType;
using arch::ReqType;
using arch::Request;
using arch::Response;

DlsBackend::DlsBackend(arch::L3Bank &bank)
    : _name("dls"), _traits(*backendTraits(_name)), _bank(bank)
{}

sim::CoTask
DlsBackend::domainOf(mem::Addr base, std::uint32_t txn, bool *out_swcc)
{
    const CoherenceMode mode = _bank._chip.config().mode;
    *out_swcc = false;
    if (mode == CoherenceMode::SWccOnly)
        *out_swcc = true;
    else if (mode == CoherenceMode::Cohesion)
        co_await _bank.lookupDomain(base, txn, out_swcc);
}

sim::CoTask
DlsBackend::invalidateAll(mem::Addr base, std::uint32_t txn,
                          unsigned exclude, sim::lat::Cursor *lat)
{
    std::vector<unsigned> targets;
    for (unsigned cl = 0; cl < _bank._chip.numClusters(); ++cl) {
        if (cl != exclude)
            targets.push_back(cl);
    }
    std::vector<std::pair<unsigned, ProbeResult>> results;
    AckGate gate;
    gate.expect(targets.size());
    _bank.sendProbes(targets, ProbeType::Invalidate, base, txn, &results,
                     &gate);
    co_await gate.wait();
    if (lat)
        lat->mark(sim::lat::Stage::Probe, _bank._chip.eq().now());
    // HWcc copies are always clean under write-through, but an SWcc
    // straggler hit by the collateral broadcast (atomic recall or a
    // 7a flush) can return dirty words; merge them so nothing is lost.
    for (const auto &[cl, r] : results) {
        if (r.dirty)
            co_await _bank.mergeIntoL3(base, r.data, r.dirtyMask);
    }
    if (lat)
        lat->mark(sim::lat::Stage::Service, _bank._chip.eq().now());
}

sim::CoTask
DlsBackend::read(Request req, sim::lat::Cursor *lat)
{
    const mem::Addr base = mem::lineBase(req.addr);
    const std::uint32_t key = mem::lineNumber(base);
    co_await _bank._locks.acquire(key);
    Held held(_bank._locks, key);

    sim::EventQueue &eq = _bank._chip.eq();
    if (lat)
        lat->mark(sim::lat::Stage::BankLock, eq.now());

    Response resp;
    resp.type = req.type;
    resp.core = req.core;
    resp.addr = base;

    bool swcc = false;
    co_await domainOf(base, req.msgId, &swcc);
    if (lat)
        lat->mark(sim::lat::Stage::Dir, eq.now());

    // No directory port, no sharer lookup: the L3 itself is the
    // ordering point and every HWcc read is granted Shared.
    sim::Tick dram = 0;
    auto [line, t] = _bank.l3AccessPrep(base, false, eq.now(), &dram);
    if (swcc)
        resp.incoherent = true;
    else
        resp.grant = cache::CohState::Shared;
    resp.data = line->data;
    co_await Delay{eq, t};
    if (lat)
        lat->markAccess(eq.now(), dram);
    _bank.respond(req, resp, mem::wordsPerLine, lat);
}

sim::CoTask
DlsBackend::write(Request req, sim::lat::Cursor *lat)
{
    const mem::Addr base = mem::lineBase(req.addr);
    const std::uint32_t key = mem::lineNumber(base);
    co_await _bank._locks.acquire(key);
    Held held(_bank._locks, key);

    sim::EventQueue &eq = _bank._chip.eq();
    if (lat)
        lat->mark(sim::lat::Stage::BankLock, eq.now());

    Response resp;
    resp.type = ReqType::Write;
    resp.core = req.core;
    resp.addr = base;

    bool swcc = false;
    co_await domainOf(base, req.msgId, &swcc);
    if (lat)
        lat->mark(sim::lat::Stage::Dir, eq.now());

    if (swcc) {
        // SWcc fill: the cluster allocates with the incoherent bit.
        sim::Tick dram = 0;
        auto [line, t] = _bank.l3AccessPrep(base, false, eq.now(), &dram);
        resp.incoherent = true;
        resp.data = line->data;
        co_await Delay{eq, t};
        if (lat)
            lat->markAccess(eq.now(), dram);
        _bank.respond(req, resp, mem::wordsPerLine, lat);
        co_return;
    }

    // Write-through-invalidate: every other cluster's copy dies
    // before the store is globally ordered, then the store data lands
    // in the L3 and the ack re-grants a clean Shared line. The
    // bank->cluster FIFO (Chip::orderB2C) guarantees a stale copy's
    // invalidation cannot arrive after the refreshed fill.
    co_await invalidateAll(base, req.msgId, req.cluster, lat);

    sim::Tick dram = 0;
    auto [line, t] = _bank.l3AccessPrep(base, true, eq.now(), &dram);
    if (req.mask)
        line->merge(req.data.data(), req.mask);
    resp.grant = cache::CohState::Shared;
    resp.data = line->data;
    co_await Delay{eq, t};
    if (lat)
        lat->markAccess(eq.now(), dram);
    _bank.respond(req, resp, mem::wordsPerLine, lat);
}

sim::CoTask
DlsBackend::recallForAtomic(mem::Addr base, std::uint32_t txn,
                            std::uint32_t lock_key, sim::lat::Cursor *lat)
{
    (void)lock_key;
    // Without sharer metadata the only way to order an RMW against
    // cached copies is a broadcast invalidation of the line's domain
    // peers. SWcc lines need none (the atomic unit is their ordering
    // point already).
    bool swcc = false;
    co_await domainOf(base, txn, &swcc);
    if (lat)
        lat->mark(sim::lat::Stage::Dir, _bank._chip.eq().now());
    if (!swcc)
        co_await invalidateAll(base, txn, kNoExclude, lat);
}

sim::CoTask
DlsBackend::flushLine(mem::Addr base, std::uint32_t txn,
                      std::uint32_t lock_key, sim::lat::Cursor *lat)
{
    (void)lock_key;
    // HWcc => SWcc (Fig. 7a): no directory state to drop, but cached
    // copies must still be flushed so the line re-enters SWcc with the
    // L3 holding the authoritative data.
    _bank._chip.rec(FR::Ev::TransStep, FR::compBank(_bank._id), base, txn,
                    static_cast<std::uint8_t>(FR::Step::Recall));
    co_await invalidateAll(base, txn, kNoExclude, lat);
}

sim::CoTask
DlsBackend::adoptLine(mem::Addr base, std::uint32_t txn,
                      const std::vector<unsigned> &clean_sharers,
                      const std::vector<unsigned> &dirty_holders,
                      bool overlap, sim::lat::Cursor *lat)
{
    arch::Chip &chip = _bank._chip;
    const auto step = [&](FR::Step s, std::uint32_t b = 0) {
        chip.rec(FR::Ev::TransStep, FR::compBank(_bank._id), base, txn,
                 static_cast<std::uint8_t>(s), b);
    };

    // Cases 1b/2b: clean copies were already converted to (untracked)
    // Shared by the CleanQuery itself; with no writers there is
    // nothing to merge and nothing to allocate.
    if (dirty_holders.empty())
        co_return;

    // Any writer set (cases 3b/4b/5b): write-through has no owner
    // state to upgrade into, so every writer is written back and
    // every clean copy invalidated (it would be stale after the
    // merge). Overlapping write sets are still the case-5b race.
    if (overlap) {
        _bank._mergeConflicts.inc();
        step(FR::Step::Conflict,
             static_cast<std::uint32_t>(dirty_holders.size()));
    }
    for (unsigned cl : clean_sharers)
        step(FR::Step::Invalidate, cl);
    for (unsigned cl : dirty_holders)
        step(FR::Step::WritebackInv, cl);
    std::vector<std::pair<unsigned, ProbeResult>> r2;
    AckGate g2;
    g2.expect(clean_sharers.size() + dirty_holders.size());
    _bank.sendProbes(clean_sharers, ProbeType::Invalidate, base, txn, &r2,
                     &g2);
    _bank.sendProbes(dirty_holders, ProbeType::WritebackInvalidate, base,
                     txn, &r2, &g2);
    co_await g2.wait();
    if (lat)
        lat->mark(sim::lat::Stage::Probe, chip.eq().now());
    for (const auto &[cl, r] : r2) {
        if (r.dirty) {
            step(FR::Step::Merge, cl);
            co_await _bank.mergeIntoL3(base, r.data, r.dirtyMask);
        }
    }
    if (lat)
        lat->mark(sim::lat::Stage::Service, chip.eq().now());
}

void
DlsBackend::snapshot(sim::Archive &ar)
{
    // Directoryless: the section tag is the whole payload. It still
    // guards against restoring a snapshot into a different backend.
    ar.tag("backend:dls");
}

} // namespace coherence
