#include "coherence/backend_msi.hh"

#include <algorithm>
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
using arch::Backoff;
using arch::CoherenceMode;
using arch::Delay;
using arch::Held;
using arch::ProbeResult;
using arch::ProbeType;
using arch::ReqType;
using arch::Request;
using arch::Response;

MsiBackend::MsiBackend(std::string name, arch::L3Bank &bank)
    : _name(std::move(name)), _traits(*backendTraits(_name)), _bank(bank),
      _dir(bank._chip.config().directory, bank._chip.config().numClusters)
{}

sim::CoTask
MsiBackend::read(Request req, sim::lat::Cursor *lat)
{
    const mem::Addr base = mem::lineBase(req.addr);
    const std::uint32_t key = mem::lineNumber(base);
    co_await _bank._locks.acquire(key);
    Held held(_bank._locks, key);

    arch::Chip &chip = _bank._chip;
    sim::EventQueue &eq = chip.eq();
    const CoherenceMode mode = chip.config().mode;
    if (lat)
        lat->mark(sim::lat::Stage::BankLock, eq.now());

    // Directory lookup (one cycle through the directory port).
    sim::Tick dstart = std::max(eq.now(), _dirPortFree);
    _dirPortFree = dstart + 1;
    co_await Delay{eq, dstart + 1};
    if (lat)
        lat->mark(sim::lat::Stage::Dir, eq.now());

    DirEntry *e =
        mode == CoherenceMode::SWccOnly ? nullptr : _dir.find(base);

    Response resp;
    resp.type = req.type;
    resp.core = req.core;
    resp.addr = base;

    Backoff bo;
    while (e && (e->state == cache::CohState::Modified ||
                 e->state == cache::CohState::Exclusive)) {
        if (e->sharers.contains(req.cluster) &&
            e->sharers.count() == 1 && !e->sharers.broadcast()) {
            // The owner itself is filling invalid words of a
            // partially-valid line (post-MakeOwner): serve from
            // the L3 and keep its exclusive state.
            sim::Tick dram = 0;
            auto [line, t] =
                _bank.l3AccessPrep(base, false, eq.now(), &dram);
            resp.grant = e->state;
            resp.data = line->data;
            co_await Delay{eq, t};
            if (lat)
                lat->markAccess(eq.now(), dram);
            _bank.respond(req, resp, mem::wordsPerLine, lat);
            co_return;
        }
        // Downgrade the owner; its dirty data moves to the L3.
        std::vector<unsigned> targets = e->sharers.probeTargets();
        std::vector<std::pair<unsigned, ProbeResult>> results;
        AckGate gate;
        gate.expect(targets.size());
        _bank.sendProbes(targets, ProbeType::Downgrade, base, req.msgId,
                         &results, &gate);
        co_await gate.wait();
        if (lat)
            lat->mark(sim::lat::Stage::Probe, eq.now());
        bool any_found = false;
        for (const auto &[cl, r] : results) {
            any_found |= r.found;
            if (r.dirty)
                co_await _bank.mergeIntoL3(base, r.data, r.dirtyMask);
        }
        if (lat)
            lat->mark(sim::lat::Stage::Service, eq.now());
        if (!any_found) {
            // The owner evicted concurrently; wait for its in-flight
            // WrRel to land (it needs the line lock) and re-evaluate.
            _bank._locks.release(key);
            co_await Delay{eq, eq.now() + bo.next()};
            co_await _bank._locks.acquire(key);
            if (lat)
                lat->mark(sim::lat::Stage::BankLock, eq.now());
            e = _dir.find(base);
            continue;
        }
        e = _dir.find(base);
        panic_if(!e, "directory entry vanished during downgrade");
        e->state = cache::CohState::Shared;
        chip.rec(FR::Ev::DirState, FR::compBank(_bank._id), base, req.msgId,
                 static_cast<std::uint8_t>(e->state), e->sharers.count());
        break;
    }
    if (e) {
        e->sharers.add(req.cluster);
        chip.rec(FR::Ev::DirState, FR::compBank(_bank._id), base, req.msgId,
                 static_cast<std::uint8_t>(e->state), e->sharers.count());
        sim::Tick dram = 0;
        auto [line, t] = _bank.l3AccessPrep(base, false, eq.now(), &dram);
        resp.grant = cache::CohState::Shared;
        resp.data = line->data;
        co_await Delay{eq, t};
        if (lat)
            lat->markAccess(eq.now(), dram);
        _bank.respond(req, resp, mem::wordsPerLine, lat);
        co_return;
    }

    // Directory miss: decide the coherence domain.
    bool swcc = false;
    if (mode == CoherenceMode::SWccOnly) {
        swcc = true;
    } else if (mode == CoherenceMode::Cohesion) {
        co_await _bank.lookupDomain(base, req.msgId, &swcc);
        if (lat)
            lat->mark(sim::lat::Stage::Dir, eq.now());
    }

    if (swcc) {
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

    co_await makeRoom(base, req.msgId, lat);
    DirEntry &ne = _dir.insert(base);
    // MESI extension: a sole reader takes Exclusive and can later
    // upgrade to Modified silently; MSI (the paper) grants Shared.
    ne.state = chip.config().useMesi ? cache::CohState::Exclusive
                                     : cache::CohState::Shared;
    ne.sharers.add(req.cluster);
    chip.rec(FR::Ev::DirInsert, FR::compBank(_bank._id), base, req.msgId,
             static_cast<std::uint8_t>(ne.state), req.cluster);
    sim::Tick dram = 0;
    auto [line, t] = _bank.l3AccessPrep(base, false, eq.now(), &dram);
    resp.grant = ne.state;
    resp.data = line->data;
    co_await Delay{eq, t};
    if (lat)
        lat->markAccess(eq.now(), dram);
    _bank.respond(req, resp, mem::wordsPerLine, lat);
}

sim::CoTask
MsiBackend::write(Request req, sim::lat::Cursor *lat)
{
    const mem::Addr base = mem::lineBase(req.addr);
    const std::uint32_t key = mem::lineNumber(base);
    co_await _bank._locks.acquire(key);
    Held held(_bank._locks, key);

    arch::Chip &chip = _bank._chip;
    sim::EventQueue &eq = chip.eq();
    const CoherenceMode mode = chip.config().mode;
    if (lat)
        lat->mark(sim::lat::Stage::BankLock, eq.now());

    sim::Tick dstart = std::max(eq.now(), _dirPortFree);
    _dirPortFree = dstart + 1;
    co_await Delay{eq, dstart + 1};
    if (lat)
        lat->mark(sim::lat::Stage::Dir, eq.now());

    DirEntry *e =
        mode == CoherenceMode::SWccOnly ? nullptr : _dir.find(base);

    Response resp;
    resp.type = ReqType::Write;
    resp.core = req.core;
    resp.addr = base;

    if (!e) {
        bool swcc = false;
        if (mode == CoherenceMode::SWccOnly) {
            swcc = true;
        } else if (mode == CoherenceMode::Cohesion) {
            co_await _bank.lookupDomain(base, req.msgId, &swcc);
            if (lat)
                lat->mark(sim::lat::Stage::Dir, eq.now());
        }
        if (swcc) {
            // SWcc fill: the cluster allocates with the incoherent bit.
            sim::Tick dram = 0;
            auto [line, t] =
                _bank.l3AccessPrep(base, false, eq.now(), &dram);
            resp.incoherent = true;
            resp.data = line->data;
            co_await Delay{eq, t};
            if (lat)
                lat->markAccess(eq.now(), dram);
            _bank.respond(req, resp, mem::wordsPerLine, lat);
            co_return;
        }
        co_await makeRoom(base, req.msgId, lat);
        DirEntry &ne = _dir.insert(base);
        ne.state = cache::CohState::Modified;
        ne.sharers.add(req.cluster);
        chip.rec(FR::Ev::DirInsert, FR::compBank(_bank._id), base,
                 req.msgId, static_cast<std::uint8_t>(ne.state),
                 req.cluster);
        sim::Tick dram = 0;
        auto [line, t] = _bank.l3AccessPrep(base, false, eq.now(), &dram);
        resp.grant = cache::CohState::Modified;
        resp.data = line->data;
        co_await Delay{eq, t};
        if (lat)
            lat->markAccess(eq.now(), dram);
        _bank.respond(req, resp, mem::wordsPerLine, lat);
        co_return;
    }

    // Invalidate every other holder; collect a dirty owner's data.
    Backoff bo;
    while (e) {
        std::vector<unsigned> targets;
        for (unsigned cl : e->sharers.probeTargets()) {
            if (cl != req.cluster)
                targets.push_back(cl);
        }
        if (targets.empty())
            break;
        bool expect_dirty = e->state == cache::CohState::Modified ||
                            e->state == cache::CohState::Exclusive;
        ProbeType pt = expect_dirty ? ProbeType::WritebackInvalidate
                                    : ProbeType::Invalidate;
        std::vector<std::pair<unsigned, ProbeResult>> results;
        AckGate gate;
        gate.expect(targets.size());
        _bank.sendProbes(targets, pt, base, req.msgId, &results, &gate);
        co_await gate.wait();
        if (lat)
            lat->mark(sim::lat::Stage::Probe, eq.now());
        bool any_found = false;
        for (const auto &[cl, r] : results) {
            any_found |= r.found;
            if (r.dirty)
                co_await _bank.mergeIntoL3(base, r.data, r.dirtyMask);
        }
        if (lat)
            lat->mark(sim::lat::Stage::Service, eq.now());
        if (expect_dirty && !any_found) {
            // Owner evicted concurrently: wait for its WrRel.
            _bank._locks.release(key);
            co_await Delay{eq, eq.now() + bo.next()};
            co_await _bank._locks.acquire(key);
            if (lat)
                lat->mark(sim::lat::Stage::BankLock, eq.now());
            e = _dir.find(base);
            continue;
        }
        e = _dir.find(base);
        panic_if(!e, "directory entry vanished during invalidation");
        break;
    }
    if (!e) {
        // The entry was erased while we waited for an in-flight WrRel.
        // A concurrent HWcc=>SWcc transition may also have changed the
        // line's domain in that window, so the domain decision must be
        // redone — blindly re-inserting would resurrect an HWcc entry
        // for a now-SWcc line.
        bool swcc = false;
        if (mode == CoherenceMode::Cohesion) {
            co_await _bank.lookupDomain(base, req.msgId, &swcc);
            if (lat)
                lat->mark(sim::lat::Stage::Dir, eq.now());
        }
        if (swcc) {
            sim::Tick dram = 0;
            auto [line, t] =
                _bank.l3AccessPrep(base, false, eq.now(), &dram);
            resp.incoherent = true;
            resp.data = line->data;
            co_await Delay{eq, t};
            if (lat)
                lat->markAccess(eq.now(), dram);
            _bank.respond(req, resp, mem::wordsPerLine, lat);
            co_return;
        }
        co_await makeRoom(base, req.msgId, lat);
        e = &_dir.insert(base);
        chip.rec(FR::Ev::DirInsert, FR::compBank(_bank._id), base,
                 req.msgId,
                 static_cast<std::uint8_t>(cache::CohState::Modified),
                 req.cluster);
    }
    e->sharers.clear();
    e->sharers.add(req.cluster);
    e->state = cache::CohState::Modified;
    chip.rec(FR::Ev::DirState, FR::compBank(_bank._id), base, req.msgId,
             static_cast<std::uint8_t>(e->state), e->sharers.count());
    sim::Tick dram = 0;
    auto [line, t] = _bank.l3AccessPrep(base, false, eq.now(), &dram);
    resp.grant = cache::CohState::Modified;
    resp.data = line->data;
    co_await Delay{eq, t};
    if (lat)
        lat->markAccess(eq.now(), dram);
    _bank.respond(req, resp, mem::wordsPerLine, lat);
}

sim::CoTask
MsiBackend::recallForAtomic(mem::Addr base, std::uint32_t txn,
                            std::uint32_t lock_key, sim::lat::Cursor *lat)
{
    arch::Chip &chip = _bank._chip;
    sim::EventQueue &eq = chip.eq();
    sim::Tick dstart = std::max(eq.now(), _dirPortFree);
    _dirPortFree = dstart + 1;
    co_await Delay{eq, dstart + 1};
    if (lat)
        lat->mark(sim::lat::Stage::Dir, eq.now());
    if (_dir.find(base)) {
        // Cached HWcc copies must be recalled so the RMW is
        // globally ordered.
        co_await recallEntryRetry(base, txn, lock_key, lat);
        if (_dir.find(base)) {
            chip.rec(FR::Ev::DirErase, FR::compBank(_bank._id), base, txn);
            _dir.erase(base);
        }
    }
}

sim::CoTask
MsiBackend::flushLine(mem::Addr base, std::uint32_t txn,
                      std::uint32_t lock_key, sim::lat::Cursor *lat)
{
    arch::Chip &chip = _bank._chip;
    // HWcc => SWcc (Fig. 7a): flush any directory state.
    if (_dir.find(base)) {
        chip.rec(FR::Ev::TransStep, FR::compBank(_bank._id), base, txn,
                 static_cast<std::uint8_t>(FR::Step::Recall));
        co_await recallEntryRetry(base, txn, lock_key, lat);
        if (_dir.find(base)) {
            chip.rec(FR::Ev::DirErase, FR::compBank(_bank._id), base, txn);
            _dir.erase(base);
        }
    }
}

sim::CoTask
MsiBackend::adoptLine(mem::Addr base, std::uint32_t txn,
                      const std::vector<unsigned> &clean_sharers,
                      const std::vector<unsigned> &dirty_holders,
                      bool overlap, sim::lat::Cursor *lat)
{
    arch::Chip &chip = _bank._chip;
    const auto step = [&](FR::Step s, std::uint32_t b = 0) {
        chip.rec(FR::Ev::TransStep, FR::compBank(_bank._id), base, txn,
                 static_cast<std::uint8_t>(s), b);
    };

    if (dirty_holders.empty()) {
        // Cases 1b/2b: clean copies (if any) joined HWcc as sharers
        // during the query; allocate the matching entry.
        if (!clean_sharers.empty()) {
            co_await makeRoom(base, txn, lat);
            DirEntry &e = _dir.insert(base);
            e.state = cache::CohState::Shared;
            for (unsigned cl : clean_sharers) {
                e.sharers.add(cl);
                step(FR::Step::CleanSharer, cl);
            }
            chip.rec(FR::Ev::DirInsert, FR::compBank(_bank._id), base, txn,
                     static_cast<std::uint8_t>(e.state),
                     static_cast<std::uint32_t>(clean_sharers.size()));
        }
        co_return;
    }

    if (dirty_holders.size() == 1 && clean_sharers.empty()) {
        // Case 3b: single writer, no readers — upgrade in place, no
        // writeback ("saving bandwidth").
        step(FR::Step::MakeOwner, dirty_holders.front());
        std::vector<std::pair<unsigned, ProbeResult>> r2;
        AckGate g2;
        g2.expect(1);
        _bank.sendProbes({dirty_holders.front()}, ProbeType::MakeOwner,
                         base, txn, &r2, &g2);
        co_await g2.wait();
        if (lat)
            lat->mark(sim::lat::Stage::Probe, chip.eq().now());
        if (r2.front().second.found && r2.front().second.dirty) {
            co_await makeRoom(base, txn, lat);
            DirEntry &e = _dir.insert(base);
            e.state = cache::CohState::Modified;
            e.sharers.add(dirty_holders.front());
            chip.rec(FR::Ev::DirInsert, FR::compBank(_bank._id), base, txn,
                     static_cast<std::uint8_t>(e.state),
                     dirty_holders.front());
        }
        co_return;
    }

    // Cases 4b/5b: invalidate the readers, write back every writer,
    // merge disjoint write sets at the L3. Overlapping write sets are
    // the Fig. 7b case 5b hardware race (last merge wins).
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
MsiBackend::removeSharer(mem::Addr base, unsigned cluster,
                         std::uint32_t txn)
{
    if (DirEntry *e = _dir.find(base)) {
        e->sharers.remove(cluster);
        if (e->sharers.empty()) {
            _bank._chip.rec(FR::Ev::DirErase, FR::compBank(_bank._id),
                            base, txn);
            _dir.erase(base);
        }
    }
}

void
MsiBackend::writeRelease(const Request &req)
{
    removeSharer(mem::lineBase(req.addr), req.cluster, req.msgId);
}

void
MsiBackend::readRelease(const Request &req)
{
    removeSharer(mem::lineBase(req.addr), req.cluster, req.msgId);
}

sim::CoTask
MsiBackend::recallEntry(mem::Addr base, std::uint32_t txn,
                        bool *incomplete, sim::lat::Cursor *lat)
{
    *incomplete = false;
    DirEntry *e = _dir.find(base);
    if (!e || e->sharers.empty())
        co_return;

    bool modified = e->state == cache::CohState::Modified ||
                    e->state == cache::CohState::Exclusive;
    std::vector<unsigned> targets = e->sharers.probeTargets();
    ProbeType pt = modified ? ProbeType::WritebackInvalidate
                            : ProbeType::Invalidate;
    std::vector<std::pair<unsigned, ProbeResult>> results;
    AckGate gate;
    gate.expect(targets.size());
    _bank.sendProbes(targets, pt, base, txn, &results, &gate);
    co_await gate.wait();
    if (lat)
        lat->mark(sim::lat::Stage::Probe, _bank._chip.eq().now());

    bool any_found = false;
    for (const auto &[cl, r] : results) {
        any_found |= r.found;
        if (r.dirty)
            co_await _bank.mergeIntoL3(base, r.data, r.dirtyMask);
    }
    if (lat)
        lat->mark(sim::lat::Stage::Service, _bank._chip.eq().now());
    if (modified && !any_found) {
        // The owner evicted concurrently: its WrRel carries the dirty
        // data and is in flight to this bank. The caller must let it
        // acquire the line and merge before retrying.
        *incomplete = true;
    }
}

sim::CoTask
MsiBackend::recallEntryRetry(mem::Addr base, std::uint32_t txn,
                             std::uint32_t lock_key,
                             sim::lat::Cursor *lat)
{
    Backoff bo;
    while (true) {
        bool incomplete = false;
        co_await recallEntry(base, txn, &incomplete, lat);
        if (!incomplete)
            co_return;
        _bank._locks.release(lock_key);
        co_await Delay{_bank._chip.eq(),
                       _bank._chip.eq().now() + bo.next()};
        co_await _bank._locks.acquire(lock_key);
        if (lat)
            lat->mark(sim::lat::Stage::BankLock, _bank._chip.eq().now());
    }
}

sim::CoTask
MsiBackend::makeRoom(mem::Addr base, std::uint32_t txn,
                     sim::lat::Cursor *lat)
{
    base = mem::lineBase(base);
    Backoff bo;
    while (_dir.needsVictim(base)) {
        DirEntry *v = _dir.victimExcluding(base, [this](mem::Addr a) {
            return _bank._locks.busy(mem::lineNumber(a));
        });
        if (!v) {
            // Every candidate is mid-transaction; retry with backoff.
            co_await Delay{_bank._chip.eq(),
                           _bank._chip.eq().now() + bo.next()};
            if (lat)
                lat->mark(sim::lat::Stage::BankLock,
                          _bank._chip.eq().now());
            continue;
        }
        mem::Addr vbase = v->base;
        co_await _bank._locks.acquire(mem::lineNumber(vbase));
        Held held(_bank._locks, mem::lineNumber(vbase));
        if (lat)
            lat->mark(sim::lat::Stage::BankLock, _bank._chip.eq().now());
        // Entries evicted from the directory have all sharers
        // invalidated (Section 3.2).
        co_await recallEntryRetry(vbase, txn, mem::lineNumber(vbase), lat);
        if (_dir.find(vbase)) {
            _bank._chip.rec(FR::Ev::DirErase, FR::compBank(_bank._id),
                            vbase, txn);
            _dir.erase(vbase);
        }
        _bank._dirEvictions.inc();
    }
}

void
MsiBackend::snapshot(sim::Archive &ar)
{
    ar.tag("backend:" + _name);
    ar(_dir);
    ar(_dirPortFree);
}

} // namespace coherence
