#include "arch/cluster.hh"

#include <algorithm>
#include <bit>

#include "arch/chip.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"

namespace arch {

namespace {

using FR = sim::FlightRecorder;

unsigned
maskWords(mem::WordMask m)
{
    return std::popcount(static_cast<unsigned>(m));
}

} // namespace

Cluster::Cluster(Chip &chip, unsigned id)
    : _chip(chip), _id(id),
      _l2(sim::cat("cluster", id, ".l2"), chip.config().l2Bytes,
          chip.config().l2Assoc),
      _l2PortFree(chip.config().l2Ports, 0)
{
    const MachineConfig &cfg = chip.config();
    for (unsigned c = 0; c < cfg.coresPerCluster; ++c) {
        _cores.push_back(std::make_unique<Core>(
            *this, id * cfg.coresPerCluster + c, c, cfg.l1iBytes,
            cfg.l1iAssoc, cfg.l1dBytes, cfg.l1dAssoc));
    }
}

sim::Tick
Cluster::l2Access(sim::Tick when)
{
    // Pick the earliest-free port; each access occupies it one cycle.
    unsigned best = 0;
    for (unsigned p = 1; p < _l2PortFree.size(); ++p) {
        if (_l2PortFree[p] < _l2PortFree[best])
            best = p;
    }
    sim::Tick start = std::max(when, _l2PortFree[best]);
    _l2PortFree[best] = start + 1;
    return start + _chip.config().l2Latency;
}

/** Complete an op at the core's local time, parking the coroutine on
 *  the event queue if the core has run too far ahead of global time
 *  (conservative-quantum slack bound). */
static MemOp
finish(Chip &chip, Core &core, std::uint64_t value)
{
    sim::EventQueue &eq = chip.eq();
    if (core.localTime() > eq.now() + chip.config().slackWindow) {
        eq.schedule(core.localTime(), [&core, value]() {
            // Resuming the kernel coroutine runs core-side execution
            // until its next memory op: the ClusterCore host phase.
            sim::HostProfiler::Scope hp(
                sim::HostProfiler::Phase::ClusterCore);
            core.completeOp(value);
        });
        return MemOp::pending(core);
    }
    return MemOp::ready(value);
}

std::uint32_t
Cluster::readWord(const cache::Line &line, mem::Addr addr,
                  unsigned bytes) const
{
    std::uint32_t v = 0;
    line.read(addr, &v, bytes);
    return v;
}

void
Cluster::applyStore(cache::Line &line, mem::Addr addr, std::uint32_t value,
                    unsigned bytes)
{
    line.write(addr, &value, bytes);
}

void
Cluster::fillL1(Core &core, const cache::Line &l2_line)
{
    // The L1D only caches fully-valid lines; partial SWcc lines are
    // served from the L2.
    if (l2_line.validMask != mem::fullMask)
        return;
    cache::CacheArray &l1 = core.l1d();
    cache::Line &v = l1.victim(l2_line.base);
    if (v.valid)
        v.reset(); // L1 is write-through: drops are always silent.
    l1.claim(v, l2_line.base);
    v.data = l2_line.data;
    v.validMask = mem::fullMask;
    v.dirtyMask = 0;
    v.incoherent = l2_line.incoherent;
    v.hwState = l2_line.hwState;
}

void
Cluster::backInvalidateL1(mem::Addr base, bool also_l1i)
{
    for (auto &core : _cores) {
        if (cache::Line *l = core->l1d().probe(base))
            l->reset();
        if (also_l1i) {
            if (cache::Line *l = core->l1i().probe(base))
                l->reset();
        }
    }
}

cache::Line &
Cluster::selectVictim(mem::Addr base)
{
    cache::Line *set = _l2.setFor(base);
    cache::Line *best = nullptr;
    for (unsigned w = 0; w < _l2.assoc(); ++w) {
        cache::Line &line = set[w];
        if (!line.valid)
            return line;
        if (_mshrs.contains(line.base))
            continue; // fill or upgrade in flight; not safe to evict
        if (!best || line.lruStamp < best->lruStamp)
            best = &line;
    }
    if (!best) {
        // Pathological: every way has a transaction in flight. Fall
        // back to plain LRU; the install path tolerates a missing line.
        warn("cluster ", _id, ": all ways busy in set of 0x", std::hex,
             base);
        best = &_l2.victim(base);
    }
    return *best;
}

void
Cluster::evictLine(cache::Line &line, sim::Tick when)
{
    panic_if(!line.valid, "evicting an invalid line");
    (line.dirty() ? _evictDirty : _evictClean).inc();
    _chip.rec(FR::Ev::Evict, FR::compCluster(_id), line.base, 0,
              line.dirty() ? FR::evictDirty : 0,
              line.incoherent ? FR::respIncoherent : 0);
    if (line.incoherent) {
        if (line.dirty()) {
            Request r;
            r.type = ReqType::Eviction;
            r.cluster = _id;
            r.addr = line.base;
            r.mask = line.dirtyMask;
            r.data = line.data;
            std::uint32_t id = sendRequest(r, MsgClass::CacheEviction, when,
                                           maskWords(r.mask));
            _pendingWb.insert(id);
            _chip.rec(FR::Ev::Writeback, FR::compCluster(_id), line.base,
                      id, r.mask);
        }
        // Clean SWcc evictions are silent: no message at all.
    } else if (line.hwState == cache::CohState::Modified) {
        Request r;
        r.type = ReqType::WriteRelease;
        r.cluster = _id;
        r.addr = line.base;
        r.mask = line.dirtyMask ? line.dirtyMask : mem::fullMask;
        r.data = line.data;
        std::uint32_t id =
            sendRequest(r, MsgClass::CacheEviction, when, maskWords(r.mask));
        _chip.rec(FR::Ev::Writeback, FR::compCluster(_id), line.base, id,
                  r.mask);
    } else if (line.hwState == cache::CohState::Shared ||
               line.hwState == cache::CohState::Exclusive) {
        if (!_chip.writeThroughBackend()) {
            // No silent evictions under HWcc: notify the directory (a
            // clean Exclusive line releases like a Shared one).
            Request r;
            r.type = ReqType::ReadRelease;
            r.cluster = _id;
            r.addr = line.base;
            sendRequest(r, MsgClass::ReadRelease, when, 0);
        }
        // Directoryless backend: nothing tracks this copy, so a clean
        // Shared line drops silently like an SWcc one.
    }
    backInvalidateL1(line.base, true);
    line.reset();
}

std::uint32_t
Cluster::sendRequest(const Request &req, MsgClass cls, sim::Tick depart,
                     unsigned data_words)
{
    _msgs.count(cls);
    Request stamped = req;
    stamped.msgId = ++_msgSeq;
    // Authoritative departure stamp: the fabric layer never re-stamps
    // it, so retransmit backoff shows up in the latency histograms.
    stamped.sendTick = depart;
    // Accounting anchor, same fill-if-zero convention: requests with
    // no explicit operation start (ifetch, evictions) get a zero-width
    // Issue stage.
    if (stamped.opStart == 0)
        stamped.opStart = depart;
    _chip.rec(FR::Ev::MsgSend, FR::compCluster(_id),
              mem::lineBase(stamped.addr), stamped.msgId,
              static_cast<std::uint8_t>(stamped.type),
              static_cast<std::uint32_t>(cls));
    // Fabric scheduling (and the fault sites riding on it) lives in
    // the chip so requests, responses, and probes share one model.
    _chip.deliverRequest(_id, stamped, data_words, depart);
    return stamped.msgId;
}

void
Cluster::registerStats(sim::StatRegistry &reg,
                       const std::string &prefix) const
{
    reg.addCounter(prefix + ".l2.hits", _l2Hits);
    reg.addCounter(prefix + ".l2.misses", _l2Misses);
    reg.addCounter(prefix + ".l2.evict.clean", _evictClean);
    reg.addCounter(prefix + ".l2.evict.dirty", _evictDirty);
    reg.addCounter(prefix + ".flush.issued", _flushIssued);
    reg.addCounter(prefix + ".flush.useful", _flushUseful);
    reg.addCounter(prefix + ".inv.issued", _invIssued);
    reg.addCounter(prefix + ".inv.useful", _invUseful);
    for (unsigned c = 0; c < numMsgClasses; ++c) {
        MsgClass cls = static_cast<MsgClass>(c);
        reg.addScalar(prefix + ".out." + msgClassName(cls),
                      [this, cls]() {
                          return static_cast<double>(_msgs.get(cls));
                      });
    }
}

// --------------------------------------------------------------------
// Instruction fetch
// --------------------------------------------------------------------

void
Cluster::fetchLine(Core &core, mem::Addr addr)
{
    mem::Addr base = mem::lineBase(addr);
    if (cache::Line *l1 = core.l1i().probe(base)) {
        core.l1i().touch(*l1);
        // Pipelined fetch: an L1I hit adds no stall.
        core._ifetchHitRun += mem::lineBytes;
        if (core._ifetchHitRun >= core._codeBytes)
            core._ifetchWarm = true;
        return;
    }
    core._ifetchHitRun = 0;

    sim::Tick t = l2Access(core.localTime());
    cache::Line *l2line = _l2.probe(base);
    if (l2line) {
        _l2.touch(*l2line);
        _l2Hits.inc();
        core.setLocalTime(t);
    } else {
        _l2Misses.inc();
        // Fire-and-forget instruction request; nothing consumes the
        // bytes, so the core only pays the latency.
        if (!_mshrs.contains(base)) {
            MshrEntry &m = _mshrs.open(base, ReqType::Instr);
            Request r;
            r.type = ReqType::Instr;
            r.cluster = _id;
            r.core = core.localId();
            r.addr = base;
            m.expectId = sendRequest(r, MsgClass::InstructionRequest, t, 0);
        }
        const MachineConfig &cfg = _chip.config();
        core.setLocalTime(t + 2 * cfg.netLatency + cfg.l3Latency);
    }

    // Install into the L1I (contents are immaterial to execution).
    cache::Line &v = core.l1i().victim(base);
    if (v.valid)
        v.reset();
    core.l1i().claim(v, base);
    v.validMask = mem::fullMask;
    v.incoherent = true;
}

void
Cluster::ifetch(Core &core, std::uint64_t instrs)
{
    if (core._ifetchWarm)
        return;
    std::uint64_t bytes = instrs * 4;
    while (bytes > 0 && !core._ifetchWarm) {
        std::uint32_t line_off = core._fetchOffset & (mem::lineBytes - 1);
        std::uint64_t chunk =
            std::min<std::uint64_t>(bytes, mem::lineBytes - line_off);
        if (line_off == 0)
            fetchLine(core, core._codeBase + core._fetchOffset);
        core._fetchOffset += chunk;
        if (core._fetchOffset >= core._codeBytes)
            core._fetchOffset = 0;
        bytes -= chunk;
    }
}

// --------------------------------------------------------------------
// Core operations
// --------------------------------------------------------------------

MemOp
Cluster::coreLoad(Core &core, mem::Addr addr, unsigned bytes)
{
    // An idle core cannot issue in the past: sync to global time.
    core.advanceLocalTime(_chip.eq().now());
    panic_if(!mem::withinLine(addr, bytes), "load crosses a line");
    // Accounting anchor: the op exists from here; everything up to the
    // request's departure is the Issue stage (L1/L2 lookup, port
    // arbitration, any ifetch stall).
    const sim::Tick op_start = core.localTime();
    core.countInstructions(1);
    ifetch(core, 1);

    mem::Addr base = mem::lineBase(addr);
    mem::WordMask need = mem::wordMaskFor(addr, bytes);

    if (cache::Line *l1 = core.l1d().probe(base)) {
        core.l1d().touch(*l1);
        core.advanceLocalTime(core.localTime() +
                              _chip.config().l1Latency);
        return finish(_chip, core, readWord(*l1, addr, bytes));
    }

    sim::Tick t = l2Access(core.localTime() + _chip.config().l1Latency);
    cache::Line *l2line = _l2.probe(base);
    if (l2line && (l2line->validMask & need) == need) {
        _l2.touch(*l2line);
        _l2Hits.inc();
        core.setLocalTime(t);
        fillL1(core, *l2line);
        return finish(_chip, core, readWord(*l2line, addr, bytes));
    }
    _l2Misses.inc();
    core.setLocalTime(t);

    if (MshrEntry *inflight = _mshrs.find(base)) {
        inflight->waiters.push_back(
            Waiter{&core, false, addr, bytes, 0, false, _chip.eq().now()});
        return MemOp::pending(core);
    }
    MshrEntry &m = _mshrs.open(base, ReqType::Read);
    m.waiters.push_back(
        Waiter{&core, false, addr, bytes, 0, false, _chip.eq().now()});

    Request r;
    r.type = ReqType::Read;
    r.cluster = _id;
    r.core = core.localId();
    r.addr = base;
    r.opStart = op_start;
    m.expectId = sendRequest(r, MsgClass::ReadRequest, t, 0);
    return MemOp::pending(core);
}

MemOp
Cluster::coreStore(Core &core, mem::Addr addr, std::uint32_t value,
                   unsigned bytes)
{
    // An idle core cannot issue in the past: sync to global time.
    core.advanceLocalTime(_chip.eq().now());
    panic_if(!mem::withinLine(addr, bytes), "store crosses a line");
    const sim::Tick op_start = core.localTime();
    core.countInstructions(1);
    ifetch(core, 1);

    mem::Addr base = mem::lineBase(addr);

    // Write-through L1D with bus snooping inside the cluster: update
    // our own copy, invalidate the other cores' copies.
    for (auto &other : _cores) {
        cache::Line *l1 = other->l1d().probe(base);
        if (!l1)
            continue;
        if (other.get() == &core) {
            l1->write(addr, &value, bytes);
            l1->dirtyMask = 0; // write-through: L1 stays clean
        } else {
            l1->reset();
        }
    }

    sim::Tick t = l2Access(core.localTime() + _chip.config().l1Latency);
    cache::Line *l2line = _l2.probe(base);
    if (l2line) {
        if (l2line->incoherent ||
            l2line->hwState == cache::CohState::Modified ||
            l2line->hwState == cache::CohState::Exclusive) {
            // MESI: an Exclusive holder upgrades to Modified silently
            // (no directory message) — the benefit the E state buys.
            if (l2line->hwState == cache::CohState::Exclusive)
                l2line->hwState = cache::CohState::Modified;
            _l2.touch(*l2line);
            _l2Hits.inc();
            applyStore(*l2line, addr, value, bytes);
            core.setLocalTime(t);
            return finish(_chip, core, 0);
        }
        if (l2line->hwState == cache::CohState::Shared) {
            _l2Misses.inc();
            core.setLocalTime(t);
            if (MshrEntry *inflight = _mshrs.find(base)) {
                inflight->waiters.push_back(Waiter{
                    &core, true, addr, bytes, value, false,
                    _chip.eq().now()});
                return MemOp::pending(core);
            }
            if (_chip.writeThroughBackend()) {
                // Directoryless write-through: apply the store to the
                // local Shared copy (which stays clean) and push the
                // written words to the home bank; the bank invalidates
                // every other copy and acks with the merged line. The
                // core blocks until that ack — the store is globally
                // ordered only once the bank serializes it.
                applyStore(*l2line, addr, value, bytes);
                mem::WordMask wmask = l2line->dirtyMask;
                MshrEntry &m = _mshrs.open(base, ReqType::Write);
                m.waiters.push_back(Waiter{&core, true, addr, bytes,
                                           value, true, _chip.eq().now()});
                Request r;
                r.type = ReqType::Write;
                r.cluster = _id;
                r.core = core.localId();
                r.addr = base;
                r.mask = wmask;
                r.data = l2line->data;
                r.opStart = op_start;
                l2line->dirtyMask = 0; // write-through: L2 stays clean
                m.expectId = sendRequest(r, MsgClass::WriteRequest, t,
                                         maskWords(wmask));
                return MemOp::pending(core);
            }
            // S -> M upgrade through the directory.
            MshrEntry &m = _mshrs.open(base, ReqType::Write);
            m.upgradeSent = true;
            m.waiters.push_back(Waiter{&core, true, addr, bytes, value,
                                       false, _chip.eq().now()});
            Request r;
            r.type = ReqType::Write;
            r.cluster = _id;
            r.core = core.localId();
            r.addr = base;
            r.upgrade = true;
            r.opStart = op_start;
            m.expectId = sendRequest(r, MsgClass::WriteRequest, t, 0);
            return MemOp::pending(core);
        }
    }

    _l2Misses.inc();
    core.setLocalTime(t);

    if (_chip.config().mode == CoherenceMode::SWccOnly) {
        // TCMM write-allocate: the store retires immediately; the fill
        // request completes in the background and merges around the
        // locally dirty words.
        if (MshrEntry *inflight = _mshrs.find(base)) {
            inflight->waiters.push_back(Waiter{
                &core, true, addr, bytes, value, false, _chip.eq().now()});
            return MemOp::pending(core);
        }
        cache::Line &v = selectVictim(base);
        if (v.valid)
            evictLine(v, t);
        _l2.claim(v, base);
        v.incoherent = true;
        applyStore(v, addr, value, bytes);
        MshrEntry &m = _mshrs.open(base, ReqType::Write);
        Request r;
        r.type = ReqType::Write;
        r.cluster = _id;
        r.core = core.localId();
        r.addr = base;
        r.opStart = op_start;
        m.expectId = sendRequest(r, MsgClass::WriteRequest, t, 0);
        return finish(_chip, core, 0);
    }

    // Cohesion / HWcc: the store blocks until the home bank responds
    // (M grant or an incoherent fill for SWcc-domain data).
    if (MshrEntry *inflight = _mshrs.find(base)) {
        inflight->waiters.push_back(Waiter{
            &core, true, addr, bytes, value, false, _chip.eq().now()});
        return MemOp::pending(core);
    }
    MshrEntry &m = _mshrs.open(base, ReqType::Write);
    m.waiters.push_back(Waiter{&core, true, addr, bytes, value, false,
                               _chip.eq().now()});
    Request r;
    r.type = ReqType::Write;
    r.cluster = _id;
    r.core = core.localId();
    r.addr = base;
    r.opStart = op_start;
    m.expectId = sendRequest(r, MsgClass::WriteRequest, t, 0);
    return MemOp::pending(core);
}

MemOp
Cluster::coreAtomic(Core &core, AtomicOp op, mem::Addr addr,
                    std::uint32_t operand, std::uint32_t operand2)
{
    // An idle core cannot issue in the past: sync to global time.
    core.advanceLocalTime(_chip.eq().now());
    core.countInstructions(1);
    ifetch(core, 1);

    mem::Addr base = mem::lineBase(addr);
    sim::Tick depart = core.localTime() + 1;

    // Uncached: local copies must not linger. The drop goes through
    // the eviction protocol — dirty data is pushed out so the RMW
    // observes it, and HWcc lines notify the directory (a silent drop
    // of a clean Exclusive line would leave the home bank waiting
    // forever for a writeback that never comes).
    if (cache::Line *l2line = _l2.probe(base)) {
        if (_mshrs.contains(base)) {
            // A fill or upgrade for this line is already in flight; an
            // eviction notification now would cross it and corrupt the
            // directory's sharer view. Leave the copy — the home
            // bank's recall is serialized behind the in-flight
            // transaction and will collect it.
            backInvalidateL1(base, false);
        } else {
            evictLine(*l2line, depart);
        }
    } else {
        backInvalidateL1(base, false);
    }

    Request r;
    r.type = ReqType::Atomic;
    r.cluster = _id;
    r.core = core.localId();
    r.addr = addr;
    r.op = op;
    r.operand = operand;
    r.operand2 = operand2;
    r.opStart = core.localTime();
    sendRequest(r, MsgClass::UncachedAtomic, depart, 1);
    core.setLocalTime(depart);
    return MemOp::pending(core);
}

MemOp
Cluster::coreFlush(Core &core, mem::Addr addr)
{
    sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::ClusterSwcc);
    // An idle core cannot issue in the past: sync to global time.
    core.advanceLocalTime(_chip.eq().now());
    core.countInstructions(1);
    ifetch(core, 1);
    _flushIssued.inc();

    mem::Addr base = mem::lineBase(addr);
    sim::Tick t = l2Access(core.localTime());
    core.setLocalTime(t);

    cache::Line *l2line = _l2.probe(base);
    if (!l2line)
        return finish(_chip, core, 0); // wasted instruction (Fig. 3)
    _flushUseful.inc();
    if (l2line->incoherent && l2line->dirty()) {
        Request r;
        r.type = ReqType::Flush;
        r.cluster = _id;
        r.core = core.localId();
        r.addr = base;
        r.mask = l2line->dirtyMask;
        r.data = l2line->data;
        std::uint32_t id =
            sendRequest(r, MsgClass::SoftwareFlush, t, maskWords(r.mask));
        _pendingWb.insert(id);
        _chip.rec(FR::Ev::SwccFlush, FR::compCluster(_id), base, id, r.mask);
        l2line->dirtyMask = 0; // line transitions to the Clean state
    }
    return finish(_chip, core, 0);
}

MemOp
Cluster::coreInv(Core &core, mem::Addr addr)
{
    sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::ClusterSwcc);
    // An idle core cannot issue in the past: sync to global time.
    core.advanceLocalTime(_chip.eq().now());
    core.countInstructions(1);
    ifetch(core, 1);
    _invIssued.inc();

    mem::Addr base = mem::lineBase(addr);
    sim::Tick t = l2Access(core.localTime());
    core.setLocalTime(t);

    cache::Line *l2line = _l2.probe(base);
    if (!l2line)
        return finish(_chip, core, 0); // wasted instruction (Fig. 3)
    if (l2line->incoherent) {
        _invUseful.inc();
        _chip.rec(FR::Ev::SwccInv, FR::compCluster(_id), base, 0);
        // TCMM invalidation discards the local copy without traffic.
        backInvalidateL1(base, false);
        l2line->reset();
    }
    return finish(_chip, core, 0);
}

MemOp
Cluster::coreDrain(Core &core)
{
    if (_pendingWb.empty())
        return finish(_chip, core, 0);
    _drainWaiters.push_back(&core);
    return MemOp::pending(core);
}

MemOp
Cluster::coreCompute(Core &core, std::uint64_t instrs)
{
    // An idle core cannot issue in the past: sync to global time.
    core.advanceLocalTime(_chip.eq().now());
    core.countInstructions(instrs);
    ifetch(core, instrs);
    core.setLocalTime(core.localTime() + instrs);
    return finish(_chip, core, 0);
}

// --------------------------------------------------------------------
// Network-facing handlers
// --------------------------------------------------------------------

bool
Cluster::writebackAcked(std::uint32_t msg_id)
{
    if (!_pendingWb.erase(msg_id))
        return false; // duplicated ack, or an id the bound evicted
    if (_pendingWb.empty() && !_drainWaiters.empty()) {
        std::vector<Core *> waiters;
        waiters.swap(_drainWaiters);
        for (Core *c : waiters) {
            c->advanceLocalTime(_chip.eq().now());
            c->completeOp(0);
        }
    }
    return true;
}

void
Cluster::recordLatency(const Response &resp)
{
    sim::Tick now = _chip.eq().now();
    std::array<std::uint32_t, sim::lat::numStages> stages =
        resp.latStages;
    // Close the reply-fabric leg: the backoff portion of the hop is
    // blamed to Retry, the rest to RespFabric. The arrival tick always
    // covers the accumulated backoffs (delivery floors only delay
    // further), so the subtraction cannot go negative; clamp anyway so
    // an anomaly shows up as a stage-sum violation, not a wrapped u32.
    std::uint64_t resp_leg = now - resp.sendTick;
    std::uint64_t rp = std::min<std::uint64_t>(resp.retryPenalty, resp_leg);
    stages[static_cast<unsigned>(sim::lat::Stage::RespFabric)] +=
        static_cast<std::uint32_t>(resp_leg - rp);
    stages[static_cast<unsigned>(sim::lat::Stage::Retry)] +=
        static_cast<std::uint32_t>(rp);
    std::uint64_t e2e = now - resp.opStart;
    std::uint64_t sum = 0;
    for (std::uint32_t s : stages)
        sum += s;
    _chip.latAcc().record(static_cast<unsigned>(msgClassFor(resp.type)),
                          resp.latMode, stages, e2e, sum == e2e);
}

void
Cluster::handleResponse(const Response &resp)
{
    sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::ClusterMsg);
    _chip.sampleRespLatency(_chip.eq().now() - resp.sendTick);
    _chip.rec(FR::Ev::RespRecv, FR::compCluster(_id),
              mem::lineBase(resp.addr), resp.msgId,
              static_cast<std::uint8_t>(resp.type),
              (resp.incoherent ? FR::respIncoherent : 0) |
                  (resp.grant == cache::CohState::Exclusive ||
                           resp.grant == cache::CohState::Modified
                       ? FR::respGrant
                       : 0));
    // Only *accepted* responses retire a transaction timeline: a
    // duplicated or stale response (fault injection) must not count a
    // second completion.
    bool accepted = true;
    switch (resp.type) {
      case ReqType::Atomic: {
          Core &c = core(resp.core);
          c.advanceLocalTime(_chip.eq().now());
          c.completeOp(resp.atomicOld);
          break;
      }
      case ReqType::Flush:
      case ReqType::Eviction:
        _chip.rec(FR::Ev::WbAck, FR::compCluster(_id),
                  mem::lineBase(resp.addr), resp.msgId);
        accepted = writebackAcked(resp.msgId);
        break;
      default:
        accepted = installFill(resp);
    }
    if (accepted && _chip.latencyOn())
        recordLatency(resp);
}

bool
Cluster::installFill(const Response &resp)
{
    mem::Addr base = mem::lineBase(resp.addr);
    const MshrEntry *m = _mshrs.find(base);
    if (!m || m->expectId != resp.msgId)
        return false; // duplicated or stale fill (fault injection)
    // Retire the MSHR into the reused scratch list. The scratch
    // vectors are taken, not borrowed, so a re-entrant fill could only
    // cost an allocation.
    std::vector<Waiter> waiters = std::move(_fillWaiters);
    _mshrs.retire(base, waiters);

    cache::Line *line = _l2.probe(base);
    if (!line) {
        cache::Line &v = selectVictim(base);
        if (v.valid)
            evictLine(v, _chip.eq().now());
        _l2.claim(v, base);
        line = &v;
    } else {
        _l2.touch(*line);
    }

    if (resp.incoherent) {
        line->incoherent = true;
        line->hwState = cache::CohState::Invalid;
    } else {
        line->incoherent = false;
        line->hwState = resp.grant;
    }
    line->fill(resp.data.data(), mem::fullMask);
    _chip.rec(FR::Ev::Fill, FR::compCluster(_id), base, resp.msgId,
              static_cast<std::uint8_t>(line->hwState),
              resp.incoherent ? FR::respIncoherent : 0);

    // Apply stores and compute load results first; resume afterwards
    // so re-entrant ops from resumed coroutines cannot disturb the
    // line mid-service.
    std::vector<std::pair<Core *, std::uint64_t>> completions =
        std::move(_completions);
    std::vector<Waiter> upgrade_waiters = std::move(_upgradeWaiters);
    bool can_store = line->incoherent ||
                     line->hwState == cache::CohState::Modified ||
                     line->hwState == cache::CohState::Exclusive;
    if (can_store && line->hwState == cache::CohState::Exclusive) {
        // Stores joined a read miss that was granted Exclusive:
        // silent upgrade.
        bool any_store = false;
        for (const Waiter &w : waiters)
            any_store |= w.isStore;
        if (any_store)
            line->hwState = cache::CohState::Modified;
    }
    for (const Waiter &w : waiters) {
        if (w.isStore) {
            if (can_store) {
                applyStore(*line, w.addr, w.value, w.bytes);
                completions.emplace_back(w.core, 0);
            } else if (w.sent) {
                // Write-through ack: the bank already merged this
                // store's words into the line it just returned.
                completions.emplace_back(w.core, 0);
            } else {
                upgrade_waiters.push_back(w); // granted S; need M/WT
            }
        } else {
            completions.emplace_back(w.core,
                                     readWord(*line, w.addr, w.bytes));
            fillL1(*w.core, *line); // response path fills the L1D
        }
    }

    if (!upgrade_waiters.empty()) {
        // The follow-up's accounting anchor: the earliest waiter has
        // been parked in the MSHR since its born tick, so the pre-send
        // span of the synthesized request is MSHR wait, not core issue.
        sim::Tick earliest = _chip.eq().now();
        for (const Waiter &w : upgrade_waiters)
            earliest = std::min(earliest, w.born);
        if (_chip.writeThroughBackend()) {
            // Stores that queued behind this fill (or behind an
            // earlier write-through) combine into one follow-up
            // write-through carrying all their words.
            for (Waiter &w : upgrade_waiters) {
                applyStore(*line, w.addr, w.value, w.bytes);
                w.sent = true;
            }
            mem::WordMask wmask = line->dirtyMask;
            unsigned core_id = upgrade_waiters.front().core->localId();
            MshrEntry &wt = _mshrs.open(base, ReqType::Write);
            wt.waiters.swap(upgrade_waiters);
            Request r;
            r.type = ReqType::Write;
            r.cluster = _id;
            r.core = core_id;
            r.addr = base;
            r.mask = wmask;
            r.data = line->data;
            r.opStart = earliest;
            r.fromMshr = true;
            line->dirtyMask = 0; // write-through: L2 stays clean
            wt.expectId = sendRequest(r, MsgClass::WriteRequest,
                                      _chip.eq().now(), maskWords(wmask));
        } else {
            unsigned core_id = upgrade_waiters.front().core->localId();
            MshrEntry &up = _mshrs.open(base, ReqType::Write);
            up.upgradeSent = true;
            up.waiters.swap(upgrade_waiters);
            Request r;
            r.type = ReqType::Write;
            r.cluster = _id;
            r.core = core_id;
            r.addr = base;
            r.upgrade = true;
            r.opStart = earliest;
            r.fromMshr = true;
            up.expectId =
                sendRequest(r, MsgClass::WriteRequest, _chip.eq().now(), 0);
        }
    }
    waiters.clear();
    _fillWaiters = std::move(waiters);
    upgrade_waiters.clear();
    _upgradeWaiters = std::move(upgrade_waiters);

    for (auto &[c, value] : completions) {
        c->advanceLocalTime(_chip.eq().now());
        c->completeOp(value);
    }
    completions.clear();
    _completions = std::move(completions);
    return true;
}

ProbeResult
Cluster::handleProbe(ProbeType type, mem::Addr addr)
{
    sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::ClusterMsg);
    mem::Addr base = mem::lineBase(addr);
    l2Access(_chip.eq().now()); // tag access occupies a port

    ProbeResult res;
    cache::Line *l = _l2.probe(base);
    if (!l)
        return res; // nack: already evicted/released

    switch (type) {
      case ProbeType::Invalidate:
      case ProbeType::WritebackInvalidate:
        res.found = true;
        if (l->dirty()) {
            res.dirty = true;
            res.dirtyMask = l->dirtyMask;
            res.data = l->data;
        }
        backInvalidateL1(base, false);
        l->reset();
        break;

      case ProbeType::Downgrade:
        res.found = true;
        if (l->dirty()) {
            res.dirty = true;
            res.dirtyMask = l->dirtyMask;
            res.data = l->data;
            l->dirtyMask = 0;
        }
        l->hwState = cache::CohState::Shared;
        // L1 copies may serve stale data until the next store probes
        // them out; conservatively drop them.
        backInvalidateL1(base, false);
        break;

      case ProbeType::CleanQuery:
        if (!l->incoherent) {
            // Already HWcc (e.g., re-converted earlier): report clean.
            res.found = true;
        } else if (l->dirty()) {
            res.found = true;
            res.dirty = true;
            res.dirtyMask = l->dirtyMask;
            // The line is kept; round two collects the data.
        } else {
            // Clean SWcc line joins the HWcc domain as a sharer.
            res.found = true;
            l->incoherent = false;
            l->hwState = cache::CohState::Shared;
        }
        break;

      case ProbeType::MakeOwner:
        if (l->incoherent && l->dirty()) {
            res.found = true;
            res.dirty = true;
            l->incoherent = false;
            l->hwState = cache::CohState::Modified;
        } else if (l) {
            res.found = true; // raced away; report what we have
        }
        break;
    }
    return res;
}

} // namespace arch
