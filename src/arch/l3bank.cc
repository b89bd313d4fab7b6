#include "arch/l3bank.hh"

#include <algorithm>
#include <bit>

#include "arch/chip.hh"
#include "cohesion/region_table.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"

namespace arch {

namespace {

using FR = sim::FlightRecorder;

} // namespace

L3Bank::L3Bank(Chip &chip, unsigned id)
    : _chip(chip), _id(id),
      _l3(sim::cat("l3bank", id), chip.config().l3BankBytes,
          chip.config().l3Assoc),
      _tableCache(chip.config().tableCacheEntries), _locks(chip.eq()),
      _backend(coherence::makeBackend(chip.config().backend, *this))
{
    _tableCache.setFaultInjector(&chip.faults(), id);
}

L3Bank::~L3Bank()
{
    // Destroying a suspended transaction runs its Retire guard, which
    // writes into _txns and _retired: tear the frames down while both
    // are still whole.
    for (std::uint32_t s = 0; s < _txns.created(); ++s)
        _txns[s].task = sim::CoTask();
}

L3Bank::Retire::Retire(L3Bank &bank, std::uint32_t slot,
                       const TxnRecord &rec)
    : _bank(bank), _slot(slot)
{
    _bank._txns[slot].rec = rec;
    _bank._txns[slot].running = true;
}

L3Bank::Retire::~Retire()
{
    _bank._txns[_slot].running = false;
    _bank._retired.push_back(_slot);
}

void
L3Bank::pruneTransactions()
{
    std::exception_ptr err;
    for (std::uint32_t s : _retired) {
        sim::CoTask &task = _txns[s].task;
        if (!err)
            err = task.error();
        task = sim::CoTask(); // frees the finished frame
        _txns.free(s);
    }
    _retired.clear();
    if (err)
        std::rethrow_exception(err);
}

void
L3Bank::rethrowFailedTransaction() const
{
    for (std::uint32_t s : _retired)
        _txns[s].task.rethrow();
}

void
L3Bank::forEachTxn(const std::function<void(const TxnRecord &)> &fn) const
{
    std::vector<const TxnRecord *> recs;
    for (std::uint32_t s = 0; s < _txns.created(); ++s) {
        if (_txns[s].running)
            recs.push_back(&_txns[s].rec);
    }
    std::sort(recs.begin(), recs.end(),
              [](const TxnRecord *a, const TxnRecord *b) {
                  return a->id < b->id;
              });
    for (const TxnRecord *r : recs)
        fn(*r);
}

void
L3Bank::receiveRequest(const Request &req)
{
    // Covers the transaction coroutine's first segment (through
    // .start() up to its first suspension); later segments re-open
    // the phase from the awaitable resume hooks.
    sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::BankMsg);
    _chip.sampleReqLatency(msgClassFor(req.type),
                           _chip.eq().now() - req.sendTick);
    _chip.rec(FR::Ev::MsgRecv, FR::compBank(_id), mem::lineBase(req.addr),
              req.msgId, static_cast<std::uint8_t>(req.type), req.cluster);
    // The pool never moves a slot, so the task stays put while its
    // first segment runs inside start().
    std::uint32_t s = claimSlot();
    _txns[s].task = transaction(req, s);
    _txns[s].task.start();
}

std::uint32_t
L3Bank::claimSlot()
{
    pruneTransactions();
    std::uint32_t s = _txns.alloc();
    // Room for every live slot to retire: the Retire guard's
    // destructor then never reallocates, so it cannot throw.
    if (_retired.capacity() < _txns.live())
        _retired.reserve(2 * _txns.live());
    return s;
}

sim::CoTask
L3Bank::transaction(Request req, std::uint32_t slot)
{
    const std::uint64_t txn = ++_txnSeq;
    Retire retire(*this, slot,
                  TxnRecord{txn, req.type, mem::lineBase(req.addr),
                            req.cluster, _chip.eq().now()});
    // TxnBegin binds the bank-local txn sequence to the cluster's
    // msgId so the decoder can stitch the two id spaces together.
    _chip.rec(FR::Ev::TxnBegin, FR::compBank(_id), mem::lineBase(req.addr),
              static_cast<std::uint32_t>(txn), 0, req.msgId);
    // Latency accounting: the stage cursor lives on this frame and is
    // threaded by pointer through the whole flow, so the bank span
    // tiles exactly between arrival and the response send. The
    // request leg (issue/MSHR wait, fabric hop, retransmit backoff)
    // is settled here from the message's own stamps.
    sim::lat::Cursor cursor;
    sim::lat::Cursor *lat = nullptr;
    if (_chip.latencyOn()) {
        lat = &cursor;
        const sim::Tick t1 = _chip.eq().now();
        std::uint64_t req_leg = t1 - req.sendTick;
        std::uint64_t rp =
            std::min<std::uint64_t>(req.retryPenalty, req_leg);
        cursor.add(sim::lat::Stage::ReqFabric, req_leg - rp);
        cursor.add(sim::lat::Stage::Retry, rp);
        cursor.add(req.fromMshr ? sim::lat::Stage::Mshr
                                : sim::lat::Stage::Issue,
                   req.sendTick - req.opStart);
        cursor.last = t1;
    }
    if (req.type == ReqType::Atomic && _chip.cohesionEnabled() &&
        _chip.map().inTable(req.addr)) {
        co_await handleTableUpdate(req, lat);
    } else {
        switch (req.type) {
          case ReqType::Read:
          case ReqType::Instr:
            co_await _backend->read(req, lat);
            break;
          case ReqType::Write:
            co_await _backend->write(req, lat);
            break;
          case ReqType::Atomic:
            co_await handleAtomic(req, lat);
            break;
          default:
            co_await handleWriteback(req, lat);
            break;
        }
    }
    _txnsCompleted.inc();
    _chip.rec(FR::Ev::TxnEnd, FR::compBank(_id), mem::lineBase(req.addr),
              static_cast<std::uint32_t>(txn), 0, req.msgId);
}

void
L3Bank::respond(const Request &req, Response resp, unsigned data_words,
                sim::lat::Cursor *lat)
{
    resp.msgId = req.msgId; // echo for cluster-side dedup
    if (lat) {
        // Close the residual bank span to Service: sendResponse below
        // stamps resp.sendTick with this same tick, so the timeline
        // tiles [opStart, sendTick) exactly and the cluster settles
        // the reply leg at retire.
        lat->mark(sim::lat::Stage::Service, _chip.eq().now());
        resp.latStages = lat->cycles;
        resp.opStart = req.opStart;
        if (resp.incoherent)
            resp.latMode = sim::lat::Mode::Swcc;
    }
    _chip.rec(FR::Ev::RespSend, FR::compBank(_id), mem::lineBase(resp.addr),
              resp.msgId, static_cast<std::uint8_t>(resp.type),
              (resp.incoherent ? FR::respIncoherent : 0u) |
                  (resp.grant == cache::CohState::Exclusive ||
                           resp.grant == cache::CohState::Modified
                       ? FR::respGrant
                       : 0u));
    _chip.sendResponse(_id, req.cluster, resp, data_words);
}

void
L3Bank::registerStats(sim::StatRegistry &reg,
                      const std::string &prefix) const
{
    reg.addCounter(prefix + ".l3.hits", _l3Hits);
    reg.addCounter(prefix + ".l3.misses", _l3Misses);
    reg.addCounter(prefix + ".transitions", _transitions);
    reg.addCounter(prefix + ".table_lookups", _tableLookups);
    reg.addCounter(prefix + ".dir.evictions", _dirEvictions);
    reg.addCounter(prefix + ".atomics", _atomics);
    reg.addCounter(prefix + ".merge_conflicts", _mergeConflicts);
    reg.addCounter(prefix + ".txns_completed", _txnsCompleted);
    reg.addScalar(prefix + ".dir.entries", [this]() {
        return static_cast<double>(_backend->dirEntries());
    });
    reg.addScalar(prefix + ".dir.peak", [this]() {
        return static_cast<double>(_backend->dirPeakEntries());
    });
    reg.addScalar(prefix + ".dir.insertions", [this]() {
        return static_cast<double>(_backend->dirInsertions());
    });
}

void
L3Bank::sendProbes(const std::vector<unsigned> &targets, ProbeType type,
                   mem::Addr addr, std::uint32_t txn,
                   std::vector<std::pair<unsigned, ProbeResult>> *results,
                   AckGate *gate)
{
    for (unsigned cl : targets) {
        _chip.sendProbe(_id, cl, type, addr, txn,
                        [results, gate](unsigned c, const ProbeResult &r) {
                            results->emplace_back(c, r);
                            gate->signal();
                        });
    }
}

std::pair<cache::Line *, sim::Tick>
L3Bank::l3AccessPrep(mem::Addr base, bool write, sim::Tick start,
                     sim::Tick *dram)
{
    (void)write;
    base = mem::lineBase(base);
    start = std::max(start, _l3PortFree);
    _l3PortFree = start + 1;
    sim::Tick ready = start + _chip.config().l3Latency;
    if (dram)
        *dram = 0;

    if (cache::Line *line = _l3.probe(base)) {
        _l3.touch(*line);
        _l3Hits.inc();
        return {line, ready};
    }
    _l3Misses.inc();

    cache::Line &v = _l3.victim(base);
    if (v.valid) {
        if (v.dirty()) {
            // Victim writeback uses the channel but is off the
            // critical path of this access.
            _chip.store().write(v.base, v.data.data(), mem::lineBytes);
            _chip.dram().access(v.base, true, start);
        }
        v.reset();
    }
    _l3.claim(v, base);
    _chip.store().read(base, v.data.data(), mem::lineBytes);
    v.validMask = mem::fullMask;
    v.dirtyMask = 0;

    sim::Tick fill_done = _chip.dram().access(base, false, ready);
    if (dram)
        *dram = fill_done + 1 - ready;
    return {&v, fill_done + 1};
}

sim::CoTask
L3Bank::mergeIntoL3(mem::Addr base,
                    const std::array<std::uint8_t, mem::lineBytes> &data,
                    mem::WordMask mask)
{
    auto [line, t] = l3AccessPrep(base, true, _chip.eq().now());
    line->merge(data.data(), mask);
    co_await Delay{_chip.eq(), t};
}

std::uint32_t
L3Bank::applyAtomic(cache::Line &line, mem::Addr addr, AtomicOp op,
                    std::uint32_t operand, std::uint32_t operand2)
{
    std::uint32_t old = 0;
    line.read(addr, &old, 4);
    std::uint32_t next = old;
    switch (op) {
      case AtomicOp::AddU32:
        next = old + operand;
        break;
      case AtomicOp::AddF32: {
          float f = std::bit_cast<float>(old) + std::bit_cast<float>(operand);
          next = std::bit_cast<std::uint32_t>(f);
          break;
      }
      case AtomicOp::MinF32: {
          float a = std::bit_cast<float>(old);
          float b = std::bit_cast<float>(operand);
          next = std::bit_cast<std::uint32_t>(std::min(a, b));
          break;
      }
      case AtomicOp::Or:
        next = old | operand;
        break;
      case AtomicOp::And:
        next = old & operand;
        break;
      case AtomicOp::Xchg:
        next = operand;
        break;
      case AtomicOp::Cas:
        next = (old == operand2) ? operand : old;
        break;
    }
    line.write(addr, &next, 4);
    return old;
}

sim::CoTask
L3Bank::lookupDomain(mem::Addr base, std::uint32_t txn, bool *out_swcc)
{
    // Host-profiler scopes in this coroutine are closed explicitly
    // before every co_await: a scope left open across a suspension
    // would time simulated waiting, not host work.
    sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::RegionTable);
    // The coarse-grain table is checked in parallel with the directory
    // and adds no latency.
    if (_chip.coarseTable().contains(base)) {
        *out_swcc = true;
        co_return;
    }
    // Fine-grain lookup: one extra L3 data access for the table word
    // (Section 3.4: "a minimum of one cycle of delay ... more under
    // contention at the L3 or if an L3 cache miss for the table
    // occurs").
    _tableLookups.inc();
    const mem::AddressMap &map = _chip.map();
    mem::Addr word_addr = map.tableWordAddr(base);

    // Optional on-die table cache: a hit avoids the L3 access
    // entirely (one cycle, like the coarse table).
    if (auto cached = _tableCache.lookup(word_addr)) {
        hp.close();
        co_await Delay{_chip.eq(), _chip.eq().now() + 1};
        sim::HostProfiler::Scope hp2(
            sim::HostProfiler::Phase::RegionTable);
        *out_swcc = cohesion::fine_table::bitFromWord(*cached, map, base);
        _chip.rec(FR::Ev::TableRead, FR::compBank(_id), base, txn,
                  *out_swcc ? 1 : 0, FR::tableFromCache);
        co_return;
    }

    auto [tline, t] = l3AccessPrep(word_addr, false, _chip.eq().now());
    std::uint32_t word = 0;
    tline->read(word_addr, &word, 4);
    _tableCache.fill(word_addr, word);
    hp.close();
    co_await Delay{_chip.eq(), t};
    sim::HostProfiler::Scope hp3(sim::HostProfiler::Phase::RegionTable);
    *out_swcc = cohesion::fine_table::bitFromWord(word, map, base);
    _chip.rec(FR::Ev::TableRead, FR::compBank(_id), base, txn,
              *out_swcc ? 1 : 0, FR::tableFromMem);
}

sim::CoTask
L3Bank::handleAtomic(Request req, sim::lat::Cursor *lat)
{
    const mem::Addr base = mem::lineBase(req.addr);
    const std::uint32_t key = mem::lineNumber(base);
    co_await _locks.acquire(key);
    Held held(_locks, key);

    sim::EventQueue &eq = _chip.eq();
    if (lat)
        lat->mark(sim::lat::Stage::BankLock, eq.now());

    if (_chip.config().mode != CoherenceMode::SWccOnly) {
        // Cached HWcc copies must be recalled (or, for directoryless
        // backends, broadcast-invalidated) so the RMW is globally
        // ordered.
        co_await _backend->recallForAtomic(base, req.msgId, key, lat);
    }

    sim::Tick dram = 0;
    auto [line, t] = l3AccessPrep(base, true, eq.now(), &dram);
    std::uint32_t old =
        applyAtomic(*line, req.addr, req.op, req.operand, req.operand2);
    _atomics.inc();
    co_await Delay{eq, t};
    if (lat)
        lat->markAccess(eq.now(), dram);

    Response resp;
    resp.type = ReqType::Atomic;
    resp.core = req.core;
    resp.addr = req.addr;
    resp.atomicOld = old;
    // In SWcc-only machines the atomic unit is the software-managed
    // ordering point; blame its cycles to the SWcc cut.
    if (_chip.config().mode == CoherenceMode::SWccOnly)
        resp.latMode = sim::lat::Mode::Swcc;
    respond(req, resp, 1, lat);
}

sim::CoTask
L3Bank::handleWriteback(Request req, sim::lat::Cursor *lat)
{
    const mem::Addr base = mem::lineBase(req.addr);
    const std::uint32_t key = mem::lineNumber(base);
    co_await _locks.acquire(key);
    Held held(_locks, key);
    if (lat)
        lat->mark(sim::lat::Stage::BankLock, _chip.eq().now());

    switch (req.type) {
      case ReqType::WriteRelease: {
          // Fire-and-forget (no ack message, nothing retires at the
          // cluster), so the cursor is dropped with the frame.
          co_await mergeIntoL3(base, req.data, req.mask);
          if (_chip.config().mode != CoherenceMode::SWccOnly)
              _backend->writeRelease(req);
          break;
      }
      case ReqType::ReadRelease: {
          _backend->readRelease(req);
          break;
      }
      case ReqType::Eviction:
      case ReqType::Flush: {
          co_await mergeIntoL3(base, req.data, req.mask);
          if (lat)
              lat->mark(sim::lat::Stage::Service, _chip.eq().now());
          Response resp;
          resp.type = req.type;
          resp.core = req.core;
          resp.addr = base;
          // Flushes and dirty evictions are the SWcc writeback
          // machinery (HWcc writebacks are unacked WriteReleases).
          resp.latMode = sim::lat::Mode::Swcc;
          respond(req, resp, 0, lat);
          break;
      }
      default:
        panic("unexpected writeback type ", reqTypeName(req.type));
    }
}

sim::CoTask
L3Bank::swccToHwcc(mem::Addr base, std::uint32_t txn,
                   sim::lat::Cursor *lat)
{
    sim::EventQueue &eq = _chip.eq();
    const auto step = [&](FR::Step s, std::uint32_t b = 0) {
        _chip.rec(FR::Ev::TransStep, FR::compBank(_id), base, txn,
                  static_cast<std::uint8_t>(s), b);
    };

    // Round 1: broadcast clean request to every cluster (Section 3.6).
    std::vector<unsigned> all;
    for (unsigned c = 0; c < _chip.numClusters(); ++c)
        all.push_back(c);
    step(FR::Step::Broadcast, static_cast<std::uint32_t>(all.size()));
    std::vector<std::pair<unsigned, ProbeResult>> results;
    AckGate gate;
    gate.expect(all.size());
    sendProbes(all, ProbeType::CleanQuery, base, txn, &results, &gate);
    co_await gate.wait();
    if (lat)
        lat->mark(sim::lat::Stage::Probe, eq.now());

    std::vector<unsigned> clean_sharers;
    std::vector<unsigned> dirty_holders;
    mem::WordMask seen_dirty = 0;
    bool overlap = false;
    for (const auto &[cl, r] : results) {
        if (!r.found)
            continue;
        if (r.dirty) {
            dirty_holders.push_back(cl);
            if (seen_dirty & r.dirtyMask)
                overlap = true;
            seen_dirty |= r.dirtyMask;
        } else {
            clean_sharers.push_back(cl);
        }
    }

    // Rounds 2+ depend on the protocol: the backend absorbs the
    // classified holders (cases 1b-5b) into its own tracking.
    co_await _backend->adoptLine(base, txn, clean_sharers, dirty_holders,
                                 overlap, lat);
    (void)eq;
}

sim::CoTask
L3Bank::handleTableUpdate(Request req, sim::lat::Cursor *lat)
{
    sim::EventQueue &eq = _chip.eq();
    const mem::AddressMap &map = _chip.map();
    panic_if(req.op != AtomicOp::Or && req.op != AtomicOp::And,
             "fine-table updates must use atom.or/atom.and");

    const mem::Addr word_addr = req.addr & ~mem::Addr(3);
    const mem::Addr tbl_base = mem::lineBase(word_addr);
    const std::uint32_t tbl_key = mem::lineNumber(tbl_base);
    co_await _locks.acquire(tbl_key);
    Held held(_locks, tbl_key);
    if (lat)
        lat->mark(sim::lat::Stage::BankLock, eq.now());

    // Read the current word to find which bits change.
    sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::RegionTable);
    auto [tline, t0] = l3AccessPrep(tbl_base, true, eq.now());
    std::uint32_t old = 0;
    tline->read(word_addr, &old, 4);
    hp.close();
    co_await Delay{eq, t0};
    // Table reads/commits are domain machinery: blame them to Dir.
    if (lat)
        lat->mark(sim::lat::Stage::Dir, eq.now());

    std::uint32_t next =
        req.op == AtomicOp::Or ? (old | req.operand) : (old & req.operand);
    std::uint32_t changed = old ^ next;
    const mem::Addr block_base = map.coveredBlockBase(word_addr);

    // Serialize transitions line by line (Section 3.6: "the directory
    // serializes the requests line-by-line").
    for (unsigned bit = 0; bit < 32 && changed; ++bit) {
        if (!((changed >> bit) & 1u))
            continue;
        mem::Addr lb = block_base + bit * mem::lineBytes;
        std::uint32_t lkey = mem::lineNumber(lb);
        bool self = (lkey == tbl_key);
        if (!self) {
            co_await _locks.acquire(lkey);
            if (lat)
                lat->mark(sim::lat::Stage::BankLock, eq.now());
        }

        bool to_swcc = (next >> bit) & 1u;
        _chip.rec(FR::Ev::TransBegin, FR::compBank(_id), lb, req.msgId,
                  to_swcc ? 1 : 0, bit);
        if (to_swcc) {
            // HWcc => SWcc (Fig. 7a): flush cached copies and any
            // sharer-tracking state.
            co_await _backend->flushLine(lb, req.msgId, lkey, lat);
        } else {
            // SWcc => HWcc (Fig. 7b): broadcast clean request.
            co_await swccToHwcc(lb, req.msgId, lat);
        }

        // Commit this line's bit under its lock. The table line may
        // have been evicted from the L3 during the probes; re-prep.
        sim::HostProfiler::Scope hpc(
            sim::HostProfiler::Phase::RegionTable);
        auto [tl, tt] = l3AccessPrep(tbl_base, true, eq.now());
        std::uint32_t cur = 0;
        tl->read(word_addr, &cur, 4);
        cur = to_swcc ? (cur | (1u << bit)) : (cur & ~(1u << bit));
        tl->write(word_addr, &cur, 4);
        _tableCache.update(word_addr, cur);
        _transitions.inc();
        _chip.rec(FR::Ev::TableUpdate, FR::compBank(_id), lb, req.msgId,
                  to_swcc ? 1 : 0, cur);
        _chip.rec(FR::Ev::TransEnd, FR::compBank(_id), lb, req.msgId,
                  to_swcc ? 1 : 0);
        hpc.close();
        co_await Delay{eq, tt};
        if (lat)
            lat->mark(sim::lat::Stage::Dir, eq.now());

        if (!self)
            _locks.release(lkey);
    }

    // The issuing core blocks until the transition completes
    // (Section 3.6) — the ack carries the prior word value.
    Response resp;
    resp.type = ReqType::Atomic;
    resp.core = req.core;
    resp.addr = req.addr;
    resp.atomicOld = old;
    resp.latMode = sim::lat::Mode::Transition;
    respond(req, resp, 1, lat);
}

void
L3Bank::debugWedgeLine(mem::Addr base)
{
    std::uint32_t s = claimSlot();
    _txns[s].task = wedge(mem::lineBase(base), s);
    _txns[s].task.start();
}

sim::CoTask
L3Bank::wedge(mem::Addr base, std::uint32_t slot)
{
    const std::uint32_t key = mem::lineNumber(base);
    const std::uint64_t txn = ++_txnSeq;
    Retire retire(*this, slot,
                  TxnRecord{txn, ReqType::Read, base, 0, _chip.eq().now()});
    co_await _locks.acquire(key);
    Held held(_locks, key);
    // Park far beyond any cycle limit while holding the line lock:
    // every later request for this line queues behind it forever.
    co_await Delay{_chip.eq(), _chip.eq().now() + (sim::Tick{1} << 62)};
}

} // namespace arch
