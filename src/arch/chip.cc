#include "arch/chip.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <sstream>

#include "arch/flight_decode.hh"
#include "coherence/auditor.hh"
#include "coherence/line_profiler.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"
#include "sim/trace_json.hh"

namespace arch {

namespace {

// Drop-retransmit model: the drop decision is made synchronously at
// send time, each consecutive drop adds a doubling backoff to the
// delivery tick, and after maxDropRetransmits the message goes through
// unconditionally — injected losses are never permanent.
constexpr unsigned maxDropRetransmits = 8;
constexpr sim::Tick dropBackoffBase = 16;
constexpr sim::Tick dropBackoffCap = 2048;

/**
 * Resolve the coherence-backend name (throws std::runtime_error
 * listing the registered backends if unknown). An explicit MSI variant
 * forces the matching sharer representation so `--backend dir4b` alone
 * selects limited pointers.
 */
MachineConfig
normalized(MachineConfig c)
{
    c.backend = coherence::resolveBackendName(c.backend, c.directory);
    if (c.backend == "dir4b")
        c.directory.sharerKind = coherence::SharerKind::LimitedPtr;
    else if (c.backend == "msi-fullmap")
        c.directory.sharerKind = coherence::SharerKind::FullMap;
    return c;
}

/** Class-bucket namer handed to the accountant (sim/ cannot name
 *  arch::MsgClass, so the binding happens here). */
const char *
latClassName(unsigned c)
{
    return msgClassName(static_cast<MsgClass>(c));
}

/** Canonical merge order for staged flight-recorder records, used
 *  under stable_sort. Key is (tick, comp) only for cluster and bank
 *  records: stability keeps each component's records in its causal
 *  processing order (a full-content key would reorder e.g. a
 *  TransBegin after the ProbeSends it caused at the same tick).
 *  compChip records (fabric drops and retransmits) get a full-content
 *  tiebreak. The recorder dump, the line profiler's chip.lines.* stats
 *  and every snapshot carrying the ring observe this order. */
bool
recordBefore(const sim::FlightRecorder::Record &x,
             const sim::FlightRecorder::Record &y)
{
    if (x.tick != y.tick)
        return x.tick < y.tick;
    if (x.comp != y.comp)
        return x.comp < y.comp;
    if (x.comp != sim::FlightRecorder::compChip)
        return false;
    if (x.kind != y.kind)
        return x.kind < y.kind;
    if (x.line != y.line)
        return x.line < y.line;
    if (x.txn != y.txn)
        return x.txn < y.txn;
    if (x.a != y.a)
        return x.a < y.a;
    return x.b < y.b;
}

} // namespace

Chip::Chip(const MachineConfig &config, mem::Addr table_base)
    : _config(normalized(config)),
      _backendTraits(*coherence::backendTraits(_config.backend)),
      _router(_config.numClusters + _config.numL3Banks + 1),
      _map(_config.numL3Banks, _config.numChannels, table_base),
      _dram(_map, _config.dram), _fabric(_config),
      _timeSeries(_eq)
{
    _faults.configure(_config.faults, _config.numClusters,
                      _config.numL3Banks);
    _latAcc.configure(numMsgClasses);
    for (unsigned c = 0; c < _config.numClusters; ++c)
        _clusters.push_back(std::make_unique<Cluster>(*this, c));
    for (unsigned b = 0; b < _config.numL3Banks; ++b)
        _banks.push_back(std::make_unique<L3Bank>(*this, b));
}

Chip::~Chip() = default;

void
Chip::postBarrierWake(sim::Tick when, sim::Event cb)
{
    _router.post(srcKeyBarrier(), when, std::move(cb));
}

void
Chip::deliverRequest(unsigned cluster_id, Request req, unsigned data_words,
                     sim::Tick depart)
{
    // The sender stamps sendTick at issue; only fill it in here when
    // it was left unset so retransmit backoff (folded into the arrival
    // tick below) inflates the measured latency instead of hiding it.
    if (req.sendTick == 0)
        req.sendTick = depart;
    unsigned bank_id = _map.bankOf(req.addr);
    sim::Tick nominal =
        _fabric.c2bSend(cluster_id, msgBytes(data_words), depart);
    unsigned drops = 0;
    bool dup = false;
    if (_faults.enabled()) {
        using sim::FaultSite;
        if (_faults.fire(FaultSite::FabricC2BDelay, cluster_id))
            nominal += _faults.delayTicks(FaultSite::FabricC2BDelay);
        sim::Tick backoff = dropBackoffBase;
        while (drops < maxDropRetransmits &&
               _faults.fire(FaultSite::FabricC2BDrop, cluster_id)) {
            ++drops;
            rec(sim::FlightRecorder::Ev::MsgDrop, sim::FlightRecorder::compChip,
                mem::lineBase(req.addr), req.msgId,
                static_cast<std::uint8_t>(req.type), drops);
            nominal += backoff;
            // Backoff ticks are blamed to the Retry stage, not the
            // fabric hop, by the bank-side accounting.
            req.retryPenalty += static_cast<std::uint32_t>(backoff);
            backoff = std::min(backoff * 2, dropBackoffCap);
        }
        if (drops == maxDropRetransmits) {
            // Retransmit budget spent: the message force-delivers at
            // the last computed arrival tick. This used to happen
            // silently; surface it so fault campaigns can see how
            // often the bound actually engages.
            _retryExhausted.inc();
            rec(sim::FlightRecorder::Ev::RetransmitExhausted,
                sim::FlightRecorder::compChip, mem::lineBase(req.addr),
                req.msgId, static_cast<std::uint8_t>(req.type), drops);
        }
        // Atomics are excluded: a duplicated RMW executes twice.
        dup = req.type != ReqType::Atomic &&
              _faults.fire(FaultSite::FabricC2BDup, cluster_id);
    }
    req.retries = static_cast<std::uint8_t>(drops);
    if (drops)
        _reqRetries[static_cast<unsigned>(msgClassFor(req.type))].inc(drops);
    nominal = _fabric.orderC2B(cluster_id, bank_id, nominal);
    routeRequest(cluster_id, bank_id, req, nominal, depart, drops);
    if (dup) {
        sim::Tick at = _fabric.orderC2B(cluster_id, bank_id, nominal + 1);
        routeRequest(cluster_id, bank_id, req, at, depart, 0);
    }
}

void
Chip::routeRequest(unsigned cluster_id, unsigned bank_id, Request req,
                   sim::Tick nominal, sim::Tick depart, unsigned drops)
{
    _router.post(
        srcKeyCluster(cluster_id), nominal,
        [this, bank_id, req, nominal, depart, drops]() {
            sim::Tick accept = _fabric.c2bAccept(bank_id, nominal, depart);
            auto deliver = [this, bank_id, req, drops]() {
                for (unsigned i = 0; i < drops; ++i)
                    _faults.countRecovered(sim::FaultSite::FabricC2BDrop);
                if (drops) {
                    rec(sim::FlightRecorder::Ev::MsgRetransmit,
                        sim::FlightRecorder::compChip,
                        mem::lineBase(req.addr), req.msgId,
                        static_cast<std::uint8_t>(req.type), drops);
                }
                bank(bank_id).receiveRequest(req);
            };
            if (accept == eq().now())
                deliver();
            else
                eq().schedule(accept, std::move(deliver));
        });
}

void
Chip::sendResponse(unsigned bank_id, unsigned cluster_id, Response resp,
                   unsigned data_words)
{
    sim::Tick depart = eq().now();
    resp.sendTick = depart;
    sim::Tick nominal = _fabric.b2cSend(bank_id, msgBytes(data_words), depart);
    unsigned drops = 0;
    bool dup = false;
    if (_faults.enabled()) {
        using sim::FaultSite;
        if (_faults.fire(FaultSite::FabricB2CDelay, bank_id))
            nominal += _faults.delayTicks(FaultSite::FabricB2CDelay);
        sim::Tick backoff = dropBackoffBase;
        while (drops < maxDropRetransmits &&
               _faults.fire(FaultSite::FabricB2CDrop, bank_id)) {
            ++drops;
            rec(sim::FlightRecorder::Ev::MsgDrop, sim::FlightRecorder::compChip,
                mem::lineBase(resp.addr), resp.msgId,
                static_cast<std::uint8_t>(resp.type), 0x80000000u | drops);
            nominal += backoff;
            resp.retryPenalty += static_cast<std::uint32_t>(backoff);
            backoff = std::min(backoff * 2, dropBackoffCap);
        }
        if (drops == maxDropRetransmits) {
            _retryExhausted.inc();
            rec(sim::FlightRecorder::Ev::RetransmitExhausted,
                sim::FlightRecorder::compChip, mem::lineBase(resp.addr),
                resp.msgId, static_cast<std::uint8_t>(resp.type), drops);
        }
        // A duplicated Atomic ack would complete the core's op twice;
        // all other responses are deduplicated by msgId at the cluster.
        dup = resp.type != ReqType::Atomic &&
              _faults.fire(FaultSite::FabricB2CDup, bank_id);
    }
    resp.retries = static_cast<std::uint8_t>(drops);
    if (drops)
        _respRetries.inc(drops);
    nominal = _fabric.orderB2C(bank_id, cluster_id, nominal);
    auto route = [this, cluster_id, resp, depart](sim::Tick at,
                                                  unsigned n_drops) {
        _router.post(
            srcKeyBank(_map.bankOf(resp.addr)), at,
            [this, cluster_id, resp, at, depart, n_drops]() {
                sim::Tick accept = _fabric.b2cAccept(cluster_id, at, depart);
                auto deliver = [this, cluster_id, resp, n_drops]() {
                    for (unsigned i = 0; i < n_drops; ++i) {
                        _faults.countRecovered(
                            sim::FaultSite::FabricB2CDrop);
                    }
                    if (n_drops) {
                        rec(sim::FlightRecorder::Ev::MsgRetransmit,
                            sim::FlightRecorder::compChip,
                            mem::lineBase(resp.addr), resp.msgId,
                            static_cast<std::uint8_t>(resp.type), n_drops);
                    }
                    _respDelivered.inc();
                    cluster(cluster_id).handleResponse(resp);
                };
                if (accept == eq().now())
                    deliver();
                else
                    eq().schedule(accept, std::move(deliver));
            });
    };
    route(nominal, drops);
    if (dup) {
        sim::Tick at = _fabric.orderB2C(bank_id, cluster_id, nominal + 1);
        route(at, 0);
    }
}

void
Chip::sendProbe(unsigned bank_id, unsigned cluster_id, ProbeType type,
                mem::Addr addr, std::uint32_t txn,
                std::function<void(unsigned, const ProbeResult &)> done)
{
    using FR = sim::FlightRecorder;
    rec(FR::Ev::ProbeSend, FR::compBank(bank_id), mem::lineBase(addr), txn,
        static_cast<std::uint8_t>(type), cluster_id);
    sim::Tick depart = eq().now();
    sim::Tick nominal = _fabric.b2cSend(bank_id, msgBytes(0), depart);
    // Probes participate in AckGate fan-ins: a dropped or duplicated
    // probe would underflow/overflow the gate, so probes only suffer
    // delay faults (on either leg).
    if (_faults.enabled() &&
        _faults.fire(sim::FaultSite::FabricB2CDelay, bank_id))
        nominal += _faults.delayTicks(sim::FaultSite::FabricB2CDelay);
    nominal = _fabric.orderB2C(bank_id, cluster_id, nominal);
    _router.post(
        srcKeyBank(bank_id), nominal,
        [this, bank_id, cluster_id, type, addr, txn, depart, nominal,
         done = std::move(done)]() mutable {
            sim::Tick accept = _fabric.b2cAccept(cluster_id, nominal, depart);
            _probeLatency.sample(accept - depart);
            auto apply = [this, bank_id, cluster_id, type, addr, txn,
                          done = std::move(done)]() mutable {
                probeArrived(bank_id, cluster_id, type, addr, txn,
                             std::move(done));
            };
            if (accept == eq().now())
                apply();
            else
                eq().schedule(accept, std::move(apply));
        });
}

void
Chip::probeArrived(unsigned bank_id, unsigned cluster_id, ProbeType type,
                   mem::Addr addr, std::uint32_t txn,
                   std::function<void(unsigned, const ProbeResult &)> done)
{
    using FR = sim::FlightRecorder;
    ProbeResult r = cluster(cluster_id).handleProbe(type, addr);
    rec(FR::Ev::ProbeRecv, FR::compCluster(cluster_id), mem::lineBase(addr),
        txn, static_cast<std::uint8_t>(type),
        (r.found ? FR::probeFound : 0) | (r.dirty ? FR::probeDirty : 0));
    cluster(cluster_id).msgCounters().count(MsgClass::ProbeResponse);
    unsigned words =
        r.dirty ? std::popcount(static_cast<unsigned>(r.dirtyMask)) : 0;
    sim::Tick depart = eq().now();
    sim::Tick back = _fabric.c2bSend(cluster_id, msgBytes(words), depart);
    if (_faults.enabled() &&
        _faults.fire(sim::FaultSite::FabricC2BDelay, cluster_id))
        back += _faults.delayTicks(sim::FaultSite::FabricC2BDelay);
    back = _fabric.orderC2B(cluster_id, bank_id, back);
    _router.post(
        srcKeyCluster(cluster_id), back,
        [this, bank_id, cluster_id, type, addr, txn, r, back, depart,
         done = std::move(done)]() mutable {
            sim::Tick accept = _fabric.c2bAccept(bank_id, back, depart);
            sampleReqLatency(MsgClass::ProbeResponse, accept - depart);
            auto ack = [this, bank_id, cluster_id, type, addr, txn, r,
                        done = std::move(done)]() {
                rec(FR::Ev::ProbeAck, FR::compBank(bank_id),
                    mem::lineBase(addr), txn,
                    static_cast<std::uint8_t>(type), cluster_id);
                // The ack continuation runs bank-side transaction logic.
                sim::HostProfiler::Scope hp(
                    sim::HostProfiler::Phase::BankMsg);
                done(cluster_id, r);
            };
            if (accept == eq().now())
                ack();
            else
                eq().schedule(accept, std::move(ack));
        });
}

std::array<cache::Line *, mem::wordsPerLine>
Chip::newestCopies(mem::Addr base, mem::WordMask want)
{
    std::array<cache::Line *, mem::wordsPerLine> src{};
    auto claim = [&](cache::Line *l, mem::WordMask words) {
        for (unsigned w = 0; w < mem::wordsPerLine; ++w) {
            if (words & (1u << w))
                src[w] = l;
        }
        want = mem::WordMask(want & ~words);
    };
    // A dirty word in any L2 is the newest value; the lowest-numbered
    // cluster wins.
    for (auto &cl : _clusters) {
        if (!want)
            return src;
        if (cache::Line *l = cl->l2().probe(base))
            claim(l, want & l->dirtyMask & l->validMask);
    }
    // Then the L3 copy; memory holds whatever is left.
    if (want) {
        if (cache::Line *l3 = bank(_map.bankOf(base)).l3().probe(base))
            claim(l3, want & l3->validMask);
    }
    return src;
}

void
Chip::coherentRead(mem::Addr a, std::uint32_t *out, std::size_t words)
{
    panic_if(a % mem::wordBytes, "coherentRead of unaligned address 0x",
             std::hex, a);
    while (words > 0) {
        const mem::Addr base = mem::lineBase(a);
        const unsigned first = mem::wordIndex(a);
        const unsigned n = static_cast<unsigned>(
            std::min<std::size_t>(words, mem::wordsPerLine - first));
        const auto src =
            newestCopies(base, mem::WordMask(((1u << n) - 1) << first));
        for (unsigned w = first; w < first + n; ++w, a += mem::wordBytes) {
            if (const cache::Line *l = src[w])
                l->read(a, out++, mem::wordBytes);
            else
                *out++ = _store.readT<std::uint32_t>(a);
        }
        words -= n;
    }
}

void
Chip::injectFault(sim::FaultSite site, mem::Addr a, std::uint32_t xor_mask)
{
    using sim::FaultSite;
    mem::Addr base = mem::lineBase(a);
    mem::WordMask bit = mem::wordBit(a);

    // Pure bit flip: perturb the stored bytes without touching the
    // dirty/valid bookkeeping (that is what the meta sites are for).
    auto xor_data = [&](cache::Line &l) {
        unsigned off = a & (mem::lineBytes - 1);
        std::uint32_t v = 0;
        std::memcpy(&v, l.data.data() + off, 4);
        v ^= xor_mask;
        std::memcpy(l.data.data() + off, &v, 4);
    };
    auto xor_meta = [&](cache::Line &l) {
        l.dirtyMask ^= static_cast<mem::WordMask>(xor_mask & 0xFF);
        l.validMask ^= static_cast<mem::WordMask>((xor_mask >> 8) & 0xFF);
    };

    switch (site) {
      case FaultSite::MemDataFlip:
        // Corrupt the newest visible copy — the word coherentRead
        // returns — so a verifier must observe the flip.
        if (cache::Line *l = newestCopies(base, bit)[mem::wordIndex(a)])
            xor_data(*l);
        else
            _store.writeT(a, _store.readT<std::uint32_t>(a) ^ xor_mask);
        _faults.countInjected(site);
        return;

      case FaultSite::L2DataFlip:
      case FaultSite::L2MetaFlip:
        for (auto &cl : _clusters) {
            if (cache::Line *l = cl->l2().probe(base)) {
                site == FaultSite::L2DataFlip ? xor_data(*l) : xor_meta(*l);
                _faults.countInjected(site);
                return;
            }
        }
        return; // no resident copy: nothing to corrupt

      case FaultSite::L3DataFlip:
      case FaultSite::L3MetaFlip:
        if (cache::Line *l = bank(_map.bankOf(base)).l3().probe(base)) {
            site == FaultSite::L3DataFlip ? xor_data(*l) : xor_meta(*l);
            _faults.countInjected(site);
        }
        return;

      default:
        panic("injectFault: site ", sim::faultSiteName(site),
              " has no targeted form");
    }
}

bool
Chip::pumpEligible() const
{
    using sim::FaultSite;
    return _faults.armed(FaultSite::L2DataFlip) ||
           _faults.armed(FaultSite::L2MetaFlip) ||
           _faults.armed(FaultSite::L3DataFlip) ||
           _faults.armed(FaultSite::L3MetaFlip);
}

void
Chip::faultPump()
{
    using sim::FaultSite;
    // The pump's own Rng stream: victim picks must not perturb the
    // per-component fault lanes.
    sim::Rng &rng = _faults.pumpRng();

    auto flip_in = [&](cache::CacheArray &arr, FaultSite site, bool meta) {
        // Hand-rolled fire(): the injection only counts if the chosen
        // array has a valid line to corrupt.
        if (!_faults.armed(site) ||
            rng.uniform() >= _faults.plan().site(site).rate)
            return;
        cache::Line *l = arr.nthValidLine(rng.next());
        if (!l)
            return;
        if (meta)
            l->flipMetaBit(
                static_cast<unsigned>(rng.below(2 * mem::wordsPerLine)));
        else
            l->flipDataBit(
                static_cast<unsigned>(rng.below(mem::lineBytes * 8)));
        _faults.countInjected(site);
    };

    flip_in(cluster(rng.below(numClusters())).l2(), FaultSite::L2DataFlip,
            false);
    flip_in(cluster(rng.below(numClusters())).l2(), FaultSite::L2MetaFlip,
            true);
    flip_in(bank(rng.below(numBanks())).l3(), FaultSite::L3DataFlip, false);
    flip_in(bank(rng.below(numBanks())).l3(), FaultSite::L3MetaFlip, true);
}

void
Chip::enableAudit()
{
    // An auditor may already exist without a cadence (auditNow(), or a
    // snapshot restore carrying its counters); enabling then only sets
    // the period.
    if (_auditPeriod)
        return;
    if (!_auditor)
        _auditor = std::make_unique<coherence::Auditor>(*this);
    // Cost-scaled: a full pass walks every L2 and directory, so big
    // machines audit less often.
    _auditPeriod = std::max<sim::Tick>(4096, totalCores() * 256);
}

void
Chip::auditNow()
{
    if (!_auditor)
        _auditor = std::make_unique<coherence::Auditor>(*this);
    _auditor->auditNow();
}

void
Chip::verifyNow()
{
    if (!_auditor)
        _auditor = std::make_unique<coherence::Auditor>(*this);
    _auditor->verifyNow();
}

std::string
Chip::inFlightDump() const
{
    std::ostringstream os;
    std::vector<L3Bank::TxnRecord> txns;
    for (const auto &b : _banks) {
        b->forEachTxn(
            [&](const L3Bank::TxnRecord &t) { txns.push_back(t); });
    }
    std::sort(txns.begin(), txns.end(),
              [](const L3Bank::TxnRecord &a, const L3Bank::TxnRecord &b) {
                  return a.start != b.start ? a.start < b.start
                                            : a.id < b.id;
              });
    for (const L3Bank::TxnRecord &t : txns) {
        os << "  bank" << _map.bankOf(t.addr) << " txn#" << t.id << ' '
           << reqTypeName(t.type) << " 0x" << std::hex << t.addr
           << std::dec << " cluster" << t.cluster << " since t=" << t.start
           << '\n';
    }
    for (const auto &cl : _clusters) {
        cl->forEachMshr([&](mem::Addr base, ReqType t, unsigned waiters) {
            os << "  cluster" << cl->id() << " mshr 0x" << std::hex << base
               << std::dec << ' ' << reqTypeName(t) << " waiters="
               << waiters << '\n';
        });
        if (cl->outstandingWrites()) {
            os << "  cluster" << cl->id() << " outstanding writebacks: "
               << cl->outstandingWrites() << '\n';
        }
    }
    return os.str();
}

void
Chip::sampleOccupancy()
{
    std::array<double, numSegments> counts{};
    double total = 0;
    for (auto &b : _banks) {
        const coherence::Directory *dir = b->directoryOrNull();
        if (!dir)
            continue; // directoryless backend: occupancy is zero
        dir->forEach([&](const coherence::DirEntry &e) {
            Segment seg = _classifier ? _classifier(e.base)
                                      : Segment::HeapGlobal;
            counts[static_cast<unsigned>(seg)] += 1;
            total += 1;
        });
    }
    for (unsigned s = 0; s < numSegments; ++s)
        _occupancy[s].sample(counts[s]);
    _occupancyTotal.sample(total);
    _lastOccupancy = counts;
    _lastOccupancyTotal = total;
}

void
Chip::enableOccupancySampling(sim::Tick period)
{
    if (_timeSeries.enabled())
        return;
    _samplePeriod = period;

    // One directory walk per sampling point feeds every dir.* probe.
    _timeSeries.setPreSample([this]() { sampleOccupancy(); });
    _timeSeries.add("dir.total", [this]() { return _lastOccupancyTotal; });
    _timeSeries.add("dir.code", [this]() { return _lastOccupancy[0]; });
    _timeSeries.add("dir.stack", [this]() { return _lastOccupancy[1]; });
    _timeSeries.add("dir.heap_global",
                    [this]() { return _lastOccupancy[2]; });
    for (unsigned b = 0; b < _banks.size(); ++b) {
        _timeSeries.add(sim::cat("bank", b, ".inflight"), [this, b]() {
            return static_cast<double>(_banks[b]->inFlight());
        });
    }
    // Message rate: delta of the aggregate L2-output count per period.
    _timeSeries.add("net.msgs",
                    [this, prev = std::uint64_t(0)]() mutable {
                        std::uint64_t cur = aggregateMessages().total();
                        double delta = static_cast<double>(cur - prev);
                        prev = cur;
                        return delta;
                    });
    // Host-side occupancy gauges ride the same cadence, but only when
    // the self-profiler is on: they describe the simulator (queue
    // pressure, MSHR load), not the simulated machine, and existing
    // time-series consumers should not see new columns by default.
    if (sim::HostProfiler::enabled()) {
        _timeSeries.add("host.eq.pending", [this]() {
            return static_cast<double>(_eq.pending());
        });
        _timeSeries.add("host.mshr.occupancy", [this]() {
            double n = 0;
            for (const auto &cl : _clusters)
                n += static_cast<double>(cl->mshrCount());
            return n;
        });
    }
    _timeSeries.start(period);
}

void
Chip::enableRecorder(std::uint32_t capacity)
{
    _recorder.enable(capacity);
    updateRecAny();
}

void
Chip::enableLineProfiler(unsigned top_n)
{
    if (!_profiler)
        _profiler =
            std::make_unique<coherence::LineProfiler>(_coarseTable, top_n);
    updateRecAny();
}

void
Chip::setNarration(std::uint32_t kinds, mem::Addr watch_line)
{
    _narrateKinds = kinds;
    _watchLine =
        watch_line == ~mem::Addr(0) ? watch_line : mem::lineBase(watch_line);
    updateRecAny();
}

void
Chip::renderTo(sim::TraceJsonWriter *w)
{
    _json = w;
    updateRecAny();
    if (!w) {
        _timeSeries.setSink({});
        return;
    }
    using FR = sim::FlightRecorder;
    auto name = [w](std::uint16_t comp) {
        w->threadName(traceTid(comp), FR::compName(comp));
    };
    name(FR::compChip);
    for (unsigned b = 0; b < _banks.size(); ++b)
        name(FR::compBank(b));
    for (unsigned c = 0; c < _clusters.size(); ++c)
        name(FR::compCluster(c));
    _timeSeries.setSink(
        [w](sim::Tick t, const std::string &series, double v) {
            w->counter(t, series, v);
        });
}

void
Chip::updateRecAny()
{
    _recSlow = _profiler != nullptr || _narrateKinds != 0 ||
               _watchLine != ~mem::Addr(0) || _json != nullptr;
    _recAny = _recorder.enabled() || _recSlow;
}

void
Chip::observe(const sim::FlightRecorder::Record &r)
{
    if (_profiler) {
        _profiler->observe(static_cast<sim::FlightRecorder::Ev>(r.kind),
                           r.line, r.a, r.b);
    }
    if (((_narrateKinds >> r.kind) & 1u) || r.line == _watchLine)
        sim::logLine(describeRecord(r));
    if (_json)
        renderRecord(*_json, r);
}

void
Chip::drainRecStage()
{
    if (_recStage.empty())
        return;
    std::stable_sort(_recStage.begin(), _recStage.end(), recordBefore);
    for (const sim::FlightRecorder::Record &r : _recStage) {
        if (_recorder.enabled()) {
            _recorder.record(r.tick,
                             static_cast<sim::FlightRecorder::Ev>(r.kind),
                             r.comp, r.line, r.txn, r.a, r.b);
        }
        if (_recSlow)
            observe(r);
    }
    _recStage.clear();
}

std::string
Chip::lineHistory(mem::Addr line_base, std::size_t max_records) const
{
    if (!_recorder.enabled())
        return "";
    std::vector<sim::FlightRecorder::Record> hits;
    _recorder.forEach([&](const sim::FlightRecorder::Record &r) {
        if (r.line == line_base)
            hits.push_back(r);
    });
    std::size_t first = hits.size() > max_records
                            ? hits.size() - max_records
                            : 0;
    std::string out;
    for (std::size_t i = first; i < hits.size(); ++i)
        out += "    " + describeRecord(hits[i]) + "\n";
    return out;
}

std::string
Chip::postMortemHistory() const
{
    if (!_recorder.enabled())
        return "";
    // The implicated lines: everything named by an in-flight bank
    // transaction or a cluster MSHR, capped so a wedged broadcast
    // can't turn the dump into a novel.
    std::vector<mem::Addr> lines;
    // Transactions by id within each bank, then MSHRs by line base
    // within each cluster: the order is the machine's, not a table's.
    auto note = [&](mem::Addr base) {
        if (std::find(lines.begin(), lines.end(), base) == lines.end())
            lines.push_back(base);
    };
    for (const auto &b : _banks)
        b->forEachTxn([&](const L3Bank::TxnRecord &t) {
            note(mem::lineBase(t.addr));
        });
    for (const auto &cl : _clusters)
        cl->forEachMshr([&](mem::Addr base, ReqType, unsigned) {
            note(base);
        });
    constexpr std::size_t maxLines = 8;
    std::ostringstream os;
    for (std::size_t i = 0; i < lines.size() && i < maxLines; ++i) {
        std::string h = lineHistory(lines[i]);
        os << "  recorder history line 0x" << std::hex << lines[i]
           << std::dec << ":\n"
           << (h.empty() ? "    (no recorded events)\n" : h);
    }
    if (lines.size() > maxLines)
        os << "  (" << lines.size() - maxLines
           << " more implicated lines omitted)\n";
    return os.str();
}

void
Chip::registerStats(sim::StatRegistry &reg) const
{
    const_cast<Chip *>(this)->drainRecStage();
    for (unsigned c = 0; c < numMsgClasses; ++c) {
        reg.addHistogram(
            sim::cat("chip.latency.req.",
                     msgClassName(static_cast<MsgClass>(c))),
            reqLatency(static_cast<MsgClass>(c)));
    }
    reg.addHistogram("chip.latency.resp", respLatency());
    reg.addHistogram("chip.latency.probe", probeLatency());
    for (unsigned c = 0; c < numMsgClasses; ++c) {
        reg.addCounter(sim::cat("chip.retries.req.",
                                msgClassName(static_cast<MsgClass>(c))),
                       _reqRetries[c]);
    }
    reg.addCounter("chip.retries.resp", _respRetries);
    reg.addCounter("chip.retries.exhausted", _retryExhausted);
    reg.addScalar("chip.retries.wb_evicted", [this]() {
        double total = 0;
        for (const auto &cl : _clusters)
            total += static_cast<double>(cl->pendingWbEvictions());
        return total;
    });
    // Stage-blame breakdown only exists when accounting was enabled:
    // the keys' absence when off is what keeps existing stat
    // fingerprints (and cohesion-diff goldens) byte-identical.
    if (_latAcc.enabled())
        _latAcc.registerStats(reg, "chip.latency", latClassName);
    if (_recorder.enabled()) {
        reg.addScalar("chip.recorder.recorded",
                      static_cast<double>(_recorder.recorded()));
        reg.addScalar("chip.recorder.capacity",
                      static_cast<double>(_recorder.capacity()));
    }
    if (_profiler)
        _profiler->registerStats(reg, "chip.lines");
    _fabric.registerStats(reg, "chip.fabric");
    _faults.registerStats(reg, "chip.faults");
    if (_auditor)
        _auditor->registerStats(reg, "chip.audit");
    for (const auto &cl : _clusters)
        cl->registerStats(reg, sim::cat("chip.cluster", cl->id()));
    for (const auto &b : _banks)
        b->registerStats(reg, sim::cat("chip.bank", b->id()));
}

void
Chip::snapshot(sim::Archive &ar)
{
    ar.tag("chip");
    // Structural quiescence: every component hook below also asserts
    // its own slice, but check the machine-level conditions up front
    // so the failure names the real problem instead of a section tag.
    // A freshly built machine passes them, so a restore runs them too.
    drainRecStage();
    if (!_router.empty()) {
        throw sim::SnapshotError(
            "checkpoint with routed messages in flight");
    }
    for (const auto &b : _banks) {
        // Finished coroutine frames linger in the running list until
        // the next request arrives; they are not in-flight work.
        b->pruneTransactions();
        if (b->inFlight() != 0) {
            throw sim::SnapshotError(
                "checkpoint with bank transactions in flight");
        }
    }
    for (const auto &cl : _clusters) {
        if (cl->mshrCount() != 0) {
            throw sim::SnapshotError(
                "checkpoint with cluster MSHRs in flight");
        }
    }

    // Geometry fingerprint: a snapshot only restores into a machine
    // built from the same topology (cache shapes are re-validated
    // per-array by their own hooks).
    ar.expect(_config.numClusters, "cluster count");
    ar.expect(_config.coresPerCluster, "cores per cluster");
    ar.expect(_config.numL3Banks, "bank count");
    ar.expect(_config.numChannels, "channel count");
    ar.expect(_config.mode, "coherence mode");

    // The queue's (now, eventsRun, nextSeq) record; the sequence
    // origin keeps post-restore same-tick tie-breaks identical.
    ar(_eq);

    ar(_store);
    ar(_dram);
    ar(_fabric);
    ar(_faults);
    ar(_coarseTable);
    for (auto &cl : _clusters)
        ar(*cl);
    for (auto &b : _banks)
        ar(*b);

    ar.tag("chip-stats");
    ar(_reqLatency);
    ar(_respLatency);
    ar(_probeLatency);
    ar(_reqRetries);
    ar(_respRetries);
    ar(_retryExhausted);
    ar(_respDelivered);
    // Retired slot: it held a trace-span id sequence, observer state
    // that DESIGN §12 keeps out of snapshots. Written as zero and
    // ignored on restore, so existing snapshots stay valid.
    std::uint64_t retired = 0;
    ar(retired);
    ar(_occupancy);
    ar(_occupancyTotal);
    ar(_recorder);
    // The auditor's cumulative counters register as chip.audit.*, so
    // they are part of the session's stat contract like any other.
    bool audited = _auditor != nullptr;
    ar(audited);
    if (audited) {
        if (!_auditor)
            _auditor = std::make_unique<coherence::Auditor>(*this);
        ar(*_auditor);
    }
    // A restore may have switched the recorder on or off.
    updateRecAny();
}

Chip::Progress
Chip::progress() const
{
    Progress p;
    p.instructions = totalInstructions();
    for (const auto &b : _banks)
        p.txnsCompleted += b->txnsCompleted();
    p.respDelivered = responsesDelivered();
    return p;
}

sim::Tick
Chip::runUntilQuiescent()
{
    const sim::Tick limit = _config.maxCycles;
    const sim::Tick window =
        _config.watchdogWindow ? std::min(_config.watchdogWindow, limit)
                               : limit;
    // Audit passes, the fault pump and the time-series sampler are all
    // driven from the window barrier rather than from self-re-arming
    // queue events: a pair of such events would keep each other pending
    // forever and hold a quiesced machine alive, and a lone one stops
    // for good the first time the queues drain. Barrier-driven cadences
    // instead survive quiescent gaps — sampling resumes when new work
    // arrives in a later runUntilQuiescent call. Every cadence tick is
    // a pure function of the simulation, so the window boundaries (and
    // with them the router flushes and recorder merges) are too.
    const sim::Tick audit_period = _auditor ? _auditPeriod : 0;
    const sim::Tick pump_period =
        pumpEligible() ? _faults.plan().pumpPeriod : 0;
    const sim::Tick entry = _eq.now();
    sim::Tick next_audit =
        audit_period ? entry + audit_period : sim::maxTick;
    sim::Tick next_pump = pump_period ? entry + pump_period : sim::maxTick;
    sim::Tick window_end = entry + window;
    Progress last = progress();

    // Conservative lookahead: a window [B, B + horizon] is safe because
    // every routed message departs at >= B and arrives at
    // >= B + lookahead + 1 — strictly beyond the window.
    const sim::Tick horizon =
        _fabric.lookahead() ? _fabric.lookahead() - 1 : 0;

    // Live-progress heartbeat. The host clock is consulted only at
    // barriers (and only every few windows); it never shapes a window
    // boundary, so the heartbeat cannot perturb simulated results.
    using host_clock = std::chrono::steady_clock;
    host_clock::time_point last_emit = host_clock::now();
    unsigned beat_countdown = 0;

    // One exact-phase scope rides the loop and switches between the
    // barrier and dispatch with one clock read per switch, so window
    // boundaries leave no unattributed gap.
    sim::HostProfiler::Scope phase(sim::HostProfiler::Phase::Barrier);
    while (true) {
        sim::Tick bound = std::min(_router.head(), _eq.nextEventTick());
        if (bound == sim::maxTick)
            break; // quiescent
        if (bound > limit) {
            rethrowFailedTransaction();
            std::string dump = inFlightDump() + postMortemHistory();
            throw DeadlockError(
                sim::cat("watchdog: simulation exceeded ", limit,
                         " cycles (deadlock or runaway workload)"),
                std::move(dump));
        }

        sim::Tick next_sample = _timeSeries.nextSampleAt();
        sim::Tick stop = std::min(
            std::min(std::min(limit, window_end), bound + horizon),
            std::min(std::min(next_audit, next_pump), next_sample));

        phase.switchTo(sim::HostProfiler::Phase::EqDispatch);
        _router.flush(stop, _eq);
        _eq.run(stop);

        // --- Window barrier ------------------------------------------
        phase.switchTo(sim::HostProfiler::Phase::Barrier);
        drainRecStage();
        bool cadence_due = stop >= next_audit || stop >= next_pump ||
                           stop >= next_sample || stop >= window_end;
        if (cadence_due) {
            // Legal: every event <= stop ran in the window, and no
            // pending message or event is <= stop any more.
            _eq.advanceTo(stop);
            // The cadences below time themselves.
            phase.close();
            if (stop >= next_audit) {
                sim::HostProfiler::Scope hp(
                    sim::HostProfiler::Phase::Audit);
                _auditor->auditNow();
                next_audit += audit_period;
            }
            if (stop >= next_pump) {
                sim::HostProfiler::Scope hp(
                    sim::HostProfiler::Phase::FaultPump);
                faultPump();
                next_pump += pump_period;
            }
            if (stop >= next_sample) {
                sim::HostProfiler::Scope hp(
                    sim::HostProfiler::Phase::Sampler);
                _timeSeries.tick();
            }
            if (stop >= window_end) {
                Progress cur = progress();
                if (_config.watchdogWindow && cur == last) {
                    rethrowFailedTransaction();
                    std::string dump =
                        inFlightDump() + postMortemHistory();
                    throw DeadlockError(
                        sim::cat("watchdog: no forward progress in ",
                                 window, " ticks at t=", stop,
                                 " (deadlock or livelock)"),
                        std::move(dump));
                }
                last = cur;
                window_end = stop + window;
            }
            phase.switchTo(sim::HostProfiler::Phase::Barrier);
        }
        if (_progressFn && beat_countdown-- == 0) {
            beat_countdown = 32;
            host_clock::time_point now_h = host_clock::now();
            double el =
                std::chrono::duration<double>(now_h - last_emit).count();
            if (el >= _progressIntervalSec) {
                _progressFn(stop, totalEventsRun());
                last_emit = now_h;
            }
        }
    }

    // A transaction that died mid-flight leaves its requester waiting
    // forever; report the error, not the hang it causes.
    rethrowFailedTransaction();

    // End normalization: the clock lands on the last fired event, so a
    // later run (or a checkpoint) continues from one well-defined
    // point. A cadence barrier may already have advanced the clock
    // past that event (quiescence is only detected one iteration
    // later), so the final tick covers both.
    sim::Tick final_tick =
        std::max(entry, std::max(_eq.lastFired(), _eq.now()));
    _eq.advanceTo(final_tick);
    drainRecStage();
    phase.close();
    // The final event may land exactly on the sampling cadence.
    if (final_tick >= _timeSeries.nextSampleAt()) {
        sim::HostProfiler::Scope hp(sim::HostProfiler::Phase::Sampler);
        _timeSeries.tick();
    }
    if (_progressFn)
        _progressFn(final_tick, totalEventsRun());
    return final_tick;
}

void
Chip::rethrowFailedTransaction() const
{
    for (const auto &b : _banks)
        b->rethrowFailedTransaction();
}

MsgCounters
Chip::aggregateMessages() const
{
    MsgCounters agg;
    for (const auto &cl : _clusters)
        agg.merge(cl->msgCounters());
    return agg;
}

std::uint64_t
Chip::totalInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &cl : _clusters) {
        for (unsigned c = 0; c < cl->numCores(); ++c)
            n += const_cast<Cluster &>(*cl).core(c).instructions();
    }
    return n;
}

} // namespace arch
