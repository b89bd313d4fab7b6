#include "arch/flight_decode.hh"

#include <sstream>
#include <stdexcept>

#include "arch/protocol.hh"
#include "cache/cache_array.hh"
#include "sim/trace_json.hh"

namespace arch {

namespace {

using FR = sim::FlightRecorder;
using Ev = FR::Ev;

const char *
stateName(std::uint8_t s)
{
    switch (static_cast<cache::CohState>(s)) {
      case cache::CohState::Invalid:   return "I";
      case cache::CohState::Shared:    return "S";
      case cache::CohState::Exclusive: return "E";
      case cache::CohState::Modified:  return "M";
    }
    return "?";
}

void
maskTo(std::ostream &os, std::uint8_t mask)
{
    os << "mask=0x" << std::hex << unsigned(mask) << std::dec;
}

} // namespace

std::string
describeRecordBody(const sim::FlightRecorder::Record &r)
{
    std::ostringstream os;
    Ev e = static_cast<Ev>(r.kind);
    os << FR::compName(r.comp) << ' ' << FR::evName(e);

    auto req_type = [&] { os << ' ' << reqTypeName(static_cast<ReqType>(r.a)); };
    auto probe_type = [&] {
        os << ' ' << probeTypeName(static_cast<ProbeType>(r.a));
    };
    auto line = [&] {
        os << " line 0x" << std::hex << r.line << std::dec;
    };
    auto msg = [&] { os << " msg#" << r.txn; };

    switch (e) {
      case Ev::MsgSend:
        req_type();
        line();
        msg();
        os << " class=" << msgClassName(static_cast<MsgClass>(r.b));
        break;
      case Ev::MsgRecv:
        req_type();
        line();
        os << " from cluster" << r.b;
        msg();
        break;
      case Ev::MsgDrop:
        req_type();
        line();
        msg();
        os << ((r.b & 0x80000000u) ? " (response)" : " (request)")
           << " drop#" << (r.b & 0x7FFFFFFFu);
        break;
      case Ev::MsgRetransmit:
        req_type();
        line();
        msg();
        os << " delivered after " << r.b
           << (r.b == 1 ? " drop" : " drops");
        break;
      case Ev::RetransmitExhausted:
        req_type();
        line();
        msg();
        os << " retransmit budget spent (" << r.b
           << " drops); delivery forced";
        break;
      case Ev::RespSend:
      case Ev::RespRecv:
        req_type();
        line();
        msg();
        if (r.b & FR::respIncoherent)
            os << " incoherent(SWcc)";
        if (r.b & FR::respGrant)
            os << " exclusive-grant";
        break;
      case Ev::ProbeSend:
        probe_type();
        line();
        os << " -> cluster" << r.b;
        msg();
        break;
      case Ev::ProbeRecv:
        probe_type();
        line();
        os << ((r.b & FR::probeFound)
                   ? ((r.b & FR::probeDirty) ? " hit dirty" : " hit clean")
                   : " miss");
        msg();
        break;
      case Ev::ProbeAck:
        probe_type();
        line();
        os << " from cluster" << r.b;
        msg();
        break;
      case Ev::DirInsert:
        line();
        os << " state=" << stateName(r.a) << " cluster" << r.b;
        msg();
        break;
      case Ev::DirState:
        line();
        os << " state=" << stateName(r.a) << " sharers=" << r.b;
        msg();
        break;
      case Ev::DirErase:
        line();
        msg();
        break;
      case Ev::SwccFlush:
      case Ev::Writeback:
        line();
        os << ' ';
        maskTo(os, r.a);
        msg();
        break;
      case Ev::SwccInv:
      case Ev::WbAck:
        line();
        msg();
        break;
      case Ev::Fill:
        line();
        if (r.b & FR::respIncoherent)
            os << " incoherent(SWcc)";
        else
            os << " state=" << stateName(r.a);
        msg();
        break;
      case Ev::Evict:
        line();
        os << ((r.b & FR::respIncoherent) ? " SWcc" : " HWcc")
           << ((r.a & FR::evictDirty) ? " dirty" : " clean");
        break;
      case Ev::TableRead:
        line();
        os << " -> " << (r.a ? "SWcc" : "HWcc")
           << (r.b == FR::tableFromCache ? " (table$)" : " (L3/mem)");
        msg();
        break;
      case Ev::TableUpdate:
        line();
        os << " bit=" << unsigned(r.a);
        msg();
        break;
      case Ev::TransBegin:
        line();
        os << (r.a ? " HWcc=>SWcc (Fig. 7a)" : " SWcc=>HWcc (Fig. 7b)");
        msg();
        break;
      case Ev::TransStep:
        line();
        os << ' ' << FR::stepName(static_cast<FR::Step>(r.a));
        if (r.b)
            os << " cluster" << r.b;
        msg();
        break;
      case Ev::TransEnd:
        line();
        os << (r.a ? " now SWcc" : " now HWcc");
        msg();
        break;
      // Transaction records carry no request type (a is 0).
      case Ev::TxnBegin:
        line();
        os << " txn#" << r.txn << " msg#" << r.b;
        break;
      case Ev::TxnEnd:
        line();
        os << " txn#" << r.txn;
        break;
      case Ev::None:
      case Ev::numEvents:
        break;
    }
    return os.str();
}

std::string
describeRecord(const sim::FlightRecorder::Record &r)
{
    std::ostringstream os;
    os << "t=" << r.tick << ' ' << describeRecordBody(r);
    return os.str();
}

namespace {

constexpr const char *groupNames[] = {"protocol", "cache", "transition",
                                      "net", "fault"};

/** Index into groupNames. The switch has no default, so a new kind
 *  that is given no group fails to compile (-Wswitch). */
unsigned
groupOf(Ev e)
{
    switch (e) {
      // The directory protocol at the home banks (Fig. 6).
      case Ev::MsgRecv:
      case Ev::TxnBegin:
      case Ev::TxnEnd:
      case Ev::DirInsert:
      case Ev::DirState:
      case Ev::DirErase:
      case Ev::ProbeSend:
      case Ev::ProbeRecv:
      case Ev::ProbeAck:
        return 0;
      // The L2: fills, evictions, writebacks, SWcc flush/invalidate.
      case Ev::Fill:
      case Ev::Evict:
      case Ev::Writeback:
      case Ev::WbAck:
      case Ev::SwccFlush:
      case Ev::SwccInv:
        return 1;
      // The region table and the Fig. 7 HWcc<=>SWcc steps.
      case Ev::TableRead:
      case Ev::TableUpdate:
      case Ev::TransBegin:
      case Ev::TransStep:
      case Ev::TransEnd:
        return 2;
      // Request and response legs through the fabric.
      case Ev::MsgSend:
      case Ev::RespSend:
      case Ev::RespRecv:
        return 3;
      // Injected fabric losses and their recovery.
      case Ev::MsgDrop:
      case Ev::MsgRetransmit:
      case Ev::RetransmitExhausted:
        return 4;
      case Ev::None:
      case Ev::numEvents:
        break;
    }
    return 0;
}

} // namespace

const char *
traceGroup(Ev e)
{
    return groupNames[groupOf(e)];
}

std::string
traceGroupList()
{
    std::string out;
    for (const char *g : groupNames)
        out += std::string(g) + ",";
    return out + "all,none";
}

KindMask
parseTraceGroups(const std::string &spec)
{
    KindMask mask = 0;
    std::stringstream ss(spec);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        if (tok.empty())
            continue;
        bool known = tok == "all" || tok == "none";
        for (unsigned k = 1; k < unsigned(Ev::numEvents); ++k) {
            if (tok == "all" || tok == traceGroup(Ev(k))) {
                mask |= KindMask(1) << k;
                known = true;
            }
        }
        if (!known) {
            throw std::invalid_argument("unknown trace category '" + tok +
                                        "' (valid: " + traceGroupList() +
                                        ")");
        }
    }
    return mask;
}

int
traceTid(std::uint16_t comp)
{
    unsigned idx = FR::compIndex(comp);
    switch (FR::compKind(comp)) {
      case 1:
        return sim::TraceJsonWriter::clusterTid(idx);
      case 2:
        return sim::TraceJsonWriter::bankTid(idx);
      default:
        return sim::TraceJsonWriter::machineTid;
    }
}

void
renderRecord(sim::TraceJsonWriter &w, const sim::FlightRecorder::Record &r)
{
    Ev e = static_cast<Ev>(r.kind);
    if (e == Ev::TxnBegin || e == Ev::TxnEnd) {
        // Bank-local sequences repeat across banks; the component
        // makes the span id unique.
        std::uint64_t id = (std::uint64_t(r.comp) << 32) | r.txn;
        std::string name = FR::compName(r.comp) + " txn";
        if (e == Ev::TxnBegin)
            w.asyncBegin(id, r.tick, name, "txn");
        else
            w.asyncEnd(id, r.tick, name, "txn");
        return;
    }
    w.instant(r.tick, traceTid(r.comp), describeRecordBody(r),
              FR::evName(e));
}

} // namespace arch
