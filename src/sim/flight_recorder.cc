#include "sim/flight_recorder.hh"

#include <bit>
#include <cstring>

namespace sim {

namespace {

constexpr char kMagic[4] = {'C', 'F', 'R', '1'};

struct DumpHeader
{
    char magic[4];
    std::uint16_t version;
    std::uint16_t recordBytes;
    std::uint64_t totalRecorded;
    std::uint64_t storedCount;
};
static_assert(sizeof(DumpHeader) == 24);

} // namespace

void
FlightRecorder::enable(std::uint32_t capacity)
{
    std::uint32_t cap =
        std::bit_ceil(std::max<std::uint32_t>(capacity, minCapacity));
    _ring.assign(cap, Record{});
    _mask = cap - 1;
    _next = 0;
}

void
FlightRecorder::disable()
{
    _ring.clear();
    _ring.shrink_to_fit();
    _mask = 0;
    _next = 0;
}

std::string
FlightRecorder::compName(std::uint16_t c)
{
    switch (compKind(c)) {
      case 0:
        return "chip";
      case 1:
        return "cluster" + std::to_string(compIndex(c));
      case 2:
        return "bank" + std::to_string(compIndex(c));
      default:
        return "comp" + std::to_string(c);
    }
}

std::string
FlightRecorder::serialize() const
{
    DumpHeader h{};
    std::memcpy(h.magic, kMagic, 4);
    h.version = 1;
    h.recordBytes = sizeof(Record);
    h.totalRecorded = _next;
    h.storedCount = size();

    std::string out;
    out.reserve(sizeof(h) + h.storedCount * sizeof(Record));
    out.append(reinterpret_cast<const char *>(&h), sizeof(h));
    forEach([&](const Record &r) {
        out.append(reinterpret_cast<const char *>(&r), sizeof(r));
    });
    return out;
}

bool
FlightRecorder::deserialize(std::string_view bytes, std::vector<Record> *out,
                            std::string *err, std::uint64_t *total_recorded)
{
    auto fail = [&](const char *why) {
        if (err)
            *err = why;
        return false;
    };
    if (bytes.size() < sizeof(DumpHeader))
        return fail("dump truncated before header");
    DumpHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    if (std::memcmp(h.magic, kMagic, 4) != 0)
        return fail("bad magic (not a flight-recorder dump)");
    if (h.version != 1)
        return fail("unsupported dump version");
    if (h.recordBytes != sizeof(Record))
        return fail("record size mismatch (dump from another build?)");
    std::size_t need = sizeof(h) + h.storedCount * sizeof(Record);
    if (bytes.size() < need)
        return fail("dump truncated: fewer records than header claims");
    out->resize(h.storedCount);
    if (h.storedCount)
        std::memcpy(out->data(), bytes.data() + sizeof(h),
                    h.storedCount * sizeof(Record));
    if (total_recorded)
        *total_recorded = h.totalRecorded;
    return true;
}

void
FlightRecorder::snapshot(Archive &ar)
{
    ar.tag("recorder");
    std::uint32_t cap = capacity();
    ar.count(cap);
    std::uint64_t next = _next;
    ar(next);
    if (ar.loading()) {
        if (cap == 0) {
            disable();
        } else if (!std::has_single_bit(cap) || cap < minCapacity) {
            throw SnapshotError(
                "snapshot corrupt: recorder capacity not a power of two");
        } else {
            enable(cap);
        }
        _next = next;
    }
    if (!enabled())
        return;
    // Full ring in slot order: the masked-store cursor lands on the
    // same slots after restore, so post-restore history splices onto
    // pre-checkpoint history exactly.
    ar.bytes(_ring.data(), _ring.size() * sizeof(Record));
}

const char *
FlightRecorder::evName(Ev e)
{
    switch (e) {
      case Ev::None:          return "none";
      case Ev::MsgSend:       return "msg.send";
      case Ev::MsgRecv:       return "msg.recv";
      case Ev::MsgDrop:       return "msg.drop";
      case Ev::MsgRetransmit: return "msg.retransmit";
      case Ev::RespSend:      return "resp.send";
      case Ev::RespRecv:      return "resp.recv";
      case Ev::ProbeSend:     return "probe.send";
      case Ev::ProbeRecv:     return "probe.recv";
      case Ev::ProbeAck:      return "probe.ack";
      case Ev::DirInsert:     return "dir.insert";
      case Ev::DirState:      return "dir.state";
      case Ev::DirErase:      return "dir.erase";
      case Ev::SwccFlush:     return "swcc.flush";
      case Ev::SwccInv:       return "swcc.inv";
      case Ev::Writeback:     return "writeback";
      case Ev::WbAck:         return "writeback.ack";
      case Ev::Fill:          return "fill";
      case Ev::Evict:         return "evict";
      case Ev::TableRead:     return "table.read";
      case Ev::TableUpdate:   return "table.update";
      case Ev::TransBegin:    return "trans.begin";
      case Ev::TransStep:     return "trans.step";
      case Ev::TransEnd:      return "trans.end";
      case Ev::TxnBegin:      return "txn.begin";
      case Ev::TxnEnd:        return "txn.end";
      case Ev::RetransmitExhausted: return "msg.retransmit-exhausted";
      case Ev::numEvents:     break;
    }
    return "unknown";
}

const char *
FlightRecorder::stepName(Step s)
{
    switch (s) {
      case Step::Recall:       return "recall";
      case Step::Broadcast:    return "broadcast-cleanquery";
      case Step::CleanSharer:  return "clean-sharer-joins";
      case Step::MakeOwner:    return "make-owner";
      case Step::Invalidate:   return "invalidate-copy";
      case Step::WritebackInv: return "writeback-invalidate";
      case Step::Merge:        return "merge-dirty-words";
      case Step::Conflict:     return "merge-conflict";
      case Step::Commit:       return "commit-table-bit";
    }
    return "step?";
}

} // namespace sim
