/**
 * @file
 * Always-on flight recorder: a fixed-size ring of compact binary
 * protocol events (message send/recv/drop, directory transitions,
 * SWcc flush/invalidate/writeback, table reads, Fig. 7 transition
 * steps). Each record carries the tick, the emitting component, the
 * line base address, and a causal id (the cluster's msgId or the
 * bank's transaction sequence number), so the lifetime of one line
 * reconstructs as a chain without replaying the run.
 *
 * The recorder follows the PR 3 event-pool discipline: storage is
 * allocated once at enable() and never grows; record() is a masked
 * store into the ring; the disabled path is a single byte test at the
 * emit site (Chip::rec). Decoding protocol enums into text lives in
 * the arch layer (arch/flight_decode.hh) so this header stays free of
 * protocol knowledge.
 */

#ifndef COHESION_SIM_FLIGHT_RECORDER_HH
#define COHESION_SIM_FLIGHT_RECORDER_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_queue.hh"

namespace sim {

class FlightRecorder
{
  public:
    /** Event kinds. Kept generic here; protocol-specific payloads ride
     *  in the a/b arguments and are decoded by arch/flight_decode. */
    enum class Ev : std::uint8_t {
        None = 0,
        MsgSend,    ///< cluster -> bank request left the L2. a=ReqType,
                    ///< b=MsgClass, txn=msgId.
        MsgRecv,    ///< request arrived at the home bank. a=ReqType,
                    ///< b=cluster, txn=msgId.
        MsgDrop,    ///< fabric dropped one copy. a=ReqType, b=drop #.
        MsgRetransmit, ///< delivery after >=1 drops. a=ReqType, b=drops.
        RespSend,   ///< bank -> cluster response sent. a=ReqType,
                    ///< b=flags (respIncoherent|respGrant), txn=msgId.
        RespRecv,   ///< response arrived at the cluster. txn=msgId.
        ProbeSend,  ///< bank sent a probe. a=ProbeType, b=target cluster.
        ProbeRecv,  ///< probe applied at the cluster. a=ProbeType,
                    ///< b=result flags (probeFound|probeDirty).
        ProbeAck,   ///< probe response arrived back at the bank.
        DirInsert,  ///< directory entry allocated. a=CohState, b=cluster.
        DirState,   ///< directory state change. a=new CohState, b=sharers.
        DirErase,   ///< directory entry dropped.
        SwccFlush,  ///< software flush wrote back dirty words. a=mask.
        SwccInv,    ///< software invalidate dropped the L2 copy.
        Writeback,  ///< dirty data left an L2 (evict/release). a=mask.
        WbAck,      ///< writeback acknowledged at the cluster.
        Fill,       ///< response data installed in the L2. a=flags.
        Evict,      ///< L2 victimized the line. a=flags (fillIncoherent
                    ///< if SWcc, evictDirty if it carried data).
        TableRead,  ///< fine-table bit consulted. a=bit, b=source
                    ///< (tableFromCache / tableFromMem).
        TableUpdate,///< fine-table bit committed. a=new bit.
        TransBegin, ///< Fig. 7 transition started. a=1 for ->SWcc.
        TransStep,  ///< one protocol step; a=Step below.
        TransEnd,   ///< transition committed for this line.
        TxnBegin,   ///< bank transaction opened. txn=bank seq, b=msgId.
        TxnEnd,     ///< bank transaction retired. txn=bank seq.
        RetransmitExhausted, ///< drop-retransmit budget spent; message
                             ///< force-delivered. a=ReqType, b=drops.
        numEvents,
    };

    /** TransStep sub-codes (Record::a). */
    enum class Step : std::uint8_t {
        Recall = 0,     ///< Fig. 7a: recall sharers / owner, erase dir.
        Broadcast,      ///< Fig. 7b: CleanQuery broadcast issued.
        CleanSharer,    ///< 1b/2b: clean copy joins the new dir entry.
        MakeOwner,      ///< 3b: single dirty copy becomes M in place.
        Invalidate,     ///< 4b/5b: reader copy invalidated.
        WritebackInv,   ///< 4b/5b: dirty copy written back + invalidated.
        Merge,          ///< dirty words merged into the home line.
        Conflict,       ///< overlapping dirty words from two writers.
        Commit,         ///< table bit written, transition visible.
    };

    // Flag bits for Record::a / Record::b payloads.
    static constexpr std::uint8_t respIncoherent = 1; ///< SWcc fill.
    static constexpr std::uint8_t respGrant = 2;      ///< exclusive grant.
    static constexpr std::uint8_t probeFound = 1;
    static constexpr std::uint8_t probeDirty = 2;
    static constexpr std::uint8_t evictDirty = 2;
    static constexpr std::uint32_t tableFromMem = 0;
    static constexpr std::uint32_t tableFromCache = 1;

    /** One ring slot. 24 bytes, trivially copyable; the dump format is
     *  these records memcpy'd verbatim behind a small header. */
    struct Record
    {
        std::uint64_t tick = 0;
        std::uint32_t line = 0; ///< line base address
        std::uint32_t txn = 0;  ///< causal id (msgId or bank txn seq)
        std::uint16_t comp = 0; ///< component path, see compCluster()
        std::uint8_t kind = 0;  ///< Ev
        std::uint8_t a = 0;     ///< small payload (enum / mask / flags)
        std::uint32_t b = 0;    ///< wide payload (cluster, msgId, word)
    };
    static_assert(sizeof(Record) == 24, "keep ring slots compact");

    // --- Component path encoding (Record::comp) ----------------------

    static constexpr std::uint16_t compChip = 0;
    static std::uint16_t compCluster(unsigned i)
    {
        return static_cast<std::uint16_t>(0x1000 | (i & 0xFFF));
    }
    static std::uint16_t compBank(unsigned i)
    {
        return static_cast<std::uint16_t>(0x2000 | (i & 0xFFF));
    }
    static unsigned compKind(std::uint16_t c) { return c >> 12; }
    static unsigned compIndex(std::uint16_t c) { return c & 0xFFF; }
    static std::string compName(std::uint16_t c);

    // --- Recording ----------------------------------------------------

    static constexpr std::uint32_t minCapacity = 16;

    /**
     * Allocate a ring of @p capacity records (rounded up to a power of
     * two, minimum minCapacity). The one and only allocation;
     * re-enabling with a different capacity restarts the ring.
     */
    void enable(std::uint32_t capacity);
    void disable();

    bool enabled() const { return _mask != 0; }
    std::uint32_t capacity() const { return _mask ? _mask + 1 : 0; }

    /** Total records ever written (wrapped ones included). */
    std::uint64_t recorded() const { return _next; }

    /** Records currently held in the ring. */
    std::uint32_t
    size() const
    {
        std::uint64_t cap = capacity();
        return static_cast<std::uint32_t>(_next < cap ? _next : cap);
    }

    void
    record(Tick tick, Ev kind, std::uint16_t comp, std::uint32_t line,
           std::uint32_t txn, std::uint8_t a, std::uint32_t b)
    {
        Record &r = _ring[static_cast<std::size_t>(_next) & _mask];
        ++_next;
        r.tick = tick;
        r.line = line;
        r.txn = txn;
        r.comp = comp;
        r.kind = static_cast<std::uint8_t>(kind);
        r.a = a;
        r.b = b;
    }

    /** Visit retained records oldest-first. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        std::uint64_t cap = capacity();
        std::uint64_t first = _next < cap ? 0 : _next - cap;
        for (std::uint64_t i = first; i < _next; ++i)
            f(_ring[static_cast<std::size_t>(i) & _mask]);
    }

    // --- Binary dump format -------------------------------------------

    /**
     * Serialize the retained records oldest-first: a 24-byte header
     * (magic "CFR1", version, record size, total recorded, stored
     * count) followed by raw Record structs. Deterministic for a
     * deterministic run, so dumps compare byte-for-byte across
     * --jobs values.
     */
    std::string serialize() const;

    /** Parse a serialize()d blob. Returns false and sets @p err on a
     *  bad magic/version/size; @p total_recorded may be null. */
    static bool deserialize(std::string_view bytes,
                            std::vector<Record> *out, std::string *err,
                            std::uint64_t *total_recorded = nullptr);

    /** Stable lowercase name for an event kind ("msg.send", ...). */
    static const char *evName(Ev e);
    static const char *stepName(Step s);

    /**
     * Snapshot hook: the ring contents and write cursor resume so a
     * restored machine's post-mortem history is seamless across the
     * snapshot boundary. Restore re-allocates the ring at the
     * checkpointed capacity (overriding any enable() done before).
     */
    void snapshot(Archive &ar);

  private:
    std::vector<Record> _ring;
    std::uint64_t _next = 0;
    std::uint32_t _mask = 0;
};

} // namespace sim

#endif // COHESION_SIM_FLIGHT_RECORDER_HH
