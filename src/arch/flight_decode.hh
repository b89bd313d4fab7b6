/**
 * @file
 * Human-readable decoding of flight-recorder records. Lives in the
 * arch layer so sim/flight_recorder stays free of protocol knowledge:
 * the a/b payloads are interpreted here against ReqType, ProbeType,
 * MsgClass and the Fig. 7 transition steps.
 *
 * The decoder also defines the two views of the record stream (DESIGN
 * §10): the --trace groups the text narration filters by, and the one
 * Chrome trace-event rendering shared by cohesion-sim --trace-json and
 * cohesion-trace --perfetto.
 */

#ifndef COHESION_ARCH_FLIGHT_DECODE_HH
#define COHESION_ARCH_FLIGHT_DECODE_HH

#include <cstdint>
#include <string>

#include "sim/flight_recorder.hh"

namespace sim {
class TraceJsonWriter;
}

namespace arch {

/** One-line narrative for @p r, e.g.
 *  "t=1204 bank3 msg.recv WrReq line 0x1a40 cluster2 msg#17". */
std::string describeRecord(const sim::FlightRecorder::Record &r);

/** The narrative without the leading "t=<tick> " stamp. */
std::string describeRecordBody(const sim::FlightRecorder::Record &r);

// --- --trace groups -------------------------------------------------

/** Mask of record kinds: bit k stands for FlightRecorder::Ev k. */
using KindMask = std::uint32_t;
static_assert(static_cast<unsigned>(sim::FlightRecorder::Ev::numEvents) <=
                  32,
              "every record kind needs a bit in KindMask");

/** The --trace group of @p e: "protocol", "cache", "transition", "net"
 *  or "fault". Every kind belongs to exactly one group. */
const char *traceGroup(sim::FlightRecorder::Ev e);

/** The accepted --trace names, comma-separated (for messages). */
std::string traceGroupList();

/** Parse "protocol,cache,..." (or "all" / "none") into the kinds of
 *  the named groups. Throws std::invalid_argument naming the valid
 *  groups on an unknown name. */
KindMask parseTraceGroups(const std::string &spec);

// --- Chrome trace-event rendering -------------------------------------

/** The trace track (tid) of recorder component @p comp. */
int traceTid(std::uint16_t comp);

/**
 * Render @p r into @p w. TxnBegin and TxnEnd open and close the async
 * span of bank transaction (component, sequence); every other kind is
 * an instant on its component's track, named by describeRecordBody and
 * categorized by its event name.
 */
void renderRecord(sim::TraceJsonWriter &w,
                  const sim::FlightRecorder::Record &r);

} // namespace arch

#endif // COHESION_ARCH_FLIGHT_DECODE_HH
