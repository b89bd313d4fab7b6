/**
 * @file
 * Interconnect timing model: pipelined split-phase cluster bus feeding
 * a two-level tree/crossbar network to the L3 banks (Section 3.1). The
 * model is arithmetic: given a departure tick and message size it
 * returns the arrival tick, enforcing per-cluster uplink/downlink and
 * per-bank port serialization with next-free counters. Latencies are
 * symmetric and constant, so point-to-point ordering is preserved —
 * the property the home-bank serialization argument relies on.
 *
 * Each hop has a *send* half and an *accept* half. The send half runs
 * at the source when the message departs and claims the source-side
 * next-free counters (_clusterUp/_bankOut) plus the ordering floors; it
 * returns the nominal arrival tick (start + serialization + latency),
 * which is always at least netLatency+1 beyond the departure — the
 * conservative-lookahead bound the window scheduler relies on. The
 * accept half runs when the routed message is delivered and claims the
 * destination-side counters (_bankIn/_clusterDown).
 */

#ifndef COHESION_ARCH_FABRIC_HH
#define COHESION_ARCH_FABRIC_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/machine_config.hh"
#include "sim/event_queue.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"

namespace arch {

class Fabric
{
  public:
    explicit Fabric(const MachineConfig &config)
        : _latency(config.netLatency),
          _bytesPerCycle(config.linkBytesPerCycle),
          _numBanks(config.numL3Banks),
          _clusterUp(config.numClusters, 0),
          _clusterDown(config.numClusters, 0),
          _bankIn(config.numL3Banks, 0),
          _bankOut(config.numL3Banks, 0),
          _c2bFloor(config.numClusters * config.numL3Banks, 0),
          _b2cFloor(config.numClusters * config.numL3Banks, 0)
    {}

    /** Minimum send-to-delivery distance of any hop: every nominal
     *  arrival is > depart + lookahead(). */
    sim::Tick lookahead() const { return _latency; }

    /**
     * Send half, cluster->bank: claim the cluster uplink and return
     * the nominal arrival tick at the bank.
     */
    sim::Tick
    c2bSend(unsigned cluster, unsigned bytes, sim::Tick depart)
    {
        sim::Tick start = std::max(depart, _clusterUp[cluster]);
        sim::Tick ser = serialization(bytes);
        _clusterUp[cluster] = start + ser;
        _bytesUp.inc(bytes);
        return start + ser + _latency;
    }

    /**
     * Accept half, cluster->bank: serialize on the bank's input port.
     * Runs at delivery; @p depart is carried from the send for the
     * delay histogram.
     * @return the tick at which the message is available at the bank.
     */
    sim::Tick
    c2bAccept(unsigned bank, sim::Tick nominal, sim::Tick depart)
    {
        sim::Tick accept = std::max(nominal, _bankIn[bank]);
        _bankIn[bank] = accept + 1; // one message accepted per cycle
        _delayUp.sample(accept - depart);
        return accept;
    }

    /** Send half, bank->cluster (see c2bSend). */
    sim::Tick
    b2cSend(unsigned bank, unsigned bytes, sim::Tick depart)
    {
        sim::Tick start = std::max(depart, _bankOut[bank]);
        sim::Tick ser = serialization(bytes);
        _bankOut[bank] = start + ser;
        _bytesDown.inc(bytes);
        return start + ser + _latency;
    }

    /** Accept half, bank->cluster (see c2bAccept). */
    sim::Tick
    b2cAccept(unsigned cluster, sim::Tick nominal, sim::Tick depart)
    {
        sim::Tick accept = std::max(nominal, _clusterDown[cluster]);
        _clusterDown[cluster] = accept + 1;
        _delayDown.sample(accept - depart);
        return accept;
    }

    /**
     * Per-(cluster,bank) delivery floors, applied to the nominal
     * arrival at send time. Baseline timing already
     * delivers each channel's messages in send order (the next-free
     * counters are monotone), but fault injection perturbs arrival
     * ticks — a delayed or retransmitted message must not overtake a
     * later send on the same channel, or the home-bank serialization
     * argument breaks (e.g. an SWcc Eviction writeback reordered after
     * a subsequent Read of the same line silently yields stale data).
     * These clamps raise each delivery to at least the previous one on
     * the same ordered channel; with faults disabled they are no-ops.
     */
    sim::Tick
    orderC2B(unsigned cluster, unsigned bank, sim::Tick arrive)
    {
        sim::Tick &floor = _c2bFloor[cluster * _numBanks + bank];
        if (arrive < floor)
            arrive = floor;
        floor = arrive + 1;
        return arrive;
    }

    sim::Tick
    orderB2C(unsigned bank, unsigned cluster, sim::Tick arrive)
    {
        sim::Tick &floor = _b2cFloor[cluster * _numBanks + bank];
        if (arrive < floor)
            arrive = floor;
        floor = arrive + 1;
        return arrive;
    }

    std::uint64_t bytesUp() const { return _bytesUp.value(); }
    std::uint64_t bytesDown() const { return _bytesDown.value(); }

    /** Depart-to-accept delay (serialization + hops + contention). */
    const sim::Histogram &delayUp() const { return _delayUp; }
    const sim::Histogram &delayDown() const { return _delayDown; }

    void
    registerStats(sim::StatRegistry &reg, const std::string &prefix) const
    {
        reg.addCounter(prefix + ".bytes_up", _bytesUp);
        reg.addCounter(prefix + ".bytes_down", _bytesDown);
        reg.addHistogram(prefix + ".delay_up", delayUp());
        reg.addHistogram(prefix + ".delay_down", delayDown());
    }

    /** Snapshot hook: every next-free counter and ordering floor
     *  shapes post-restore arrival ticks, so all of them serialize. */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("fabric");
        auto vec = [&](std::vector<sim::Tick> &v) {
            ar.expect(v.size(), "fabric shape");
            for (sim::Tick &t : v)
                ar(t);
        };
        vec(_clusterUp);
        vec(_clusterDown);
        vec(_bankIn);
        vec(_bankOut);
        vec(_c2bFloor);
        vec(_b2cFloor);
        ar(_bytesUp);
        ar(_bytesDown);
        ar(_delayUp);
        ar(_delayDown);
    }

  private:
    sim::Tick
    serialization(unsigned bytes) const
    {
        return (bytes + _bytesPerCycle - 1) / _bytesPerCycle;
    }

    sim::Tick _latency;
    unsigned _bytesPerCycle;
    unsigned _numBanks;
    std::vector<sim::Tick> _clusterUp;
    std::vector<sim::Tick> _clusterDown;
    std::vector<sim::Tick> _bankIn;
    std::vector<sim::Tick> _bankOut;
    std::vector<sim::Tick> _c2bFloor;
    std::vector<sim::Tick> _b2cFloor;
    sim::Counter _bytesUp, _bytesDown;
    sim::Histogram _delayUp, _delayDown;
};

} // namespace arch

#endif // COHESION_ARCH_FABRIC_HH
