/**
 * @file
 * GDDR5-class DRAM timing model. One channel per four L3 banks
 * (Table 3: 8 channels, 192 GB/s aggregate => 24 GB/s per channel,
 * i.e. 16 bytes per 1.5 GHz core cycle). Each channel has 16 internal
 * banks with open-row tracking: a row hit pays CAS only, a row miss
 * pays precharge + activate + CAS. The model is arithmetic (no
 * events): callers pass the request tick and receive the completion
 * tick, with per-bank and per-channel-bus availability enforced via
 * next-free counters, which is exact for the FCFS ordering the L3
 * banks generate.
 */

#ifndef COHESION_MEM_DRAM_HH
#define COHESION_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "mem/address_map.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace mem {

/** Timing parameters, in core cycles (1.5 GHz per Table 3). */
struct DramTiming
{
    sim::Tick rowHit = 22;        ///< CAS-only access.
    sim::Tick rowMiss = 52;       ///< tRP + tRCD + CAS.
    sim::Tick burst = 2;          ///< 32 B line at 16 B/cycle.
    sim::Tick writeRecovery = 8;  ///< tWR after a write burst.
};

/** One GDDR channel with open-row banks and a shared data bus. */
class DramChannel
{
  public:
    explicit DramChannel(const DramTiming &timing)
        : _timing(timing),
          _banks(AddressMap::dramBanksPerChannel)
    {}

    /**
     * Issue an access and return its data-completion tick.
     *
     * @param bank  DRAM-internal bank index within this channel.
     * @param row   Row identifier for hit/miss determination.
     * @param write True for writes (adds write recovery to the bank).
     * @param when  Earliest tick the request can start.
     */
    sim::Tick
    access(unsigned bank, std::uint32_t row, bool write, sim::Tick when)
    {
        Bank &b = _banks[bank % _banks.size()];
        sim::Tick start = std::max(when, b.nextFree);
        bool hit = b.rowValid && b.openRow == row;
        sim::Tick array_done =
            start + (hit ? _timing.rowHit : _timing.rowMiss);

        // Data transfer occupies the channel bus after the array access.
        sim::Tick xfer_start = std::max(array_done, _busNextFree);
        sim::Tick done = xfer_start + _timing.burst;
        _busNextFree = done;

        b.rowValid = true;
        b.openRow = row;
        b.nextFree = done + (write ? _timing.writeRecovery : 0);

        (hit ? _rowHits : _rowMisses).inc();
        (write ? _writes : _reads).inc();
        return done;
    }

    std::uint64_t reads() const { return _reads.value(); }
    std::uint64_t writes() const { return _writes.value(); }
    std::uint64_t rowHits() const { return _rowHits.value(); }
    std::uint64_t rowMisses() const { return _rowMisses.value(); }

    /** Snapshot hook: open-row state and next-free counters shape
     *  every post-restore access latency. */
    void
    snapshot(sim::Archive &ar)
    {
        ar.expect(_banks.size(), "DRAM bank count");
        for (Bank &b : _banks) {
            ar(b.rowValid);
            ar(b.openRow);
            ar(b.nextFree);
        }
        ar(_busNextFree);
        ar(_reads);
        ar(_writes);
        ar(_rowHits);
        ar(_rowMisses);
    }

  private:
    struct Bank
    {
        bool rowValid = false;
        std::uint32_t openRow = 0;
        sim::Tick nextFree = 0;
    };

    DramTiming _timing;
    std::vector<Bank> _banks;
    sim::Tick _busNextFree = 0;

    sim::Counter _reads, _writes, _rowHits, _rowMisses;
};

/** The full memory system: one channel per AddressMap channel. */
class DramModel
{
  public:
    DramModel(const AddressMap &map, const DramTiming &timing = {})
        : _map(map)
    {
        for (unsigned c = 0; c < map.numChannels(); ++c)
            _channels.emplace_back(timing);
    }

    /** Access the line containing @p a; returns completion tick. */
    sim::Tick
    access(Addr a, bool write, sim::Tick when)
    {
        DramChannel &ch = _channels[_map.channelOf(a)];
        return ch.access(_map.dramBankOf(a), _map.dramRowOf(a), write, when);
    }

    const DramChannel &channel(unsigned c) const { return _channels.at(c); }
    unsigned numChannels() const { return _channels.size(); }

    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("dram");
        ar.expect(_channels.size(), "DRAM channel count");
        for (DramChannel &c : _channels)
            ar(c);
    }

    /** Aggregate accesses across channels (diagnostics). */
    std::uint64_t
    totalAccesses() const
    {
        std::uint64_t n = 0;
        for (const auto &c : _channels)
            n += c.reads() + c.writes();
        return n;
    }

  private:
    const AddressMap &_map;
    std::vector<DramChannel> _channels;
};

} // namespace mem

#endif // COHESION_MEM_DRAM_HH
