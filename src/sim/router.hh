/**
 * @file
 * The chip's component-to-component mailbox. Every message that crosses
 * a component boundary (requests, responses, both probe legs, barrier
 * wakeups) is posted here rather than scheduled directly, and reaches
 * the event queue only when the run loop flushes it at the start of a
 * lookahead window. Delivery is in canonical (tick, srcKey, srcSeq)
 * order: a pure function of the simulation, fixed by the per-source
 * sequence numbers, so same-tick deliveries never depend on the order
 * the senders happened to run in (DESIGN.md §13).
 */

#ifndef COHESION_SIM_ROUTER_HH
#define COHESION_SIM_ROUTER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"

namespace sim {

class Router
{
  public:
    /** @p num_src_keys: one key per message source (clusters, banks,
     *  plus singleton sources like the runtime barrier); per-key
     *  sequence numbers break same-tick ties deterministically. */
    explicit Router(unsigned num_src_keys) : _seq(num_src_keys, 0) {}

    /** Post @p cb from source @p src_key for delivery at @p when. */
    void
    post(unsigned src_key, Tick when, Event cb)
    {
        _heap.push_back(Msg{when, src_key, _seq[src_key]++, std::move(cb)});
        std::push_heap(_heap.begin(), _heap.end(), Later{});
    }

    /** Earliest pending delivery (maxTick when none). */
    Tick head() const { return _heap.empty() ? maxTick : _heap.front().when; }

    /** Schedule every message due at or before @p stop into @p eq, in
     *  canonical order. Runs at window start. */
    void
    flush(Tick stop, EventQueue &eq)
    {
        while (!_heap.empty() && _heap.front().when <= stop) {
            std::pop_heap(_heap.begin(), _heap.end(), Later{});
            Msg m = std::move(_heap.back());
            _heap.pop_back();
            eq.schedule(m.when, std::move(m.cb));
        }
    }

    /** No message pending: part of the quiescence condition. */
    bool empty() const { return _heap.empty(); }

  private:
    struct Msg
    {
        Tick when;
        unsigned srcKey;
        std::uint64_t srcSeq;
        Event cb;
    };

    /** Heap comparator: the (when, srcKey, srcSeq)-smallest in front. */
    struct Later
    {
        bool
        operator()(const Msg &a, const Msg &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.srcKey != b.srcKey)
                return a.srcKey > b.srcKey;
            return a.srcSeq > b.srcSeq;
        }
    };

    std::vector<std::uint64_t> _seq; ///< Per-source sequence.
    std::vector<Msg> _heap;          ///< Min-heap (Later).
};

} // namespace sim

#endif // COHESION_SIM_ROUTER_HH
