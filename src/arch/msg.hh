/**
 * @file
 * Message taxonomy at the L2 -> L3 boundary. The eight classes are
 * exactly the legend of the paper's Figures 2 and 8; every message a
 * cluster cache sends toward the L3/directory is accounted to one of
 * them. Sizes feed the interconnect serialization model.
 */

#ifndef COHESION_ARCH_MSG_HH
#define COHESION_ARCH_MSG_HH

#include <array>
#include <cstdint>
#include <string>

#include "mem/types.hh"
#include "sim/stats.hh"

namespace arch {

/** L2 output message classes (Fig. 2 / Fig. 8 legend). */
enum class MsgClass : std::uint8_t {
    ReadRequest,        ///< Data load misses.
    WriteRequest,       ///< Store misses / ownership upgrades.
    InstructionRequest, ///< L2 instruction fetch misses.
    UncachedAtomic,     ///< Atomic RMW and uncached operations.
    CacheEviction,      ///< Dirty-line capacity writebacks.
    SoftwareFlush,      ///< Explicit SWcc writeback instructions.
    ReadRelease,        ///< HWcc notification of clean evictions.
    ProbeResponse,      ///< Replies to directory probes/broadcasts.
    NumClasses
};

constexpr unsigned numMsgClasses =
    static_cast<unsigned>(MsgClass::NumClasses);

const char *msgClassName(MsgClass c);

/** Wire sizes: 8-byte header, 4 bytes per carried data word. */
constexpr unsigned msgHeaderBytes = 8;

inline unsigned
msgBytes(unsigned data_words)
{
    return msgHeaderBytes + data_words * mem::wordBytes;
}

/** Per-cluster counters of L2 output messages by class. */
class MsgCounters
{
  public:
    void
    count(MsgClass c, std::uint64_t n = 1)
    {
        _counts[static_cast<unsigned>(c)] += n;
    }

    std::uint64_t
    get(MsgClass c) const
    {
        return _counts[static_cast<unsigned>(c)];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (auto v : _counts)
            t += v;
        return t;
    }

    void
    merge(const MsgCounters &other)
    {
        for (unsigned i = 0; i < numMsgClasses; ++i)
            _counts[i] += other._counts[i];
    }

    void exportTo(sim::StatSet &out, const std::string &prefix) const;

    void snapshot(sim::Archive &ar) { ar(_counts); }

  private:
    std::array<std::uint64_t, numMsgClasses> _counts{};
};

/** Atomic read-modify-write operations executed at the L3 banks. */
enum class AtomicOp : std::uint8_t {
    AddU32, ///< Fetch-and-add (unsigned).
    AddF32, ///< Fetch-and-add (float) for reductions.
    MinF32, ///< Fetch-and-min (float).
    Or,     ///< Fetch-and-or (fine-table updates use this).
    And,    ///< Fetch-and-and (fine-table updates use this).
    Xchg,   ///< Exchange.
    Cas     ///< Compare-and-swap (operand2 = expected).
};

} // namespace arch

#endif // COHESION_ARCH_MSG_HH
