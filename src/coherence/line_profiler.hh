/**
 * @file
 * Per-line sharing-pattern profiler (the Figs. 4-5 characterization).
 *
 * Consumes the same event stream the flight recorder sees and folds
 * it into per-line access summaries: which clusters read and wrote a
 * line, how often ownership changed hands, and how many HWcc<=>SWcc
 * transitions it suffered. At report time each line is classified
 * into one of five sharing patterns and the results are exported as
 * class counts (overall and per coarse region kind) plus a top-N
 * contended-lines table — the telemetry a future adaptive HWcc/SWcc
 * placement policy would consume.
 */

#ifndef COHESION_COHERENCE_LINE_PROFILER_HH
#define COHESION_COHERENCE_LINE_PROFILER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/protocol.hh"
#include "cohesion/region_table.hh"
#include "mem/types.hh"
#include "sim/flat_table.hh"
#include "sim/flight_recorder.hh"
#include "sim/stat_registry.hh"

namespace coherence {

class LineProfiler
{
  public:
    /** Sharing-pattern classes, in classification precedence order. */
    enum class Pattern : std::uint8_t {
        TransitionChurn,  ///< bounced between HWcc and SWcc repeatedly
        Private,          ///< touched by a single cluster
        ReadShared,       ///< multiple clusters, no writer
        Migratory,        ///< every sharer both reads and writes; the
                          ///< line follows the computation around
        ProducerConsumer, ///< distinct writer and reader cluster sets
        numPatterns,
    };
    static constexpr unsigned numPatterns =
        static_cast<unsigned>(Pattern::numPatterns);
    static const char *patternName(Pattern p);

    /** Transitions at or above this count classify as churn. */
    static constexpr std::uint32_t churnThreshold = 4;

    struct LineStats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t writebacks = 0; ///< dirty data merged at the bank
        std::uint64_t flushes = 0;    ///< SWcc software flushes
        std::uint64_t probes = 0;     ///< invalidations/recalls it cost
        std::uint32_t transitions = 0;
        std::uint32_t conflicts = 0;  ///< multi-writer merge overlaps
        std::uint32_t ownerChanges = 0;
        // Cluster sets as 128-bit masks (paper machine: 128 clusters);
        // wider machines alias modulo 128, which only ever
        // under-reports "private".
        std::uint64_t readers[2] = {0, 0};
        std::uint64_t writers[2] = {0, 0};
        std::uint16_t lastWriter = 0xFFFF;

        unsigned sharerCount() const;
        unsigned writerCount() const;
        unsigned readerCount() const;

        /** Contention score used for the top-N ranking. */
        std::uint64_t
        score() const
        {
            return reads + 2 * writes + 4 * probes + 16 * transitions;
        }
    };

    explicit LineProfiler(const cohesion::CoarseRegionTable &regions,
                          unsigned top_n = 8)
        : _regions(regions), _topN(top_n)
    {}

    /** Fold one recorder event into the per-line summaries. Called
     *  from Chip's emit helper; kinds it does not care about are
     *  ignored. */
    void observe(sim::FlightRecorder::Ev kind, mem::Addr line,
                 std::uint8_t a, std::uint32_t b);

    Pattern classify(const LineStats &s) const;

    std::size_t linesTracked() const { return _lines.size(); }
    unsigned topN() const { return _topN; }

    const LineStats *
    find(mem::Addr line) const
    {
        std::uint32_t s = _index.find(line);
        return s == sim::noSlot ? nullptr : &_lines[s];
    }

    /** Coarse region kind name for @p line ("code", "stack",
     *  "immutable", "other") or "heap" when unmapped. */
    std::string regionName(mem::Addr line) const;

    /**
     * Export under @p prefix: `<prefix>.tracked`, per-class counts
     * (`<prefix>.class.<name>`), per-region class counts
     * (`<prefix>.region.<region>.<name>`), and the top-N contended
     * lines (`<prefix>.top<i>.{addr,reads,writes,sharers,transitions,
     * score,pattern}`), ranked by score desc then address asc so the
     * table is deterministic. Only lines with at least two sharers or
     * one domain transition qualify as "contended".
     */
    void registerStats(sim::StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** @p line's summary, created zeroed on first touch. */
    LineStats &stats(mem::Addr line);

    std::vector<LineStats> _lines;  ///< in first-touch order
    std::vector<mem::Addr> _bases;  ///< _lines[i]'s line base
    sim::FlatIndex _index;          ///< line -> i
    const cohesion::CoarseRegionTable &_regions;
    unsigned _topN;
};

} // namespace coherence

#endif // COHESION_COHERENCE_LINE_PROFILER_HH
