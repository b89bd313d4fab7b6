/**
 * @file
 * Generic set-associative cache array with LRU replacement, real data
 * storage, per-word valid/dirty masks (required by the SWcc protocol's
 * write-allocate-without-fetch stores and by the L3's merge of
 * disjoint multi-writer lines), the MSI state used in the HWcc domain,
 * and the Cohesion incoherent bit. Used for L1I, L1D, the cluster L2,
 * and the L3 banks.
 */

#ifndef COHESION_CACHE_CACHE_ARRAY_HH
#define COHESION_CACHE_CACHE_ARRAY_HH

#include <array>
#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace cache {

/**
 * Line-granular coherence state used in the HWcc domain.
 *
 * MSI is the paper's protocol (Section 3.2: E omitted "due to the high
 * cost of exclusive to shared downgrades for read-shared data");
 * Exclusive exists as a configurable extension so that decision can be
 * quantified (MachineConfig::useMesi, ablation 5).
 */
enum class CohState : std::uint8_t { Invalid, Shared, Exclusive, Modified };
constexpr unsigned numCohStates = 4;

const char *cohStateName(CohState s);

/** One cache line: tag, state bits, masks, and a copy of the data. */
struct Line
{
    bool valid = false;
    mem::Addr base = 0;               ///< Line base address (tag).
    CohState hwState = CohState::Invalid;
    bool incoherent = false;          ///< Cohesion incoherent (SWcc) bit.
    mem::WordMask validMask = 0;      ///< Per-word valid bits.
    mem::WordMask dirtyMask = 0;      ///< Per-word dirty bits.
    std::uint64_t lruStamp = 0;
    std::array<std::uint8_t, mem::lineBytes> data{};

    bool dirty() const { return dirtyMask != 0; }

    /** Drop all state (silent invalidation). */
    void
    reset()
    {
        valid = false;
        hwState = CohState::Invalid;
        incoherent = false;
        validMask = 0;
        dirtyMask = 0;
    }

    /** Read @p bytes (within this line) at @p a into @p out. */
    void
    read(mem::Addr a, void *out, unsigned bytes) const
    {
        panic_if(mem::lineBase(a) != base, "line read of foreign address");
        std::memcpy(out, data.data() + (a - base), bytes);
    }

    /** Write @p bytes at @p a, setting valid+dirty bits for the words. */
    void
    write(mem::Addr a, const void *src, unsigned bytes)
    {
        panic_if(mem::lineBase(a) != base, "line write of foreign address");
        std::memcpy(data.data() + (a - base), src, bytes);
        mem::WordMask m = mem::wordMaskFor(a, bytes);
        validMask |= m;
        dirtyMask |= m;
    }

    /**
     * Fill words from @p src (a full line image) for every word in
     * @p mask that is not already valid locally; never clobbers
     * locally written (dirty) words. Used when a fill response arrives
     * after the core already stored into the allocated line.
     */
    void
    fill(const std::uint8_t *src, mem::WordMask mask)
    {
        for (unsigned w = 0; w < mem::wordsPerLine; ++w) {
            mem::WordMask bit = mem::WordMask(1u << w);
            if ((mask & bit) && !(validMask & bit)) {
                std::memcpy(data.data() + w * mem::wordBytes,
                            src + w * mem::wordBytes, mem::wordBytes);
                validMask |= bit;
            }
        }
    }

    /** Fault injection: xor one bit of the line's data image. Does
     *  not touch the masks — a silent single-event upset. */
    void
    flipDataBit(unsigned bit)
    {
        bit %= mem::lineBytes * 8;
        data[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    }

    /** Fault injection: xor one metadata bit — the first wordsPerLine
     *  indices address the dirty mask, the rest the valid mask. */
    void
    flipMetaBit(unsigned bit)
    {
        bit %= 2 * mem::wordsPerLine;
        if (bit < mem::wordsPerLine)
            dirtyMask ^= mem::WordMask(1u << bit);
        else
            validMask ^= mem::WordMask(1u << (bit - mem::wordsPerLine));
    }

    /**
     * Merge the words selected by @p mask from @p src into this line,
     * marking them valid and dirty. Used by the L3 to merge disjoint
     * write sets from multiple SWcc writers (Fig. 7b, case 4b).
     */
    void
    merge(const std::uint8_t *src, mem::WordMask mask)
    {
        for (unsigned w = 0; w < mem::wordsPerLine; ++w) {
            if (mask & (1u << w)) {
                std::memcpy(data.data() + w * mem::wordBytes,
                            src + w * mem::wordBytes, mem::wordBytes);
            }
        }
        validMask |= mask;
        dirtyMask |= mask;
    }
};

/** Set-associative tag/data array with true-LRU replacement. */
class CacheArray
{
  public:
    /**
     * @param name        Diagnostic name.
     * @param size_bytes  Total capacity (power of two).
     * @param assoc       Ways per set; clamped to the number of lines.
     */
    CacheArray(std::string name, std::uint32_t size_bytes, unsigned assoc)
        : _name(std::move(name))
    {
        fatal_if(size_bytes < mem::lineBytes, _name,
                 ": cache smaller than a line");
        fatal_if(!std::has_single_bit(size_bytes), _name,
                 ": cache size must be a power of two");
        std::uint32_t lines = size_bytes / mem::lineBytes;
        _assoc = assoc < lines ? assoc : lines;
        fatal_if(lines % _assoc != 0, _name,
                 ": lines not divisible by associativity");
        _numSets = lines / _assoc;
        fatal_if(!std::has_single_bit(_numSets), _name,
                 ": set count must be a power of two");
        _lines.resize(lines);
    }

    const std::string &name() const { return _name; }
    unsigned assoc() const { return _assoc; }
    std::uint32_t numSets() const { return _numSets; }
    std::uint32_t capacityBytes() const
    {
        return _lines.size() * mem::lineBytes;
    }

    /** Set index for a line base address. */
    std::uint32_t
    setIndex(mem::Addr base) const
    {
        return (base >> mem::lineShift) & (_numSets - 1);
    }

    /** Find the valid line holding @p base, or nullptr. */
    Line *
    probe(mem::Addr base)
    {
        base = mem::lineBase(base);
        Line *set = &_lines[setIndex(base) * _assoc];
        for (unsigned w = 0; w < _assoc; ++w) {
            if (set[w].valid && set[w].base == base)
                return &set[w];
        }
        return nullptr;
    }

    const Line *
    probe(mem::Addr base) const
    {
        return const_cast<CacheArray *>(this)->probe(base);
    }

    /** Mark @p line most-recently used. */
    void touch(Line &line) { line.lruStamp = ++_lruClock; }

    /**
     * Pick the replacement victim in @p base's set: an invalid way if
     * one exists, otherwise the LRU way. The caller must clean up a
     * valid victim (writeback / directory notification) and then call
     * claim() to install the new tag.
     */
    Line &
    victim(mem::Addr base)
    {
        base = mem::lineBase(base);
        Line *set = &_lines[setIndex(base) * _assoc];
        Line *best = &set[0];
        for (unsigned w = 0; w < _assoc; ++w) {
            if (!set[w].valid)
                return set[w];
            if (set[w].lruStamp < best->lruStamp)
                best = &set[w];
        }
        return *best;
    }

    /** Install @p base into @p line (which must already be clean). */
    void
    claim(Line &line, mem::Addr base)
    {
        panic_if(line.valid, "claiming a line that is still valid");
        line.reset();
        line.valid = true;
        line.base = mem::lineBase(base);
        touch(line);
    }

    /** First line of @p base's set (the set spans assoc() lines). */
    Line *
    setFor(mem::Addr base)
    {
        return &_lines[setIndex(mem::lineBase(base)) * _assoc];
    }

    /** Apply @p fn to every valid line (e.g., broadcast clean scans). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (auto &line : _lines) {
            if (line.valid)
                fn(line);
        }
    }

    /** Number of currently valid lines. */
    std::uint32_t
    validLines() const
    {
        std::uint32_t n = 0;
        for (const auto &line : _lines)
            n += line.valid ? 1 : 0;
        return n;
    }

    /** The (n mod validLines())-th valid line in array order, or
     *  nullptr when the array is empty (fault-pump victim pick). */
    Line *
    nthValidLine(std::uint64_t n)
    {
        std::uint32_t count = validLines();
        if (count == 0)
            return nullptr;
        std::uint64_t want = n % count;
        for (auto &line : _lines) {
            if (line.valid && want-- == 0)
                return &line;
        }
        return nullptr; // unreachable
    }

    /** Invalidate everything (test support). */
    void
    flushAll()
    {
        for (auto &line : _lines)
            line.reset();
    }

    /** Snapshot hook: every line (tags, states, masks, data, LRU
     *  stamps) plus the LRU clock, field by field — no struct memcpy,
     *  so padding bytes never leak into snapshots. */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("cache:" + _name);
        ar.expect(_lines.size(), "line count");
        ar(_lruClock);
        for (Line &l : _lines) {
            ar(l.valid);
            ar(l.base);
            ar.below(l.hwState, numCohStates);
            ar(l.incoherent);
            ar(l.validMask);
            ar(l.dirtyMask);
            ar(l.lruStamp);
            ar.bytes(l.data.data(), l.data.size());
        }
    }

  private:
    std::string _name;
    unsigned _assoc;
    std::uint32_t _numSets;
    std::vector<Line> _lines;
    std::uint64_t _lruClock = 0;
};

} // namespace cache

#endif // COHESION_CACHE_CACHE_ARRAY_HH
