/**
 * @file
 * Structured comparison of two statistics documents (the JSON trees
 * written by --stats-json, or whole sweep-results files). This is the
 * regression harness the backend-ablation and golden gates diff
 * against: flatten both documents to dotted scalar paths, compare
 * under per-stat absolute/relative tolerances, and report every
 * added, removed and changed stat.
 *
 * Host-side self-observation (`host.*` subtrees, per-job `wall_sec`)
 * is nondeterministic by nature; paths matching the ignore list are
 * skipped so "byte-identical modulo host time" is expressible as
 * exit code 0.
 */

#ifndef COHESION_HARNESS_STATDIFF_HH
#define COHESION_HARNESS_STATDIFF_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/json.hh"

namespace harness {

/** One flattened statistic: dotted path + numeric value. Non-numeric
 *  leaves (strings, bools) compare by their serialized text. */
struct StatEntry
{
    std::string path;
    bool numeric = false;
    double value = 0;
    std::string text; ///< serialized form for non-numeric leaves
};

/** Flatten @p doc into sorted dotted-path leaves ("chip.bank0.l3.hits").
 *  Array elements use their index as a path segment. */
std::vector<StatEntry> flattenStats(const sim::JsonValue &doc);

struct DiffOptions
{
    double absTol = 0;  ///< |a-b| <= absTol passes
    double relTol = 0;  ///< |a-b| <= relTol * max(|a|,|b|) passes
    /** Path segments whose subtree is ignored entirely. Defaults to
     *  the nondeterministic host-side names. */
    std::vector<std::string> ignoreSegments{"host", "wall_sec"};
    /** Flattened-path prefixes ignored entirely. Defaults to the
     *  runner-side latency accounting wall-clock scalars
     *  (latency.host_wall_sec and friends) — the simulated
     *  latency.mode.* / latency.class.* breakdown is deterministic
     *  and deliberately NOT covered by this default. */
    std::vector<std::string> ignorePrefixes{"latency.host_"};
};

/** One difference between the two documents. */
struct DiffEntry
{
    enum class Kind { Added, Removed, Changed };
    Kind kind;
    std::string path;
    std::string before; ///< empty for Added
    std::string after;  ///< empty for Removed
    double absDelta = 0;
    double relDelta = 0;
};

struct DiffResult
{
    std::vector<DiffEntry> entries;
    std::size_t compared = 0; ///< leaves present in both and checked

    bool identical() const { return entries.empty(); }
};

/** Compare two parsed documents under @p opts. */
DiffResult diffStats(const sim::JsonValue &a, const sim::JsonValue &b,
                     const DiffOptions &opts = {});

/** Human-readable report, one line per difference plus a summary. */
void printDiff(std::ostream &os, const DiffResult &d,
               const std::string &label_a, const std::string &label_b);

} // namespace harness

#endif // COHESION_HARNESS_STATDIFF_HH
