/**
 * @file
 * Pluggable coherence-backend seam at the L3-bank boundary.
 *
 * A Backend owns the sharer-tracking metadata (if any) for one bank
 * and implements the home side of the HWcc protocol: read/write
 * request flows, probe generation and invalidation ordering, the
 * per-line recall used by atomics and HWcc=>SWcc transitions
 * (Fig. 7a), and the adoption step of SWcc=>HWcc transitions
 * (Fig. 7b). SWcc flows (incoherent fills, per-word merges) and the
 * region-table machinery stay in the bank — they are protocol
 * independent.
 *
 * Registered backends:
 *  - "msi-fullmap": the paper's MSI directory with full-map sharers;
 *  - "dir4b": the same engine with Dir4B limited-pointer sharers;
 *  - "dls": a DLS-style directoryless shared LLC
 *    (write-through-invalidate at the bank, no sharer storage).
 */

#ifndef COHESION_COHERENCE_BACKEND_HH
#define COHESION_COHERENCE_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/types.hh"
#include "sim/cotask.hh"
#include "sim/serialize.hh"

namespace arch {
class L3Bank;
struct Request;
} // namespace arch

namespace sim::lat {
struct Cursor;
} // namespace sim::lat

namespace coherence {

class Directory;
struct DirectoryConfig;

/**
 * The auditor's coherence invariants, one bit each. A backend's
 * applicability mask selects which are meaningful for its protocol;
 * masked-off checks are counted as *skipped*, never silently passed.
 */
enum class Invariant : unsigned
{
    DirtySubsetValid = 0,  ///< dirty words are a subset of valid words
    IncoherentXorHwstate,  ///< a line is SWcc xor has an HWcc state
    ValidLineStateless,    ///< invalid lines carry no state bits
    DirtyNeedsOwner,       ///< dirty HWcc data only in M/E lines
    ModeDomain,            ///< line domain legal for the machine mode
    L2WithoutDirectory,    ///< HWcc L2 copy has a directory entry
    SharerMissing,         ///< directory tracks every L2 copy
    StateMismatch,         ///< L2 owner state matches the directory
    DomainMismatch,        ///< cached domain matches the fine table
    OwnerExclusive,        ///< at most one M/E copy per line
    DirInSwccMode,         ///< no directory entries in SWcc-only mode
    DirInvalidState,       ///< directory entries carry a real state
    DirEmptySharers,       ///< directory entries track >= 1 sharer
    DirMultiOwner,         ///< M/E entries track exactly one sharer
    DirCoversSwcc,         ///< directory entries only for HWcc lines
    DlsCleanShared,        ///< DLS: HWcc L2 copies are clean Shared
    Count
};

/** Stable display name for an invariant ("dirty-subset-valid", ...). */
const char *invariantName(Invariant i);

constexpr std::uint32_t
invariantBit(Invariant i)
{
    return 1u << static_cast<unsigned>(i);
}

constexpr std::uint32_t kAllInvariants =
    (1u << static_cast<unsigned>(Invariant::Count)) - 1;

/** Invariants that only make sense when a directory exists. */
constexpr std::uint32_t kDirectoryInvariants =
    invariantBit(Invariant::L2WithoutDirectory) |
    invariantBit(Invariant::SharerMissing) |
    invariantBit(Invariant::StateMismatch) |
    invariantBit(Invariant::DirInSwccMode) |
    invariantBit(Invariant::DirInvalidState) |
    invariantBit(Invariant::DirEmptySharers) |
    invariantBit(Invariant::DirMultiOwner) |
    invariantBit(Invariant::DirCoversSwcc);

/** Static per-backend properties, queryable without an instance. */
struct BackendTraits
{
    /** No sharer metadata: directoryOrNull() is null, occupancy and
     *  directory-area stats read as zero. */
    bool directoryless = false;
    /** Clusters write through on HWcc stores (no M/E grants, no
     *  upgrade path, silent clean evictions). */
    bool writeThrough = false;
    /** Auditor applicability mask (Invariant bits). */
    std::uint32_t auditMask = 0;
};

/**
 * Home-side protocol engine for one L3 bank. Each flow coroutine owns
 * its whole transaction: line-lock acquisition, probes, directory (or
 * no) bookkeeping, the L3 data access, and the response.
 *
 * Every flow takes a latency-accounting cursor (@p lat, null when
 * accounting is off): the flow marks the cursor after each await so
 * the bank span tiles into lock/directory/probe/DRAM/service stages
 * (DESIGN.md SS15). Marking is observer-only — no timing decision may
 * read the cursor.
 */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Registered name this instance was created under. */
    virtual const std::string &name() const = 0;
    virtual const BackendTraits &traits() const = 0;

    /** Read/Instr request flow. */
    virtual sim::CoTask read(arch::Request req,
                             sim::lat::Cursor *lat) = 0;
    /** Write request flow (miss or S->M upgrade / write-through). */
    virtual sim::CoTask write(arch::Request req,
                              sim::lat::Cursor *lat) = 0;

    /**
     * Ensure no cluster holds an HWcc copy of @p base before an
     * atomic RMW executes at the bank. Runs under the caller's line
     * lock (@p lock_key); may release and re-acquire it to let an
     * in-flight writeback land.
     */
    virtual sim::CoTask recallForAtomic(mem::Addr base, std::uint32_t txn,
                                        std::uint32_t lock_key,
                                        sim::lat::Cursor *lat) = 0;

    /**
     * HWcc => SWcc transition for one line (Fig. 7a): flush every
     * cached HWcc copy and drop any sharer metadata. Locking contract
     * matches recallForAtomic().
     */
    virtual sim::CoTask flushLine(mem::Addr base, std::uint32_t txn,
                                  std::uint32_t lock_key,
                                  sim::lat::Cursor *lat) = 0;

    /**
     * SWcc => HWcc adoption (Fig. 7b, after the bank's CleanQuery
     * broadcast classified the holders): absorb @p clean_sharers and
     * @p dirty_holders into this backend's tracking, writing back or
     * upgrading writers as the protocol requires. @p overlap flags
     * the case-5b multi-writer race.
     */
    virtual sim::CoTask
    adoptLine(mem::Addr base, std::uint32_t txn,
              const std::vector<unsigned> &clean_sharers,
              const std::vector<unsigned> &dirty_holders, bool overlap,
              sim::lat::Cursor *lat) = 0;

    /** Sharer bookkeeping for a WriteRelease (after the data merge). */
    virtual void writeRelease(const arch::Request &req) = 0;
    /** Sharer bookkeeping for a ReadRelease. */
    virtual void readRelease(const arch::Request &req) = 0;

    /** The backing directory, or null for directoryless backends. */
    virtual Directory *directoryOrNull() { return nullptr; }
    virtual const Directory *directoryOrNull() const { return nullptr; }

    /** Directory occupancy stats (zero when directoryless). */
    virtual std::uint32_t dirEntries() const { return 0; }
    virtual std::uint32_t dirPeakEntries() const { return 0; }
    virtual std::uint64_t dirInsertions() const { return 0; }

    /**
     * Snapshot hook: protocol state under a backend-specific CCKPT1
     * section tag ("backend:<name>"), so restoring a snapshot into a
     * machine with a different backend fails with a clear
     * SnapshotError instead of misreading bytes.
     */
    virtual void snapshot(sim::Archive &ar) = 0;
};

// --- Registry -----------------------------------------------------------

/** Names of all registered backends, in display order. */
const std::vector<std::string> &backendNames();

/** True if @p name is a registered backend. */
bool backendKnown(const std::string &name);

/** Traits for @p name, or null if unknown. */
const BackendTraits *backendTraits(const std::string &name);

/** Comma-separated registered names (for error messages / --list). */
std::string backendListString();

/**
 * Resolve a requested backend name against the directory config:
 * empty selects the legacy default ("dir4b" when the sharer kind is
 * limited-pointer, else "msi-fullmap"). Throws std::runtime_error
 * naming the registered backends if @p requested is unknown.
 */
std::string resolveBackendName(const std::string &requested,
                               const DirectoryConfig &dir);

/**
 * Construct the backend registered as @p name for @p bank. Throws
 * std::runtime_error listing the registered backends if unknown.
 */
std::unique_ptr<Backend> makeBackend(const std::string &name,
                                     arch::L3Bank &bank);

} // namespace coherence

#endif // COHESION_COHERENCE_BACKEND_HH
