/**
 * @file
 * Runtime coherence auditor. Walks every L2, every directory slice,
 * and the Cohesion region tables (the Chip's run loop invokes a pass
 * at a configurable cadence) and enforces the protocol's global
 * invariants:
 *
 *  1. per-line structural sanity (dirty words are valid words; the
 *     incoherent bit and the MSI state are mutually exclusive);
 *  2. per-word dirty masks only accumulate on SWcc (incoherent) or
 *     Modified lines — an HWcc Shared copy is clean;
 *  3. mode domain discipline (HWccOnly has no incoherent lines,
 *     SWccOnly has no hardware states and no directory entries);
 *  4. every HWcc L2 copy is backed by a home-directory entry that
 *     lists the cluster with a compatible state;
 *  5. owner exclusivity: a Modified/Exclusive copy is the only HWcc
 *     copy of its line anywhere in the system;
 *  6. directory structure (live entries have sharers; M/E entries
 *     have one owner; entries never cover SWcc lines in Cohesion).
 *
 * Lines with a transaction in flight (home-bank line lock held, an
 * MSHR allocated anywhere, or the covering fine-table line locked) are
 * skipped: the protocol is allowed to be mid-transition there. A
 * violation throws AuditError with a state dump, so silent corruption
 * from fault injection becomes a loud, attributable failure.
 *
 * Cost: a pass walks every valid L2 line and directory entry once. The
 * in-flight MSHR lines of all clusters are gathered into one set per
 * pass, so the in-flux test is a few lookups per line, independent of
 * the cluster count; the state dump is formatted only after an
 * invariant has failed.
 *
 * Each check is gated by the active backend's applicability mask
 * (BackendTraits::auditMask): a directoryless backend masks off the
 * directory-backed invariants, and every masked-off evaluation is
 * counted per invariant (invariantSkips) so tests can prove a check
 * was skipped by design rather than vacuously passed.
 */

#ifndef COHESION_COHERENCE_AUDITOR_HH
#define COHESION_COHERENCE_AUDITOR_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "coherence/backend.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"

namespace arch {
class Chip;
}

namespace coherence {

/** A coherence-invariant violation, with the offending state. */
class AuditError : public std::runtime_error
{
  public:
    AuditError(std::string invariant, const std::string &detail)
        : std::runtime_error("coherence audit failed [" + invariant +
                             "]: " + detail),
          _invariant(std::move(invariant))
    {}

    /** Copy of @p e with @p context appended to the message (the audit
     *  driver attaches the implicated lines' recorder histories). */
    AuditError(const AuditError &e, const std::string &context)
        : std::runtime_error(e.what() + context), _invariant(e.invariant())
    {}

    /** Short name of the violated invariant (e.g. "owner-exclusive"). */
    const std::string &invariant() const { return _invariant; }

  private:
    std::string _invariant;
};

class Auditor
{
  public:
    explicit Auditor(arch::Chip &chip) : _chip(chip) {}

    /** One full invariant pass right now (throws AuditError). */
    void auditNow();

    /**
     * auditNow() without moving the chip.audit.* counters: the
     * pre-checkpoint verification pass must be a pure observer, so a
     * session that checkpoints stays stat-identical to one that never
     * did.
     */
    void verifyNow();

    std::uint64_t passes() const { return _passes.value(); }
    std::uint64_t linesChecked() const { return _linesChecked.value(); }
    std::uint64_t linesSkipped() const { return _linesSkipped.value(); }

    /**
     * How many times invariant @p inv was masked off (not evaluated)
     * because the active backend's applicability mask excludes it.
     * Distinguishes "skipped by design" from "silently passed":
     * under a directoryless backend the directory-backed invariants
     * accumulate skips here instead of vacuous passes. Diagnostic
     * only — deliberately not stat-registered, so golden stat hashes
     * are identical across backends that differ only in their masks.
     */
    std::uint64_t
    invariantSkips(Invariant inv) const
    {
        return _invariantSkips[static_cast<unsigned>(inv)];
    }

    void registerStats(sim::StatRegistry &reg,
                       const std::string &prefix) const;

    /** Snapshot hook: the cumulative pass counters are part of the
     *  session's statistics contract, so they travel with the machine. */
    void
    snapshot(sim::Archive &ar)
    {
        ar.tag("auditor");
        ar(_passes);
        ar(_linesChecked);
        ar(_linesSkipped);
    }

  private:
    /** The invariant walk behind auditNow() (throws AuditError). */
    void auditPass();

    /** True if @p base may legitimately be mid-transition. */
    bool inFlux(mem::Addr base) const;

    /** Authoritative SWcc-domain decision for @p base (coarse table,
     *  then the fine table read through the L3 copy or the backing
     *  store — never the per-bank table cache, which may be stale). */
    bool lineIsSwcc(mem::Addr base);

    arch::Chip &_chip;

    // Fine-table words resolved during the current pass.
    std::unordered_map<mem::Addr, std::uint32_t> _tableWords;
    // Line bases with an MSHR allocated in any cluster, gathered once
    // at the start of each pass.
    std::unordered_set<mem::Addr> _mshrLines;

    sim::Counter _passes, _linesChecked, _linesSkipped;
    std::uint64_t _invariantSkips[static_cast<unsigned>(
        Invariant::Count)] = {};
    bool _countStats = true; ///< Cleared during verifyNow().
};

} // namespace coherence

#endif // COHESION_COHERENCE_AUDITOR_HH
