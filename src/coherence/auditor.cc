#include "coherence/auditor.hh"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <vector>

#include "arch/chip.hh"
#include "cohesion/region_table.hh"
#include "sim/logging.hh"

namespace coherence {

void
Auditor::auditNow()
{
    try {
        auditPass();
    } catch (const AuditError &e) {
        // Attach the flight-recorder history of every line the
        // violation names (the "0x<addr>" tokens in the detail), so a
        // fault-campaign kill carries its own post-mortem.
        std::string ctx;
        std::vector<mem::Addr> seen;
        std::string_view msg(e.what());
        for (std::size_t i = 0; (i = msg.find("0x", i)) != msg.npos;) {
            i += 2;
            mem::Addr addr = 0;
            auto [p, ec] = std::from_chars(msg.data() + i,
                                           msg.data() + msg.size(), addr,
                                           16);
            if (ec != std::errc())
                continue;
            i = static_cast<std::size_t>(p - msg.data());
            mem::Addr base = mem::lineBase(addr);
            if (std::find(seen.begin(), seen.end(), base) != seen.end())
                continue;
            seen.push_back(base);
            std::string hist = _chip.lineHistory(base);
            if (!hist.empty()) {
                ctx += sim::cat("\n  recorder history line 0x", std::hex,
                                base, std::dec, ":\n", hist);
            }
        }
        throw AuditError(e, ctx);
    }
}

void
Auditor::verifyNow()
{
    _countStats = false;
    try {
        auditNow();
    } catch (...) {
        _countStats = true;
        throw;
    }
    _countStats = true;
}

bool
Auditor::inFlux(mem::Addr base) const
{
    base = mem::lineBase(base);
    arch::Chip &c = _chip;
    if (c.bank(c.map().bankOf(base)).lineBusy(base))
        return true;
    if (_mshrLines.count(base))
        return true;
    if (c.cohesionEnabled()) {
        // A transition atomic holds the covering table line's lock
        // while it rewrites this line's domain.
        mem::Addr wa = c.map().tableWordAddr(base);
        if (c.bank(c.map().bankOf(wa)).lineBusy(wa))
            return true;
    }
    return false;
}

bool
Auditor::lineIsSwcc(mem::Addr base)
{
    arch::Chip &c = _chip;
    base = mem::lineBase(base);
    if (c.coarseTable().contains(base))
        return true;
    const mem::AddressMap &map = c.map();
    const mem::Addr wa = map.tableWordAddr(base);
    std::uint32_t word = 0;
    auto it = _tableWords.find(wa);
    if (it != _tableWords.end()) {
        word = it->second;
    } else {
        // The L3 copy of the table line is the newest committed value;
        // the backing store serves lines the L3 evicted. The per-bank
        // table cache is deliberately not consulted — it is a fault
        // site (table.stale) and must not launder its own staleness.
        arch::L3Bank &home = c.bank(map.bankOf(wa));
        if (const cache::Line *l = home.l3().probe(wa))
            l->read(wa, &word, 4);
        else
            word = c.store().readT<std::uint32_t>(wa);
        _tableWords.emplace(wa, word);
    }
    return cohesion::fine_table::bitFromWord(word, map, base);
}

void
Auditor::auditPass()
{
    arch::Chip &c = _chip;
    const arch::CoherenceMode mode = c.config().mode;
    const std::uint32_t amask = c.auditMask();
    // True when @p inv is in the backend's applicability mask;
    // otherwise records the skip so it is visibly by-design.
    auto applicable = [&](Invariant inv) {
        if (amask & invariantBit(inv))
            return true;
        ++_invariantSkips[static_cast<unsigned>(inv)];
        return false;
    };
    if (_countStats)
        _passes.inc();
    _tableWords.clear();
    // Lines with a fill/upgrade in flight in any cluster, gathered once
    // so inFlux() is one lookup rather than a probe of every cluster.
    _mshrLines.clear();
    for (unsigned ci = 0; ci < c.numClusters(); ++ci) {
        c.cluster(ci).forEachMshr([&](mem::Addr base, arch::ReqType,
                                      unsigned) {
            _mshrLines.insert(base);
        });
    }

    struct Copy
    {
        unsigned cluster;
        cache::CohState state;
    };
    std::unordered_map<mem::Addr, std::vector<Copy>> hwccCopies;

    for (unsigned ci = 0; ci < c.numClusters(); ++ci) {
        c.cluster(ci).l2().forEachValid([&](cache::Line &l) {
            if (inFlux(l.base)) {
                if (_countStats)
                    _linesSkipped.inc();
                return;
            }
            if (_countStats)
                _linesChecked.inc();
            // Formatted only once an invariant has failed.
            auto where = [&]() {
                return sim::cat(
                    "cluster ", ci, " line 0x", std::hex, l.base, std::dec,
                    " state ", cache::cohStateName(l.hwState),
                    l.incoherent ? " incoherent" : "", " valid=0x",
                    std::hex, unsigned(l.validMask), " dirty=0x",
                    unsigned(l.dirtyMask), std::dec);
            };

            if (applicable(Invariant::DirtySubsetValid) &&
                (l.dirtyMask & ~l.validMask) != 0)
                throw AuditError("dirty-subset-valid", where());
            if (applicable(Invariant::IncoherentXorHwstate) &&
                l.incoherent && l.hwState != cache::CohState::Invalid)
                throw AuditError("incoherent-xor-hwstate", where());
            if (applicable(Invariant::ValidLineStateless) &&
                !l.incoherent && l.hwState == cache::CohState::Invalid)
                throw AuditError("valid-line-stateless", where());
            if (applicable(Invariant::DirtyNeedsOwner) && l.dirty() &&
                !l.incoherent && l.hwState != cache::CohState::Modified)
                throw AuditError("dirty-needs-owner", where());
            if (applicable(Invariant::ModeDomain)) {
                if (mode == arch::CoherenceMode::HWccOnly && l.incoherent)
                    throw AuditError("mode-domain",
                                     where() + " (HWccOnly)");
                if (mode == arch::CoherenceMode::SWccOnly && !l.incoherent)
                    throw AuditError("mode-domain",
                                     where() + " (SWccOnly)");
            }

            if (!l.incoherent) {
                hwccCopies[l.base].push_back(Copy{ci, l.hwState});
                if (applicable(Invariant::DlsCleanShared) &&
                    (l.hwState != cache::CohState::Shared ||
                     l.dirtyMask != 0)) {
                    // Directoryless bank writes through and grants
                    // Shared only: an HWcc L2 copy is always a clean
                    // Shared one.
                    throw AuditError("dls-clean-shared", where());
                }
                // HWcc copy: the home directory must know about it
                // (directory-backed backends only). peek() leaves LRU
                // order alone, so the pass has no side effects.
                const DirEntry *e = nullptr;
                if (applicable(Invariant::L2WithoutDirectory)) {
                    const Directory *home =
                        c.bank(c.map().bankOf(l.base)).directoryOrNull();
                    e = home ? home->peek(l.base) : nullptr;
                    if (!e)
                        throw AuditError("l2-without-directory", where());
                }
                if (applicable(Invariant::SharerMissing) && e &&
                    !e->sharers.contains(ci))
                    throw AuditError(
                        "sharer-missing",
                        where() + sim::cat(" (dir state ",
                                           cache::cohStateName(e->state),
                                           ", ", e->sharers.count(),
                                           " sharer(s))"));
                if (applicable(Invariant::StateMismatch) && e) {
                    bool l2_owner =
                        l.hwState == cache::CohState::Modified ||
                        l.hwState == cache::CohState::Exclusive;
                    bool dir_owner =
                        e->state == cache::CohState::Modified ||
                        e->state == cache::CohState::Exclusive;
                    if (l2_owner && !dir_owner)
                        throw AuditError(
                            "state-mismatch",
                            where() +
                                sim::cat(" (dir state ",
                                         cache::cohStateName(e->state),
                                         ")"));
                }
                if (applicable(Invariant::DomainMismatch) &&
                    mode == arch::CoherenceMode::Cohesion &&
                    lineIsSwcc(l.base)) {
                    throw AuditError("domain-mismatch",
                                     where() + " (table says SWcc)");
                }
            } else if (mode == arch::CoherenceMode::Cohesion) {
                if (applicable(Invariant::DomainMismatch) &&
                    !lineIsSwcc(l.base))
                    throw AuditError("domain-mismatch",
                                     where() + " (table says HWcc)");
            }
        });
    }

    for (const auto &[base, copies] : hwccCopies) {
        if (!applicable(Invariant::OwnerExclusive))
            break;
        bool owned = false;
        for (const Copy &cp : copies) {
            owned |= cp.state == cache::CohState::Modified ||
                     cp.state == cache::CohState::Exclusive;
        }
        if (owned && copies.size() > 1) {
            std::string detail =
                sim::cat("line 0x", std::hex, base, std::dec, ":");
            for (const Copy &cp : copies) {
                detail += sim::cat(" cluster", cp.cluster, "=",
                                   cache::cohStateName(cp.state));
            }
            throw AuditError("owner-exclusive", detail);
        }
    }

    for (unsigned bi = 0; bi < c.numBanks(); ++bi) {
        const Directory *dir = c.bank(bi).directoryOrNull();
        if (!dir)
            continue; // directoryless backend: nothing to walk
        dir->forEach([&](const DirEntry &e) {
            auto where = [&]() {
                return sim::cat("bank ", bi, " entry 0x", std::hex, e.base,
                                std::dec, " state ",
                                cache::cohStateName(e.state), " ",
                                e.sharers.count(), " sharer(s)");
            };
            if (applicable(Invariant::DirInSwccMode) &&
                mode == arch::CoherenceMode::SWccOnly)
                throw AuditError("dir-in-swcc-mode", where());
            if (inFlux(e.base)) {
                if (_countStats)
                    _linesSkipped.inc();
                return;
            }
            if (_countStats)
                _linesChecked.inc();
            if (applicable(Invariant::DirInvalidState) &&
                e.state == cache::CohState::Invalid)
                throw AuditError("dir-invalid-state", where());
            if (applicable(Invariant::DirEmptySharers) &&
                e.sharers.empty())
                throw AuditError("dir-empty-sharers", where());
            bool owner = e.state == cache::CohState::Modified ||
                         e.state == cache::CohState::Exclusive;
            if (applicable(Invariant::DirMultiOwner) && owner &&
                !e.sharers.broadcast() && e.sharers.count() != 1)
                throw AuditError("dir-multi-owner", where());
            if (applicable(Invariant::DirCoversSwcc) &&
                mode == arch::CoherenceMode::Cohesion &&
                lineIsSwcc(e.base))
                throw AuditError("dir-covers-swcc", where());
        });
    }
}

void
Auditor::registerStats(sim::StatRegistry &reg,
                       const std::string &prefix) const
{
    reg.addCounter(prefix + ".passes", _passes);
    reg.addCounter(prefix + ".lines_checked", _linesChecked);
    reg.addCounter(prefix + ".lines_skipped", _linesSkipped);
}

} // namespace coherence
