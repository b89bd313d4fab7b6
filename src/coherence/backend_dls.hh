/**
 * @file
 * DLS-style directoryless coherence backend: the shared L3 is the
 * ordering point and no sharer metadata exists at all (PAPERS.md,
 * "Directoryless Shared Last-level Cache"). HWcc reads are granted
 * Shared; HWcc writes invalidate every other cluster by broadcast and
 * write through into the L3 before the ack, so every L2 copy is
 * always clean. There is no Modified/Exclusive grant, no upgrade
 * path, no recall bookkeeping, and zero directory storage (see
 * coherence::dlsArea()).
 */

#ifndef COHESION_COHERENCE_BACKEND_DLS_HH
#define COHESION_COHERENCE_BACKEND_DLS_HH

#include "coherence/backend.hh"

namespace coherence {

class DlsBackend : public Backend
{
  public:
    explicit DlsBackend(arch::L3Bank &bank);

    const std::string &name() const override { return _name; }
    const BackendTraits &traits() const override { return _traits; }

    sim::CoTask read(arch::Request req, sim::lat::Cursor *lat) override;
    sim::CoTask write(arch::Request req, sim::lat::Cursor *lat) override;
    sim::CoTask recallForAtomic(mem::Addr base, std::uint32_t txn,
                                std::uint32_t lock_key,
                                sim::lat::Cursor *lat) override;
    sim::CoTask flushLine(mem::Addr base, std::uint32_t txn,
                          std::uint32_t lock_key,
                          sim::lat::Cursor *lat) override;
    sim::CoTask adoptLine(mem::Addr base, std::uint32_t txn,
                          const std::vector<unsigned> &clean_sharers,
                          const std::vector<unsigned> &dirty_holders,
                          bool overlap, sim::lat::Cursor *lat) override;
    void writeRelease(const arch::Request &) override {}
    void readRelease(const arch::Request &) override {}

    void snapshot(sim::Archive &ar) override;

  private:
    static constexpr unsigned kNoExclude = ~0u;

    /** SWcc/HWcc domain decision for @p base (no directory to ask). */
    sim::CoTask domainOf(mem::Addr base, std::uint32_t txn,
                         bool *out_swcc);

    /**
     * Broadcast Invalidate to every cluster except @p exclude and
     * merge any dirty (SWcc) data returned into the L3.
     */
    sim::CoTask invalidateAll(mem::Addr base, std::uint32_t txn,
                              unsigned exclude, sim::lat::Cursor *lat);

    std::string _name;
    BackendTraits _traits;
    arch::L3Bank &_bank;
};

} // namespace coherence

#endif // COHESION_COHERENCE_BACKEND_DLS_HH
