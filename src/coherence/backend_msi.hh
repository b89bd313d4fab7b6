/**
 * @file
 * The paper's MSI directory protocol as a coherence backend. One
 * engine serves both registered names: "msi-fullmap" (full-map sharer
 * bits) and "dir4b" (limited-pointer Dir4B sharers) — the sharer
 * representation comes from the machine's DirectoryConfig.
 */

#ifndef COHESION_COHERENCE_BACKEND_MSI_HH
#define COHESION_COHERENCE_BACKEND_MSI_HH

#include "coherence/backend.hh"
#include "coherence/directory.hh"
#include "sim/event_queue.hh"

namespace coherence {

class MsiBackend : public Backend
{
  public:
    MsiBackend(std::string name, arch::L3Bank &bank);

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
    void writeRelease(const arch::Request &req) override;
    void readRelease(const arch::Request &req) override;

    Directory *directoryOrNull() override { return &_dir; }
    const Directory *directoryOrNull() const override { return &_dir; }
    std::uint32_t dirEntries() const override { return _dir.size(); }
    std::uint32_t dirPeakEntries() const override
    {
        return _dir.peakEntries();
    }
    std::uint64_t dirInsertions() const override
    {
        return _dir.insertions();
    }

    void snapshot(sim::Archive &ar) override;

  private:
    /**
     * Invalidate every sharer of @p base's directory entry, writing
     * back a dirty owner into the L3 (directory eviction and
     * HWcc=>SWcc cases 2a/3a). The caller erases the entry.
     *
     * If the modified owner NACKs the probe, its WrRel is already in
     * flight; *@p incomplete is set and the caller must release the
     * line lock, wait, and retry so the writeback can land first.
     */
    sim::CoTask recallEntry(mem::Addr base, std::uint32_t txn,
                            bool *incomplete, sim::lat::Cursor *lat);

    /** Retry wrapper: recall under @p lock_key until complete. */
    sim::CoTask recallEntryRetry(mem::Addr base, std::uint32_t txn,
                                 std::uint32_t lock_key,
                                 sim::lat::Cursor *lat);

    /**
     * Make room for a new directory entry covering @p base, evicting
     * (and recalling) a victim entry if required.
     */
    sim::CoTask makeRoom(mem::Addr base, std::uint32_t txn,
                         sim::lat::Cursor *lat);

    /** Drop @p req.cluster from @p base's sharers; erase when empty. */
    void removeSharer(mem::Addr base, unsigned cluster,
                      std::uint32_t txn);

    std::string _name;
    BackendTraits _traits;
    arch::L3Bank &_bank;
    Directory _dir;
    sim::Tick _dirPortFree = 0;
};

} // namespace coherence

#endif // COHESION_COHERENCE_BACKEND_MSI_HH
