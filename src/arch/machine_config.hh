/**
 * @file
 * Machine configuration: the paper's Table 3 parameters plus the
 * coherence-mode selection (SWcc-only, HWcc-only, Cohesion) evaluated
 * in Section 4. Everything is parameterized so the benches can sweep
 * directory sizes (Fig. 9), L2 sizes (Fig. 3), and run scaled-down
 * core counts on small hosts.
 */

#ifndef COHESION_ARCH_MACHINE_CONFIG_HH
#define COHESION_ARCH_MACHINE_CONFIG_HH

#include <cstdint>
#include <string>

#include "coherence/directory.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"

namespace arch {

/** Which coherence machinery the machine uses (Section 4.1). */
enum class CoherenceMode : std::uint8_t {
    SWccOnly, ///< No directory; software manages all coherence.
    HWccOnly, ///< Directory tracks every cached line; tables disabled.
    Cohesion  ///< Hybrid: directory + coarse/fine region tables.
};

const char *coherenceModeName(CoherenceMode m);

struct MachineConfig
{
    // --- Topology -------------------------------------------------------
    unsigned numClusters = 16;     ///< Paper: 128 clusters of 8 cores.
    unsigned coresPerCluster = 8;
    unsigned numL3Banks = 8;       ///< Paper: 32.
    unsigned numChannels = 2;      ///< Paper: 8 GDDR5 channels.

    // --- Caches (Table 3) -----------------------------------------------
    std::uint32_t l1iBytes = 2 * 1024;
    unsigned l1iAssoc = 2;
    std::uint32_t l1dBytes = 1024;
    unsigned l1dAssoc = 2;
    std::uint32_t l2Bytes = 64 * 1024;
    unsigned l2Assoc = 16;
    std::uint32_t l3BankBytes = 128 * 1024; ///< 4 MB / 32 banks.
    unsigned l3Assoc = 8;

    // --- Latencies / ports (core cycles @ 1.5 GHz) -----------------------
    sim::Tick l1Latency = 1;
    sim::Tick l2Latency = 4;
    unsigned l2Ports = 2;          ///< Accesses per cycle into the L2.
    sim::Tick l3Latency = 16;      ///< "16+" in Table 3; plus queuing.
    unsigned l3Ports = 1;
    sim::Tick netLatency = 20;     ///< Cluster<->bank one-way latency
                                   ///< (bus + tree + crossbar).
    unsigned linkBytesPerCycle = 8;///< Serialization bandwidth per
                                   ///< cluster uplink and per bank port.
    mem::DramTiming dram;

    // --- Coherence --------------------------------------------------------
    CoherenceMode mode = CoherenceMode::Cohesion;
    coherence::DirectoryConfig directory =
        coherence::DirectoryConfig::optimistic();
    /**
     * Registered coherence-backend name ("msi-fullmap", "dir4b",
     * "dls"). Empty selects the legacy default derived from the
     * directory's sharer kind; Chip's constructor resolves and
     * validates the name (see coherence::resolveBackendName) and
     * forces the sharer kind to match an explicit MSI variant.
     */
    std::string backend;
    /**
     * Per-bank on-die cache of fine-grain table words (Section 3.4's
     * optional optimization); 0 disables it and every fine-grain
     * lookup goes through the L3.
     */
    std::uint32_t tableCacheEntries = 0;
    /**
     * Grant Exclusive on sole-sharer reads (MESI) instead of the
     * paper's MSI. Off by default — the paper rejects E because
     * read-shared data pays an extra downgrade probe; the ablation
     * bench measures that tradeoff.
     */
    bool useMesi = false;

    // --- Execution model ---------------------------------------------------
    /**
     * Conservative-quantum slack: how far a core's local clock may run
     * ahead of global simulated time between event-queue interactions.
     */
    sim::Tick slackWindow = 400;
    /** Watchdog: abort if simulated time exceeds this (deadlock guard). */
    sim::Tick maxCycles = 500'000'000;
    /**
     * Livelock watchdog: if no forward progress (instructions retired,
     * bank transactions completed, responses delivered) happens within
     * this many ticks, runUntilQuiescent throws DeadlockError with an
     * in-flight transaction dump. 0 disables the windowed check (the
     * maxCycles bound still applies).
     */
    sim::Tick watchdogWindow = 2'000'000;

    // --- Fault injection ---------------------------------------------------
    /** Fault campaign; all-zero rates (the default) disable injection. */
    sim::FaultPlan faults;

    unsigned totalCores() const { return numClusters * coresPerCluster; }
    std::uint32_t l3TotalBytes() const { return numL3Banks * l3BankBytes; }

    /** The paper's full-scale 1024-core configuration (Table 3). */
    static MachineConfig
    paper1024()
    {
        MachineConfig c;
        c.numClusters = 128;
        c.numL3Banks = 32;
        c.numChannels = 8;
        return c;
    }

    /**
     * A scaled configuration that preserves the paper's per-cluster
     * ratios: @p clusters clusters of eight cores, one L3 bank per
     * four clusters (min 2), one channel per four banks (min 1).
     */
    static MachineConfig
    scaled(unsigned clusters)
    {
        MachineConfig c;
        c.numClusters = clusters;
        unsigned banks = clusters / 4;
        if (banks < 2)
            banks = 2;
        c.numL3Banks = banks;
        unsigned channels = banks / 4;
        if (channels < 1)
            channels = 1;
        c.numChannels = channels;
        return c;
    }

    /** Human-readable one-line summary. */
    std::string summary() const;
};

} // namespace arch

#endif // COHESION_ARCH_MACHINE_CONFIG_HH
