#include "runtime/runtime.hh"

#include <algorithm>

#include "cohesion/region_table.hh"

namespace runtime {

// --------------------------------------------------------------------
// Barrier
// --------------------------------------------------------------------

sim::CoTask
Barrier::wait(arch::Core &core)
{
    // Fresh counter word per episode: no reset message needed. The
    // episode index is tracked per core; the winner is decided by the
    // bank-serialized fetch-add below, never by host-side state.
    unsigned id = core.globalId();
    std::uint64_t my_episode = _coreEpisode[id]++;
    fatal_if(my_episode >= 4096, "barrier episode window exhausted");
    mem::Addr counter =
        _counterBase + static_cast<mem::Addr>((my_episode % 4096) * 4);

    std::uint32_t old =
        co_await core.atomic(arch::AtomicOp::AddU32, counter, 1);

    if (old + 1 == _parties) {
        ++_episodesReleased;
        releaseAll();
        co_return;
    }
    unsigned cl = id / _chip.config().coresPerCluster;
    if (_released[cl] > my_episode) {
        // Release reached this cluster while our arrival ack was in
        // flight.
        co_return;
    }
    _waiting[cl].push_back({&core, my_episode});
    co_await arch::MemOp::pending(core);
}

void
Barrier::releaseAll()
{
    sim::Tick when = _chip.eq().now() + _chip.config().netLatency;
    for (unsigned cl = 0; cl < _chip.numClusters(); ++cl) {
        _chip.postBarrierWake(when, [this, cl, when]() {
            std::uint64_t upto = ++_released[cl];
            std::vector<arch::Core *> ready;
            auto &w = _waiting[cl];
            std::size_t keep = 0;
            for (std::size_t i = 0; i < w.size(); ++i) {
                if (w[i].episode < upto)
                    ready.push_back(w[i].core);
                else
                    w[keep++] = w[i];
            }
            w.resize(keep);
            for (arch::Core *c : ready) {
                c->advanceLocalTime(when);
                c->completeOp(0);
            }
        });
    }
}

// --------------------------------------------------------------------
// TaskQueue
// --------------------------------------------------------------------

unsigned
TaskQueue::addPhase(const std::vector<TaskDesc> &tasks,
                    mem::Addr desc_region, mem::Addr counter_addr)
{
    Phase p;
    p.counter = counter_addr;
    p.descs = desc_region;
    p.count = tasks.size();
    for (std::uint32_t i = 0; i < tasks.size(); ++i) {
        mem::Addr a = desc_region + i * sizeof(TaskDesc);
        _chip.debugWriteT(a + 0, tasks[i].arg0);
        _chip.debugWriteT(a + 4, tasks[i].arg1);
        _chip.debugWriteT(a + 8, tasks[i].arg2);
        _chip.debugWriteT(a + 12, tasks[i].arg3);
    }
    _chip.debugWriteT<std::uint32_t>(counter_addr, 0);
    _phases.push_back(p);
    return _phases.size() - 1;
}

sim::CoTask
TaskQueue::pop(arch::Core &core, unsigned p, TaskDesc *out, bool *got)
{
    const Phase &phase = _phases.at(p);
    std::uint32_t idx =
        co_await core.atomic(arch::AtomicOp::AddU32, phase.counter, 1);
    if (idx >= phase.count) {
        *got = false;
        co_return;
    }
    mem::Addr a = phase.descs + idx * sizeof(TaskDesc);
    out->arg0 = co_await core.load(a + 0);
    out->arg1 = co_await core.load(a + 4);
    out->arg2 = co_await core.load(a + 8);
    out->arg3 = co_await core.load(a + 12);
    *got = true;
}

// --------------------------------------------------------------------
// CohesionRuntime
// --------------------------------------------------------------------

CohesionRuntime::CohesionRuntime(arch::Chip &chip)
    : _chip(chip),
      _cohHeap("coherent-heap", Layout::cohHeapBase, Layout::cohHeapBytes),
      _incHeap("incoherent-heap", Layout::incHeapBase, Layout::incHeapBytes,
               64),
      _metaHeap("meta", Layout::metaBase, Layout::metaBytes),
      _barrier(chip, Layout::metaBase, chip.totalCores()),
      _queue(chip)
{
    // Reserve the barrier counter window claimed in the ctor above.
    _metaHeap.alloc(4096 * 4);
    boot();
}

void
CohesionRuntime::boot()
{
    // Coarse-grain SWcc regions: code, constant globals, stacks
    // (Section 3.5: "set for the code segment, the constant data
    // region, and the per-core stack region").
    auto &coarse = _chip.coarseTable();
    coarse.add(Layout::codeBase, Layout::codeBytes,
               cohesion::RegionKind::Code);
    coarse.add(Layout::globalBase, Layout::globalBytes,
               cohesion::RegionKind::Immutable);
    coarse.add(Layout::stackBase,
               _chip.totalCores() * Layout::stackBytesPerCore,
               cohesion::RegionKind::Stack);

    // Fine-grain table: zeroed at boot (all of memory defaults to
    // HWcc); the incoherent heap range starts SWcc (Section 3.6:
    // "the initial state of these lines is SWcc").
    if (_chip.cohesionEnabled()) {
        cohesion::fine_table::pokeRegion(_chip.store(), _chip.map(),
                                         Layout::incHeapBase,
                                         Layout::incHeapBytes, true);
    }

    _chip.setSegmentClassifier(
        [](mem::Addr a) { return Layout::classify(a); });
}

mem::Addr
CohesionRuntime::metaAlloc(std::uint32_t bytes)
{
    return _metaHeap.alloc(bytes);
}

bool
CohesionRuntime::swccManaged(mem::Addr a) const
{
    switch (_chip.config().mode) {
      case arch::CoherenceMode::SWccOnly:
        return true;
      case arch::CoherenceMode::HWccOnly:
        return false;
      case arch::CoherenceMode::Cohesion:
        break;
    }
    if (_incHeap.contains(a))
        return true;
    return _chip.coarseTable().contains(a);
}

std::vector<float>
CohesionRuntime::verifyReadF32(mem::Addr a, std::size_t n)
{
    std::vector<std::uint32_t> words(n);
    _chip.coherentRead(a, words.data(), n);
    std::vector<float> out(n);
    std::transform(words.begin(), words.end(), out.begin(),
                   [](std::uint32_t w) { return std::bit_cast<float>(w); });
    return out;
}

sim::CoTask
CohesionRuntime::setRegionDomain(arch::Core &core, mem::Addr ptr,
                                 std::uint32_t size, bool swcc)
{
    if (!_chip.cohesionEnabled())
        co_return; // no tables in the pure modes

    // One atomic per covered table word, i.e. per 1 KB block.
    cohesion::fine_table::BlockWalk walk(_chip.map(), ptr, size);
    for (cohesion::fine_table::WordUpdate u; walk.next(&u);) {
        if (swcc) {
            co_await core.atomic(arch::AtomicOp::Or, u.wordAddr, u.mask);
        } else {
            co_await core.atomic(arch::AtomicOp::And, u.wordAddr, ~u.mask);
        }
    }
}

sim::CoTask
CohesionRuntime::cohSWccRegion(arch::Core &core, mem::Addr ptr,
                               std::uint32_t size)
{
    co_await setRegionDomain(core, ptr, size, true);
}

sim::CoTask
CohesionRuntime::cohHWccRegion(arch::Core &core, mem::Addr ptr,
                               std::uint32_t size)
{
    co_await setRegionDomain(core, ptr, size, false);
}

} // namespace runtime
