#include "arch/core.hh"

#include "arch/chip.hh"
#include "arch/cluster.hh"
#include "sim/logging.hh"

namespace arch {

Core::Core(Cluster &cluster, unsigned global_id, unsigned local_id,
           std::uint32_t l1i_bytes, unsigned l1i_assoc,
           std::uint32_t l1d_bytes, unsigned l1d_assoc)
    : _cluster(cluster), _globalId(global_id), _localId(local_id),
      _l1i(sim::cat("core", global_id, ".l1i"), l1i_bytes, l1i_assoc),
      _l1d(sim::cat("core", global_id, ".l1d"), l1d_bytes, l1d_assoc)
{}

MemOp
Core::perform(const OpDesc &d)
{
    switch (d.kind) {
      case OpDesc::Kind::Load:
        return _cluster.coreLoad(*this, d.addr, d.bytes);
      case OpDesc::Kind::Store:
        return _cluster.coreStore(*this, d.addr, d.value, d.bytes);
      case OpDesc::Kind::Atomic:
        return _cluster.coreAtomic(*this, d.op, d.addr, d.value,
                                   d.operand2);
      case OpDesc::Kind::Flush:
        return _cluster.coreFlush(*this, d.addr);
      case OpDesc::Kind::Inv:
        return _cluster.coreInv(*this, d.addr);
      case OpDesc::Kind::Drain:
        return _cluster.coreDrain(*this);
      case OpDesc::Kind::Compute:
        return _cluster.coreCompute(*this, d.count);
    }
    panic("unknown op kind");
}

} // namespace arch
