#include "harness/support.h"

#include "common/bits.h"
#include "mmu/pte.h"

namespace ptstore::attacks {

std::optional<PhysAddr> find_leaf_slot(System& sys, PhysAddr root, VirtAddr va) {
  PhysAddr table = root;
  for (unsigned level = 2; level > 0; --level) {
    const PhysAddr slot = table + bits(va, 12 + 9 * level, 9) * kPteSize;
    const u64 entry = sys.mem().read_u64(slot);
    if (!pte::is_table(entry)) return std::nullopt;
    table = pte::pa(entry);
  }
  return table + bits(va, 12, 9) * kPteSize;
}

Process* setup_victim(System& sys, u64 prot, VirtAddr va) {
  Kernel& k = sys.kernel();
  Process* victim = k.processes().fork(sys.init());
  if (victim == nullptr) return nullptr;
  if (!k.processes().add_vma(*victim, va, kPageSize, prot)) return nullptr;
  if (k.processes().switch_to(*victim) != SwitchResult::kOk) return nullptr;
  if (!k.user_access(*victim, va, (prot & pte::kW) != 0)) return nullptr;
  return victim;
}

MemAccessResult user_probe(Core& core, VirtAddr va, bool write) {
  return core.access_as(va, 8, write ? AccessType::kWrite : AccessType::kRead,
                        AccessKind::kRegular, Privilege::kUser,
                        0x4141414141414141);
}

}  // namespace ptstore::attacks
