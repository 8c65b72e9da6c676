// Shared attack-scenario plumbing: victim setup, the omniscient page-table
// locator, user-mode probes, and post-attack satp recovery. Extracted from
// scenarios.cpp so the campaign executor (harness/campaign.h), which also
// runs ptmc counterexample replay, reuses the same building blocks.
#pragma once

#include <optional>

#include "attacks/primitive.h"
#include "kernel/system.h"

namespace ptstore::attacks {

/// Canonical victim mapping used by the scenarios.
inline constexpr VirtAddr kVictimVa = kUserSpaceBase + MiB(4);

/// Omniscient (host-side) Sv39 walk to the physical address of the leaf PTE
/// slot for `va`. This models the paper's assumption that a sophisticated
/// attacker can *locate* page tables (e.g. via PT-Rand-style info leaks) —
/// locating is free; *accessing* must go through the architecture.
std::optional<PhysAddr> find_leaf_slot(System& sys, PhysAddr root, VirtAddr va);

/// Fork a victim process off init with one user page mapped at `va`
/// (default kVictimVa), switched-to and faulted-in.
Process* setup_victim(System& sys, u64 prot = pte::kR | pte::kW,
                      VirtAddr va = kVictimVa);

/// U-mode probe access issued directly (no kernel demand-paging behind it).
MemAccessResult user_probe(System& sys, VirtAddr va, bool write);
/// Same, through a specific core — SMP replays probe the hart named by the
/// counterexample op, not whichever hart the kernel last ran on.
MemAccessResult user_probe(Core& core, VirtAddr va, bool write);

/// Restore a sane address space after an attack wedged satp (harness-only
/// recovery so later assertions can run; M-mode write bypasses S-mode state).
void restore_kernel_satp(System& sys);

}  // namespace ptstore::attacks
