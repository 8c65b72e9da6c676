// Shared attack-scenario plumbing: victim setup, the omniscient page-table
// locator and user-mode probes. The campaign executor (harness/campaign.h),
// the attack battery (harness/battery.h) and ptmc counterexample replay all
// use these building blocks.
#pragma once

#include <optional>

#include "harness/primitive.h"
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

/// U-mode probe access issued directly on `core` (no kernel demand-paging
/// behind it). SMP replays probe the hart named by the op, not whichever
/// hart the kernel last ran on.
MemAccessResult user_probe(Core& core, VirtAddr va, bool write);

}  // namespace ptstore::attacks
