#include "pmp/pmp.h"

#include <sstream>

#include "common/bits.h"

namespace ptstore {

void PmpUnit::set_cfg(unsigned idx, u8 cfg) {
  ++write_gen_;
  if (idx >= kPmpEntryCount) return;
  if (cfg_[idx] & pmpcfg::kL) return;  // Locked entries ignore writes.
  cfg_[idx] = cfg;
}

void PmpUnit::set_addr(unsigned idx, u64 pmpaddr) {
  ++write_gen_;
  if (idx >= kPmpEntryCount) return;
  if (cfg_[idx] & pmpcfg::kL) return;
  // A locked TOR entry also locks the address register below it.
  if (idx + 1 < kPmpEntryCount && (cfg_[idx + 1] & pmpcfg::kL) &&
      match_mode(idx + 1) == PmpMatch::kTor) {
    return;
  }
  addr_[idx] = pmpaddr & mask_lo(54);  // bits [55:2]
}

std::optional<std::pair<PhysAddr, PhysAddr>> PmpUnit::entry_range(unsigned idx) const {
  if (idx >= kPmpEntryCount) return std::nullopt;
  switch (match_mode(idx)) {
    case PmpMatch::kOff:
      return std::nullopt;
    case PmpMatch::kTor: {
      const PhysAddr lo = idx == 0 ? 0 : (addr_[idx - 1] << 2);
      const PhysAddr hi = addr_[idx] << 2;
      if (hi <= lo) return std::nullopt;
      return std::make_pair(lo, hi);
    }
    case PmpMatch::kNa4: {
      const PhysAddr lo = addr_[idx] << 2;
      return std::make_pair(lo, lo + 4);
    }
    case PmpMatch::kNapot: {
      // pmpaddr = (base >> 2) | ((size/8) - 1); trailing ones give the size.
      const u64 a = addr_[idx];
      const unsigned ones = static_cast<unsigned>(std::countr_one(a));
      const u64 size = u64{1} << (ones + 3);
      const PhysAddr lo = (a & ~mask_lo(ones)) << 2;
      return std::make_pair(lo, lo + size);
    }
  }
  return std::nullopt;
}

bool PmpUnit::any_active() const {
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    if (match_mode(i) != PmpMatch::kOff) return true;
  }
  return false;
}

bool PmpUnit::is_secure(PhysAddr pa, u64 size) const {
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    if (!(cfg_[i] & pmpcfg::kS)) continue;
    const auto r = entry_range(i);
    if (r && range_contains(r->first, r->second - r->first, pa, size)) return true;
  }
  return false;
}

PmpDecision PmpUnit::scan(PhysAddr pa, u64 size, AccessType type, AccessKind kind,
                          Privilege priv, bool* page_uniform) const {
  const PhysAddr page_pa = align_down(pa, kPageSize);
  auto inside_page = [page_pa](PhysAddr b) {
    return b > page_pa && b - page_pa < kPageSize;
  };
  // Find the highest-priority (lowest-index) entry that matches any byte.
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    const auto r = entry_range(i);
    if (!r) continue;
    if (page_uniform != nullptr && (inside_page(r->first) || inside_page(r->second))) {
      *page_uniform = false;
    }
    const u64 rsize = r->second - r->first;
    if (!ranges_overlap(r->first, rsize, pa, size)) continue;
    if (!range_contains(r->first, rsize, pa, size)) {
      // Straddling the matching entry fails regardless of permissions.
      return {false, PmpDenyReason::kPartialMatch, static_cast<int>(i)};
    }

    const u8 c = cfg_[i];
    const bool secure = (c & pmpcfg::kS) != 0;
    const bool locked = (c & pmpcfg::kL) != 0;

    // PTStore secure-region semantics first: they override the base R/W/X
    // rules and apply to S/U modes (M-mode is the trusted monitor; its
    // regular accesses honour the L bit as in the base spec).
    if (secure_enforcement_ && (priv != Privilege::kMachine || locked)) {
      if (secure && kind == AccessKind::kRegular) {
        return {false, PmpDenyReason::kSecureRegular, static_cast<int>(i)};
      }
      if (!secure && kind == AccessKind::kPtInsn) {
        return {false, PmpDenyReason::kPtInsnOutsideSecure, static_cast<int>(i)};
      }
    }

    // Base PMP permission check. M-mode skips it unless the entry is locked.
    if (priv == Privilege::kMachine && !locked) {
      return {true, PmpDenyReason::kNone, static_cast<int>(i)};
    }
    const bool ok = (type == AccessType::kRead && (c & pmpcfg::kR)) ||
                    (type == AccessType::kWrite && (c & pmpcfg::kW)) ||
                    (type == AccessType::kExecute && (c & pmpcfg::kX));
    if (!ok) return {false, PmpDenyReason::kPermission, static_cast<int>(i)};
    return {true, PmpDenyReason::kNone, static_cast<int>(i)};
  }

  // No entry matched.
  if (priv == Privilege::kMachine) return {true, PmpDenyReason::kNone, -1};
  if (!any_active()) return {true, PmpDenyReason::kNone, -1};
  // ld.pt/sd.pt may only touch the secure region, which is by definition
  // covered by an S=1 entry; missing everything is a fault for them too.
  if (secure_enforcement_ && kind == AccessKind::kPtInsn) {
    return {false, PmpDenyReason::kPtInsnOutsideSecure, -1};
  }
  return {false, PmpDenyReason::kNoMatch, -1};
}

std::string PmpUnit::describe() const {
  std::ostringstream os;
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    const auto r = entry_range(i);
    if (!r) continue;
    const u8 c = cfg_[i];
    os << "pmp" << i << ": [0x" << std::hex << r->first << ", 0x" << r->second
       << ") " << ((c & pmpcfg::kR) ? "R" : "-") << ((c & pmpcfg::kW) ? "W" : "-")
       << ((c & pmpcfg::kX) ? "X" : "-") << ((c & pmpcfg::kS) ? "S" : "-")
       << ((c & pmpcfg::kL) ? "L" : "-") << std::dec << "\n";
  }
  return os.str();
}

}  // namespace ptstore
