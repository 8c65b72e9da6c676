#include "pmp/pmp.h"

#include <algorithm>
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

bool PmpUnit::cfg_any_active() const {
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    if (match_mode(i) != PmpMatch::kOff) return true;
  }
  return false;
}

bool PmpUnit::is_secure_scan(PhysAddr pa, u64 size) const {
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    if (!(cfg_[i] & pmpcfg::kS)) continue;
    const auto r = entry_range(i);
    if (r && range_contains(r->first, r->second - r->first, pa, size)) return true;
  }
  return false;
}

PmpDecision PmpUnit::scan(PhysAddr pa, u64 size, AccessType type, AccessKind kind,
                          Privilege priv) const {
  // Find the highest-priority (lowest-index) entry that matches any byte.
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    const auto r = entry_range(i);
    if (!r) continue;
    const u64 rsize = r->second - r->first;
    if (!ranges_overlap(r->first, rsize, pa, size)) continue;
    if (!range_contains(r->first, rsize, pa, size)) {
      // Straddling the matching entry fails regardless of permissions.
      return {false, PmpDenyReason::kPartialMatch, static_cast<int>(i)};
    }
    return decide(static_cast<int>(i), type, kind, priv, true);
  }
  return decide(-1, type, kind, priv, cfg_any_active());
}

PmpDecision PmpUnit::decide(int idx, AccessType type, AccessKind kind, Privilege priv,
                            bool any_active) const {
  if (idx < 0) {
    // No entry matched.
    if (priv == Privilege::kMachine) return {true, PmpDenyReason::kNone, -1};
    if (!any_active) return {true, PmpDenyReason::kNone, -1};
    // ld.pt/sd.pt may only touch the secure region, which is by definition
    // covered by an S=1 entry; missing everything is a fault for them too.
    if (secure_enforcement_ && kind == AccessKind::kPtInsn) {
      return {false, PmpDenyReason::kPtInsnOutsideSecure, -1};
    }
    return {false, PmpDenyReason::kNoMatch, -1};
  }

  const u8 c = cfg_[static_cast<unsigned>(idx)];
  const bool secure = (c & pmpcfg::kS) != 0;
  const bool locked = (c & pmpcfg::kL) != 0;

  // PTStore secure-region semantics first: they override the base R/W/X
  // rules and apply to S/U modes (M-mode is the trusted monitor; its
  // regular accesses honour the L bit as in the base spec).
  if (secure_enforcement_ && (priv != Privilege::kMachine || locked)) {
    if (secure && kind == AccessKind::kRegular) {
      return {false, PmpDenyReason::kSecureRegular, idx};
    }
    if (!secure && kind == AccessKind::kPtInsn) {
      return {false, PmpDenyReason::kPtInsnOutsideSecure, idx};
    }
  }

  // Base PMP permission check. M-mode skips it unless the entry is locked.
  if (priv == Privilege::kMachine && !locked) {
    return {true, PmpDenyReason::kNone, idx};
  }
  const bool ok = (type == AccessType::kRead && (c & pmpcfg::kR)) ||
                  (type == AccessType::kWrite && (c & pmpcfg::kW)) ||
                  (type == AccessType::kExecute && (c & pmpcfg::kX));
  if (!ok) return {false, PmpDenyReason::kPermission, idx};
  return {true, PmpDenyReason::kNone, idx};
}

void PmpUnit::rebuild_map() const {
  map_gen_ = write_gen_;
  map_any_active_ = cfg_any_active();
  map_count_ = 0;
  hint_ = 0;
  ptw_hint_ = 0;

  // Region starts: address 0 and every active entry's two boundaries.
  std::array<PhysAddr, kMaxRegions> starts{};
  std::array<std::optional<std::pair<PhysAddr, PhysAddr>>, kPmpEntryCount> ranges;
  unsigned n = 0;
  starts[n++] = 0;
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    ranges[i] = entry_range(i);
    if (!ranges[i]) continue;
    // A range that ends at or wraps past 2^64 has no interval form here;
    // scan() answers every access instead.
    if (ranges[i]->second <= ranges[i]->first) return;
    starts[n++] = ranges[i]->first;
    starts[n++] = ranges[i]->second;
  }
  std::sort(starts.begin(), starts.begin() + n);
  n = static_cast<unsigned>(std::unique(starts.begin(), starts.begin() + n) -
                            starts.begin());

  constexpr AccessType kTypes[] = {AccessType::kRead, AccessType::kWrite,
                                   AccessType::kExecute};
  constexpr AccessKind kKinds[] = {AccessKind::kRegular, AccessKind::kPtInsn,
                                   AccessKind::kPtw};
  constexpr Privilege kPrivs[] = {Privilege::kUser, Privilege::kSupervisor,
                                  Privilege::kMachine};
  for (unsigned k = 0; k < n; ++k) {
    Region& r = regions_[k];
    r = Region{};
    r.start = starts[k];
    r.last = k + 1 < n ? starts[k + 1] - 1 : ~PhysAddr{0};
    for (unsigned i = 0; i < kPmpEntryCount; ++i) {
      const auto& e = ranges[i];
      // No boundary lies inside the region: covering its start covers it.
      if (!e || r.start < e->first || r.start >= e->second) continue;
      if (r.entry < 0) r.entry = static_cast<i8>(i);
      if (cfg_[i] & pmpcfg::kS) r.secure = true;
    }
    for (const AccessType type : kTypes) {
      for (const AccessKind kind : kKinds) {
        for (const Privilege priv : kPrivs) {
          r.verdict[verdict_index(type, kind, priv)] = static_cast<u8>(
              decide(r.entry, type, kind, priv, map_any_active_).reason);
        }
      }
    }
  }
  map_count_ = n;
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
