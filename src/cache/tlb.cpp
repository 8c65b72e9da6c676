#include "cache/tlb.h"

#include "common/bits.h"

namespace ptstore {

u64 Tlb::vpn_mask(unsigned level) {
  // Sv39 VPN is 27 bits (3 x 9). A level-N leaf ignores the low 9*N VPN bits.
  return mask_lo(27) & ~mask_lo(9 * level);
}

const TlbEntry* Tlb::lookup_scan(VirtAddr va, u16 asid) {
  const u64 vpn = (va >> kPageShift) & kVpnMask;
  ++tick_;
  for (auto& e : slots_) {
    if (!e.valid) continue;
    if (!e.global && e.asid != asid) continue;
    if (((vpn ^ e.vpn) & e.vpn_mask) == 0) {
      e.lru_tick = tick_;
      hits_.add();
      last_vpn_ = vpn;
      last_asid_ = asid;
      last_entry_ = &e;
      ++memo_gen_;
      return &e;
    }
  }
  misses_.add();
  return nullptr;
}

void Tlb::insert(VirtAddr va, u16 asid, unsigned level, u64 pte, bool global) {
  const u64 vpn = (va >> kPageShift) & kVpnMask;
  ++tick_;
  TlbEntry* victim = &slots_[0];
  for (auto& e : slots_) {
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.lru_tick < victim->lru_tick) victim = &e;
  }
  *victim = TlbEntry{.valid = true,
                     .global = global,
                     .asid = asid,
                     .vpn = vpn,
                     .level = level,
                     .vpn_mask = vpn_mask(level),
                     .pte = pte,
                     .lru_tick = tick_};
  drop_memo();
  fills_.add();
}

void Tlb::flush(std::optional<VirtAddr> va, std::optional<u16> asid) {
  const std::optional<u64> vpn =
      va ? std::optional<u64>((*va >> kPageShift) & mask_lo(27)) : std::nullopt;
  for (auto& e : slots_) {
    if (!e.valid) continue;
    // Per the privileged spec, ASID-specific flushes do not remove global
    // entries; address-specific flushes match superpage reach.
    if (asid && !e.global && e.asid != *asid) continue;
    if (asid && e.global) continue;
    if (vpn && ((*vpn ^ e.vpn) & e.vpn_mask) != 0) continue;
    e.valid = false;
  }
  drop_memo();
  flushes_.add();
}

unsigned Tlb::occupancy() const {
  unsigned n = 0;
  for (const auto& e : slots_) n += e.valid ? 1 : 0;
  return n;
}

}  // namespace ptstore
