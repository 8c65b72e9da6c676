// PTAuth-style backend (Farkhani et al.): page tables stay in ordinary
// kernel memory — no secure region, no new instructions — and integrity
// comes from authentication. A MAC over (root, pid) is the PCB credential
// checked in switch_mm, so a hijacked or re-pointed pgd fails verification
// even though the PCB itself is attacker-writable. Every mediated PT write
// is signed into an authenticated shadow, and the MMU verifies each PTE it
// fetches from a tracked page against that shadow (verify-on-walk): a PTE
// an attacker planted with plain stores was never signed and vetoes the
// walk. What the scheme does NOT give — and the attack battery records —
// is protection for translations already cached in the TLB (the walker
// never runs) or for the allocator's free-page metadata.
#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <unordered_map>
#include <vector>

#include "common/bits.h"
#include "kernel/isolation.h"
#include "kernel/kernel.h"
#include "telemetry/trace.h"

namespace ptstore {

namespace {

class PtauthBackend : public IsolationBackend, public WalkVerifier {
 public:
  using IsolationBackend::IsolationBackend;

  PtStatus accept_pt_page(PhysAddr page) override {
    // Zero like the stock kernel (GFP_ZERO) — the probe/fill run before the
    // page is tracked, then the page joins the authenticated set with an
    // empty (all-zero) shadow.
    const KAccess z = kmem().pt_bulk_zero(page);
    if (!z.ok) return PtStatus{false, false, false, z.fault};
    pages_[page].clear();
    return PtStatus::success();
  }

  void release_pt_page(PhysAddr page) override {
    core().mem().fill(page, 0, kPageSize);
    pages_.erase(page);
  }

  bool bind_root(Process& proc, PhysAddr root, PtStatus* st) override;
  bool rebind_root(Process& proc, u64 old_cred, PhysAddr root,
                   unsigned hart) override;
  void unbind_root(Process& proc, u64 cred) override {
    (void)proc;
    (void)cred;  // MACs are values, not allocations — nothing to free.
  }
  SwitchResult validate_switch(Process& proc, u64 pgd, unsigned hart) override;

  WalkVerifier* walk_verifier() override { return this; }

  // Mediated PT writes are signed into the shadow; the signing cycles ride
  // on the pt_write_extra charge in KernelMem.
  void on_pt_write(VirtAddr va, u64 v) override {
    PageShadow* s = shadow_of(va);
    if (s == nullptr) return;
    if (v == 0) {
      s->erase(slot_of(va));
    } else {
      s->set(slot_of(va), v);
    }
  }
  void on_pt_page_zeroed(VirtAddr page_va) override {
    if (PageShadow* s = shadow_of(page_va)) s->clear();
  }
  void on_pt_page_copied(VirtAddr dst_page, VirtAddr src_page) override {
    PageShadow* s = shadow_of(dst_page);
    if (s == nullptr) return;
    s->clear();
    for (unsigned slot = 0; slot < kSlots; ++slot) {
      const u64 v = core().mem().read_u64(src_page + 8 * slot);
      if (v != 0) s->set(slot, v);
    }
  }

  // WalkVerifier: authenticate every PTE the walker fetches from a tracked
  // page. Untracked memory (a forged table an attacker points satp at) is
  // not this unit's to judge — the MAC check in switch_mm already refused
  // to install such a root.
  bool check_pte_fetch(PhysAddr pte_addr, u64 pte, Cycles* cost) override {
    const PageShadow* s = shadow_of(pte_addr);
    if (s == nullptr) return true;
    *cost += iso_.mac_cost;
    const u64* signed_pte = s->find(slot_of(pte_addr));
    return pte == (signed_pte == nullptr ? 0 : *signed_pte);
  }
  void on_hw_pte_update(PhysAddr pte_addr, u64 pte) override {
    // Hardware A/D writeback re-signs the updated entry.
    if (PageShadow* s = shadow_of(pte_addr)) s->set(slot_of(pte_addr), pte);
  }

  BackendState save_state() const override {
    BackendState st;
    for (const auto& [page, s] : pages_) st.pages.push_back(page);
    std::sort(st.pages.begin(), st.pages.end());
    for (const PhysAddr page : st.pages) {
      const PageShadow& s = pages_.at(page);
      for (unsigned slot = 0, i = 0; slot < kSlots; ++slot) {
        if (s.has(slot)) st.shadow.emplace_back(page + 8 * slot, s.values[i++]);
      }
    }
    return st;
  }
  void restore_state(const BackendState& st) override {
    pages_.clear();
    for (const PhysAddr page : st.pages) pages_[page];
    for (const auto& [pte_addr, v] : st.shadow) {
      if (PageShadow* s = shadow_of(pte_addr)) s->set(slot_of(pte_addr), v);
    }
  }

 private:
  static constexpr unsigned kSlots = kPageSize / 8;

  /// The signed PTEs of one tracked PT page: bit i of `present` marks slot
  /// i signed, and `values` holds the signed slots' PTEs in slot order.
  /// Page tables are sparse, so this stays small where a full 4 KiB copy
  /// per page would not.
  struct PageShadow {
    std::array<u64, kSlots / 64> present{};
    std::vector<u64> values;

    bool has(unsigned slot) const { return (present[slot / 64] >> (slot % 64)) & 1; }
    /// Index into `values` of `slot`: the signed slots below it.
    size_t rank(unsigned slot) const {
      size_t r = 0;
      for (unsigned w = 0; w < slot / 64; ++w) r += std::popcount(present[w]);
      return r + std::popcount(present[slot / 64] & mask_lo(slot % 64));
    }
    const u64* find(unsigned slot) const {
      return has(slot) ? &values[rank(slot)] : nullptr;
    }
    void set(unsigned slot, u64 v) {
      if (has(slot)) {
        values[rank(slot)] = v;
        return;
      }
      values.insert(values.begin() + static_cast<std::ptrdiff_t>(rank(slot)), v);
      present[slot / 64] |= u64{1} << (slot % 64);
    }
    void erase(unsigned slot) {
      if (!has(slot)) return;
      values.erase(values.begin() + static_cast<std::ptrdiff_t>(rank(slot)));
      present[slot / 64] &= ~(u64{1} << (slot % 64));
    }
    void clear() {
      present.fill(0);
      values.clear();
    }
  };

  /// The shadow of the tracked PT page holding `a`, or null if untracked.
  PageShadow* shadow_of(PhysAddr a) {
    const auto it = pages_.find(align_down(a, kPageSize));
    return it == pages_.end() ? nullptr : &it->second;
  }
  const PageShadow* shadow_of(PhysAddr a) const {
    const auto it = pages_.find(align_down(a, kPageSize));
    return it == pages_.end() ? nullptr : &it->second;
  }
  /// PTE slot of `a` in its page; mediated PT writes and walker fetches
  /// are 8-byte aligned.
  static unsigned slot_of(PhysAddr a) {
    assert(is_aligned(a, 8));
    return static_cast<unsigned>((a & kPageMask) >> 3);
  }

  /// MAC over (root, pid): a splitmix64-shaped keyed mix standing in for
  /// the QARMA64 unit. The high bit is forced so a credential value can
  /// never alias a DRAM address (and is never zero) — an attacker treating
  /// it as a pointer faults deterministically.
  u64 mac_of(PhysAddr root, u64 pid) const {
    u64 x = root ^ (pid * 0x9E3779B97F4A7C15ull) ^ kMacKey;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x | (u64{1} << 63);
  }

  /// Per-design key: the model needs determinism, not secrecy — attacks in
  /// the battery don't try to compute MACs, they replay/forge pointers.
  static constexpr u64 kMacKey = 0xA5C3'9D01'7E66'D0F1ull;

  /// PT pages under authentication -> their last signed PTEs (hashed:
  /// only save_state() needs page order, and it sorts).
  std::unordered_map<PhysAddr, PageShadow> pages_;
};

bool PtauthBackend::bind_root(Process& proc, PhysAddr root, PtStatus* st) {
  (void)st;
  telemetry::ProfScope<Core> prof(core(), "ptauth.mac_sign");
  core().add_cycles(iso_.mac_cost);  // Sign the credential.
  kmem().must_sd(proc.pcb_token_field(), mac_of(root, proc.pid));
  return true;
}

bool PtauthBackend::rebind_root(Process& proc, u64 old_cred, PhysAddr root,
                                unsigned hart) {
  (void)hart;
  (void)old_cred;  // Stale MACs need no teardown.
  telemetry::ProfScope<Core> prof(core(), "ptauth.mac_sign");
  core().add_cycles(iso_.mac_cost);
  kmem().must_sd(proc.pcb_token_field(), mac_of(root, proc.pid));
  return true;
}

SwitchResult PtauthBackend::validate_switch(Process& proc, u64 pgd,
                                            unsigned hart) {
  (void)hart;
  telemetry::ProfScope<Core> prof(core(), "ptauth.mac_verify");
  const u64 cred = kmem().must_ld(proc.pcb_token_field());
  core().add_cycles(iso_.mac_cost);  // Recompute + compare.
  const bool valid = cred == mac_of(pgd, proc.pid);
  if (telemetry::EventRing* tr = telemetry::tracing()) {
    Core& c = core();
    tr->instant(telemetry::Subsystem::kToken, valid ? "mac_ok" : "mac_reject",
                c.cycles(), c.instret(), static_cast<u8>(c.priv()), proc.pid);
  }
  if (!valid) return SwitchResult::kMacInvalid;
  return SwitchResult::kOk;
}

}  // namespace

std::unique_ptr<IsolationBackend> make_ptauth_backend(const IsolationConfig& iso,
                                                      Kernel& k) {
  return std::make_unique<PtauthBackend>(iso, k);
}

}  // namespace ptstore
