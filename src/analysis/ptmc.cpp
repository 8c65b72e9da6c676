#include "analysis/ptmc.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "telemetry/json.h"

namespace ptstore::analysis::ptmc {

// ---------------------------------------------------------------------------
// State packing. Layout (LSB first):
//   [0]      boundary - 1
//   [1..12]  pages[i]: status (1) + content (2), 3 bits each
//   [13..36] procs[p]: live (1) + pgd (3) + token (2) + ghost (3) + extra (3)
//   [37..44] tokens[t]: live (1) + pt_page (3)
//   [45..49] satp: root (3) + s (1) + bound (1)
//   [50..52] forced_alloc
//   [53..57] satp1: root (3) + s (1) + bound (1)   (SMP extension)
// 58 bits total — fits a u64 key. satp1 is constant in single-hart mode, so
// the historical 53-bit keyspace is embedded unchanged.

u64 State::pack() const {
  u64 k = static_cast<u64>(boundary - 1);
  unsigned shift = 1;
  for (unsigned i = 0; i < kNumPages; ++i) {
    const u64 f = static_cast<u64>(pages[i].status) |
                  (static_cast<u64>(pages[i].content) << 1);
    k |= f << shift;
    shift += 3;
  }
  for (unsigned p = 0; p < kNumProcs; ++p) {
    const u64 f = static_cast<u64>(procs[p].live) |
                  (static_cast<u64>(procs[p].pgd) << 1) |
                  (static_cast<u64>(procs[p].token) << 4) |
                  (static_cast<u64>(procs[p].ghost_root) << 6) |
                  (static_cast<u64>(procs[p].extra_pt) << 9);
    k |= f << shift;
    shift += 12;
  }
  for (unsigned t = 0; t < kNumProcs; ++t) {
    const u64 f = static_cast<u64>(tokens[t].live) |
                  (static_cast<u64>(tokens[t].pt_page) << 1);
    k |= f << shift;
    shift += 4;
  }
  k |= (static_cast<u64>(satp.root) | (static_cast<u64>(satp.s) << 3) |
        (static_cast<u64>(satp.bound) << 4))
       << shift;
  shift += 5;
  k |= static_cast<u64>(forced_alloc) << shift;
  shift += 3;
  k |= (static_cast<u64>(satp1.root) | (static_cast<u64>(satp1.s) << 3) |
        (static_cast<u64>(satp1.bound) << 4))
       << shift;
  return k;
}

State State::unpack(u64 key) {
  const auto take = [&key](unsigned bits) {
    const u64 f = key & ((u64{1} << bits) - 1);
    key >>= bits;
    return static_cast<u8>(f);
  };
  const auto take_satp = [&take] {
    SatpState sp;
    sp.root = take(3);
    sp.s = take(1) != 0;
    sp.bound = take(1) != 0;
    return sp;
  };
  State s;
  s.boundary = static_cast<u8>(take(1) + 1);
  for (PageState& pg : s.pages) {
    pg.status = static_cast<PageStatus>(take(1));
    pg.content = static_cast<PageContent>(take(2));
  }
  for (ProcState& p : s.procs) {
    p.live = take(1) != 0;
    p.pgd = take(3);
    p.token = static_cast<TokenRef>(take(2));
    p.ghost_root = take(3);
    p.extra_pt = take(3);
  }
  for (TokenState& t : s.tokens) {
    t.live = take(1) != 0;
    t.pt_page = take(3);
  }
  s.satp = take_satp();
  s.forced_alloc = take(3);
  s.satp1 = take_satp();
  return s;
}

State State::initial() { return State{}; }

// ---------------------------------------------------------------------------
// Properties.

const char* prop_name(unsigned idx) {
  static const char* kNames[kNumProps] = {"P1", "P2", "P3", "P4"};
  return idx < kNumProps ? kNames[idx] : "?";
}

const char* prop_text(unsigned idx) {
  static const char* kTexts[kNumProps] = {
      "PTW never consumes an attacker PTE outside the secure region",
      "satp never carries a root the kernel did not issue to the running process",
      "no two live tokens alias the same page table",
      "no PT page is placed with non-zero content (freed pages zeroed before reuse)",
  };
  return idx < kNumProps ? kTexts[idx] : "?";
}

// ---------------------------------------------------------------------------
// Op alphabet.

const std::vector<Op>& all_ops() {
  static const std::vector<Op> ops = [] {
    std::vector<Op> v;
    for (u8 p = 0; p < kNumProcs; ++p) {
      v.push_back({OpKind::kSpawn, p, 0});
      v.push_back({OpKind::kExitMm, p, 0});
      v.push_back({OpKind::kSwitchMm, p, 0});
      v.push_back({OpKind::kAllocPt, p, 0});
      v.push_back({OpKind::kFreePt, p, 0});
    }
    v.push_back({OpKind::kGrow, 0, 0});
    v.push_back({OpKind::kUserAccess, 0, 0});
    for (u8 pg = 0; pg < kNumPages; ++pg) v.push_back({OpKind::kAtkWritePage, pg, 0});
    for (u8 p = 0; p < kNumProcs; ++p)
      for (u8 pg = 0; pg < kNumPages; ++pg)
        v.push_back({OpKind::kAtkRedirectPgd, p, pg});
    for (u8 p = 0; p < kNumProcs; ++p)
      for (u8 r = 0; r < 4; ++r)
        v.push_back({OpKind::kAtkRedirectToken, p, r});
    for (u8 slot = 0; slot < kNumProcs; ++slot)
      for (u8 pg = 0; pg < kNumPages; ++pg)
        v.push_back({OpKind::kAtkForgeToken, slot, pg});
    for (u8 pg = 0; pg < kNumPages; ++pg)
      v.push_back({OpKind::kAtkCorruptAllocator, pg, 0});
    for (u8 pg = 0; pg < kNumPages; ++pg)
      v.push_back({OpKind::kAtkSatpWrite, pg, 0});
    return v;
  }();
  return ops;
}

const std::vector<Op>& all_ops_smp() {
  // Append-only: IDs 0..47 are all_ops() verbatim; the hart-1 interleavings
  // take 48..50. Only the ops whose semantics read per-hart state run on
  // hart 1 — everything else is hart-agnostic (shared memory), and modelling
  // it per-hart would only square the alphabet without reaching new states.
  static const std::vector<Op> ops = [] {
    std::vector<Op> v = all_ops();
    for (u8 p = 0; p < kNumProcs; ++p)
      v.push_back({OpKind::kSwitchMm, p, 0, 1});
    v.push_back({OpKind::kUserAccess, 0, 0, 1});
    return v;
  }();
  return ops;
}

namespace {

const char* token_ref_name(TokenRef r) {
  switch (r) {
    case TokenRef::kNone: return "none";
    case TokenRef::kSlot0: return "slot0";
    case TokenRef::kSlot1: return "slot1";
    case TokenRef::kFake: return "fake";
  }
  return "?";
}

std::string page_name(u8 pg) {
  if (pg == kNoPage) return "-";
  return "page" + std::to_string(pg);
}

}  // namespace

std::string describe(const Op& op) {
  std::ostringstream os;
  switch (op.kind) {
    case OpKind::kSpawn: os << "spawn(p" << int{op.a} << ")"; break;
    case OpKind::kExitMm: os << "exit_mm(p" << int{op.a} << ")"; break;
    case OpKind::kSwitchMm: os << "switch_mm(p" << int{op.a} << ")"; break;
    case OpKind::kAllocPt: os << "alloc_pt(p" << int{op.a} << ")"; break;
    case OpKind::kFreePt: os << "free_pt(p" << int{op.a} << ")"; break;
    case OpKind::kGrow: os << "grow_secure_region()"; break;
    case OpKind::kUserAccess: os << "user_access()"; break;
    case OpKind::kAtkWritePage:
      os << "atk: write " << page_name(op.a);
      break;
    case OpKind::kAtkRedirectPgd:
      os << "atk: pcb[" << int{op.a} << "].pgd = " << page_name(op.b);
      break;
    case OpKind::kAtkRedirectToken:
      os << "atk: pcb[" << int{op.a}
         << "].token = " << token_ref_name(static_cast<TokenRef>(op.b));
      break;
    case OpKind::kAtkForgeToken:
      os << "atk: token_slot[" << int{op.a} << "] := " << page_name(op.b);
      break;
    case OpKind::kAtkCorruptAllocator:
      os << "atk: freelist head = " << page_name(op.a);
      break;
    case OpKind::kAtkSatpWrite:
      os << "atk: csrw satp = " << page_name(op.a);
      break;
  }
  if (op.hart != 0) os << "@h" << int{op.hart};
  return os.str();
}

std::string describe(const State& s) {
  std::ostringstream os;
  os << "sr>=" << int{s.boundary} << " pages[";
  for (unsigned i = 0; i < kNumPages; ++i) {
    if (i != 0) os << " ";
    os << (s.pages[i].status == PageStatus::kPt ? "PT" : "fr");
    switch (s.pages[i].content) {
      case PageContent::kZero: os << "/0"; break;
      case PageContent::kPtData: os << "/pt"; break;
      case PageContent::kAttacker: os << "/ATK"; break;
    }
  }
  os << "]";
  for (unsigned p = 0; p < kNumProcs; ++p) {
    os << " p" << p;
    if (!s.procs[p].live) {
      os << "(dead)";
      continue;
    }
    os << "(pgd=" << page_name(s.procs[p].pgd)
       << ",tok=" << token_ref_name(s.procs[p].token)
       << ",ghost=" << page_name(s.procs[p].ghost_root);
    if (s.procs[p].extra_pt != kNoPage)
      os << ",extra=" << page_name(s.procs[p].extra_pt);
    os << ")";
  }
  os << " tokens[";
  for (unsigned t = 0; t < kNumProcs; ++t) {
    if (t != 0) os << " ";
    if (s.tokens[t].live)
      os << page_name(s.tokens[t].pt_page);
    else
      os << "-";
  }
  os << "] satp=" << page_name(s.satp.root) << (s.satp.s ? "+S" : "")
     << (s.satp.bound ? "" : "!unbound");
  // Hart 1's satp appears only once it has left its reset value, so
  // single-hart renderings are unchanged.
  if (s.satp1.root != kNoPage || s.satp1.s || !s.satp1.bound) {
    os << " satp@h1=" << page_name(s.satp1.root) << (s.satp1.s ? "+S" : "")
       << (s.satp1.bound ? "" : "!stale");
  }
  if (s.forced_alloc != kNoPage) os << " forced=" << page_name(s.forced_alloc);
  return os.str();
}

// ---------------------------------------------------------------------------
// Transition semantics.

namespace {

/// Lowest free page inside the secure region, or kNoPage.
u8 lowest_free_secure(const State& s) {
  for (u8 pg = s.boundary; pg < kNumPages; ++pg) {
    if (s.pages[pg].status == PageStatus::kFree) return pg;
  }
  return kNoPage;
}

u8 alias_violation(const State& s) {
  // P3 is about *processes*: a forged entry in a dead process's slot binds
  // nobody until that slot's owner exists, so both procs must be live too.
  if (s.procs[0].live && s.procs[1].live && s.tokens[0].live &&
      s.tokens[1].live && s.tokens[0].pt_page == s.tokens[1].pt_page)
    return kP3;
  return 0;
}

/// Shared PT-page allocation path (spawn / alloc_pt): picks the page the
/// buddy allocator would hand out (corrupted free list first), models the
/// S-bit fault on out-of-region targets and the §V-E3 zero check. Returns
/// nullopt when the op is architecturally blocked; otherwise fills `pg` and
/// sets up `suc.next`'s page/forced fields (violations/note for the zero
/// path included). `detected` reports a zero-check rejection: the successor
/// is valid (the corrupt free-list entry was consumed) but no page was
/// placed.
std::optional<Successor> alloc_pt_page(const State& s, const ModelConfig& cfg,
                                       u8& pg, bool& detected,
                                       std::string* note) {
  detected = false;
  const bool forced = s.forced_alloc != kNoPage;
  pg = forced ? s.forced_alloc : lowest_free_secure(s);
  if (pg == kNoPage) return std::nullopt;  // OOM: op fails cleanly.
  // Initialising the page goes through sd.pt; with S-bit enforcement on, a
  // target outside the secure region faults and the allocation is aborted.
  if (cfg.s_bit && !is_secure(s, pg)) return std::nullopt;

  Successor suc;
  suc.next = s;
  if (forced) suc.next.forced_alloc = kNoPage;
  if (s.pages[pg].content != PageContent::kZero) {
    if (cfg.zero_check) {
      // §V-E3: a PT page must arrive all-zero; a dirty page means the
      // free list double-issued (or the attacker primed it) — reject.
      detected = true;
      if (note) *note = "zero-check rejected non-zero " + page_name(pg);
      return suc;
    }
    suc.violations |= kP4;
    if (note)
      *note = "P4: " + page_name(pg) + " placed as PT with non-zero content";
  }
  suc.next.pages[pg] = {PageStatus::kPt, PageContent::kPtData};
  return suc;
}

std::optional<Successor> apply_spawn(const State& s, u8 p,
                                     const ModelConfig& cfg,
                                     std::string* note) {
  if (s.procs[p].live) return std::nullopt;
  u8 pg = kNoPage;
  bool detected = false;
  auto suc = alloc_pt_page(s, cfg, pg, detected, note);
  if (!suc) return std::nullopt;
  if (detected) return suc;  // Allocation refused; no process created.
  suc->next.procs[p] = {true, pg,
                        p == 0 ? TokenRef::kSlot0 : TokenRef::kSlot1, pg,
                        kNoPage};
  suc->next.tokens[p] = {true, pg};
  suc->violations |= alias_violation(suc->next);
  if (note) {
    if (note->empty())
      *note = "p" + std::to_string(p) + " root = " + page_name(pg);
    if (suc->violations & kP3) *note += "; P3: token tables alias";
  }
  return suc;
}

std::optional<Successor> apply_alloc_pt(const State& s, u8 p,
                                        const ModelConfig& cfg,
                                        std::string* note) {
  if (!s.procs[p].live || s.procs[p].extra_pt != kNoPage) return std::nullopt;
  u8 pg = kNoPage;
  bool detected = false;
  auto suc = alloc_pt_page(s, cfg, pg, detected, note);
  if (!suc) return std::nullopt;
  if (detected) return suc;
  suc->next.procs[p].extra_pt = pg;
  if (note && note->empty())
    *note = "p" + std::to_string(p) + " grew " + page_name(pg);
  return suc;
}

std::optional<Successor> apply_switch(const State& s, u8 p,
                                      const ModelConfig& cfg, u8 hart,
                                      std::string* note) {
  if (!s.procs[p].live) return std::nullopt;
  const u8 pgd = s.procs[p].pgd;
  if (pgd == kNoPage) return std::nullopt;
  if (cfg.token_check) {
    bool valid = false;
    switch (s.procs[p].token) {
      case TokenRef::kNone:
        break;
      case TokenRef::kSlot0:
      case TokenRef::kSlot1: {
        // The token's user pointer must point back at this PCB, so only the
        // process's own slot can validate — and only for the root it binds.
        const unsigned slot = s.procs[p].token == TokenRef::kSlot0 ? 0 : 1;
        valid = slot == p && s.tokens[slot].live &&
                s.tokens[slot].pt_page == pgd;
        break;
      }
      case TokenRef::kFake:
        // A forged token image in normal memory validates only if ld.pt can
        // reach it (S-bit enforcement off), the attacker has written it, and
        // the credential scheme is forgeable at all (not DPTI/PTAuth).
        valid = !cfg.s_bit && !cfg.cred_unforgeable &&
                s.pages[0].content == PageContent::kAttacker;
        break;
    }
    if (!valid) return std::nullopt;  // switch_mm: kTokenReject.
  }
  Successor suc;
  suc.next = s;
  const bool bound =
      s.procs[p].ghost_root != kNoPage && pgd == s.procs[p].ghost_root;
  suc.next.satp_of(hart) = {pgd, cfg.ptw_check, bound};
  if (!bound) suc.violations |= kP2;
  if (note) {
    *note = "satp <- " + page_name(pgd);
    if (hart != 0) *note += " on hart " + std::to_string(hart);
    if (!bound) *note += "; P2: root was never issued to p" + std::to_string(p);
  }
  return suc;
}

std::optional<Successor> apply_user_access(const State& s,
                                           const ModelConfig& cfg, u8 hart,
                                           std::string* note) {
  const SatpState& sp = s.satp_of(hart);
  const u8 root = sp.root;
  if (root == kNoPage) return std::nullopt;  // Kernel address space.
  Successor suc;
  suc.next = s;
  // SMP: `!bound` on a still-held root marks a satp left stale by a
  // shootdown that never arrived (ipi sabotage). Walking it is harmless
  // while the page sits free and zeroed — the breach is when the allocator
  // recycles it into ANOTHER process's page table and this hart silently
  // runs on an address space the kernel never issued to it: P2.
  if (cfg.nharts >= 2 && !sp.bound &&
      s.pages[root].status == PageStatus::kPt) {
    suc.violations = kP2;
    if (note)
      *note = "P2: hart " + std::to_string(hart) + " walked stale root " +
              page_name(root) + ", recycled to another process";
    return suc;
  }
  if (!is_secure(s, root)) {
    // Root fetch comes from normal memory. With satp.S the walker refuses
    // it (architectural fault — attack blocked, nothing to report). Without
    // it, consuming an attacker-written entry is exactly P1; zeroed or
    // stale-PT pages fault or walk benignly instead. A verifying walker
    // (PTAuth) faults on the unauthenticated entry the same way.
    if (sp.s) return std::nullopt;
    if (s.pages[root].content != PageContent::kAttacker) return std::nullopt;
    if (cfg.verify_on_walk) return std::nullopt;
    suc.violations = kP1;
    if (note) *note = "P1: walker consumed attacker PTE from " + page_name(root);
    return suc;
  }
  // Root inside the region: the level-0 fetch is in-region, but if the
  // attacker controls the root's *content* its entries point at a fake
  // hierarchy in normal memory (page 0) — the next fetch is out-of-region.
  if (s.pages[root].content == PageContent::kAttacker && !sp.s &&
      !cfg.verify_on_walk && s.pages[0].content == PageContent::kAttacker) {
    suc.violations = kP1;
    if (note) *note = "P1: in-region root chained to attacker tables in page0";
    return suc;
  }
  return std::nullopt;
}

}  // namespace

std::optional<Successor> apply(const State& s, const Op& op,
                               const ModelConfig& cfg, std::string* note) {
  if (note) note->clear();
  switch (op.kind) {
    case OpKind::kSpawn:
      return apply_spawn(s, op.a, cfg, note);
    case OpKind::kExitMm: {
      if (!s.procs[op.a].live) return std::nullopt;
      Successor suc;
      suc.next = s;
      // exit_mm frees the pages the kernel *tracked* for this mm (ghost
      // root + extra), not whatever the attacker redirected pgd to.
      // free_pt_page zeroes on both config branches.
      const u8 ghost = s.procs[op.a].ghost_root;
      const u8 extra = s.procs[op.a].extra_pt;
      if (ghost != kNoPage)
        suc.next.pages[ghost] = {PageStatus::kFree, PageContent::kZero};
      if (extra != kNoPage)
        suc.next.pages[extra] = {PageStatus::kFree, PageContent::kZero};
      suc.next.procs[op.a] = ProcState{};
      suc.next.tokens[op.a] = TokenState{};
      if (note) *note = "p" + std::to_string(op.a) + " reaped";
      // SMP: the teardown's cross-hart shootdown (retire_mm). A remote hart
      // parked on one of the dying roots is repointed at the kernel address
      // space (leave_mm) once its IPI lands; with the sabotage knob the IPI
      // never arrives and its satp goes stale — it keeps the root, and the
      // `bound` ghost drops to mark the missing shootdown.
      if (cfg.nharts >= 2) {
        SatpState& h1 = suc.next.satp1;
        if (h1.root != kNoPage && (h1.root == ghost || h1.root == extra)) {
          if (cfg.ipi) {
            h1 = {kNoPage, h1.s, true};
            if (note) *note += "; hart 1 shot down";
          } else {
            h1.bound = false;
            if (note) *note += "; hart 1 satp stale (no IPI)";
          }
        }
      }
      return suc;
    }
    case OpKind::kSwitchMm:
      return apply_switch(s, op.a, cfg, op.hart, note);
    case OpKind::kAllocPt:
      return apply_alloc_pt(s, op.a, cfg, note);
    case OpKind::kFreePt: {
      if (!s.procs[op.a].live || s.procs[op.a].extra_pt == kNoPage)
        return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.pages[s.procs[op.a].extra_pt] = {PageStatus::kFree,
                                                PageContent::kZero};
      suc.next.procs[op.a].extra_pt = kNoPage;
      if (note) *note = "freed and zeroed";
      return suc;
    }
    case OpKind::kGrow: {
      if (!cfg.allow_grow || s.boundary <= 1) return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.boundary = static_cast<u8>(s.boundary - 1);
      // The donated page keeps its content — the dirty-donation channel the
      // zero check exists to close.
      if (note) *note = "secure region grew over " + page_name(suc.next.boundary);
      return suc;
    }
    case OpKind::kUserAccess:
      return apply_user_access(s, cfg, op.hart, note);
    case OpKind::kAtkWritePage: {
      if (cfg.s_bit && is_secure(s, op.a)) return std::nullopt;  // PMP fault.
      Successor suc;
      suc.next = s;
      // Verifying-walker backends (PTAuth): attacker bytes are
      // indistinguishable from stale PT bytes to every defence predicate —
      // the walker faults on both, the zero check rejects both, and
      // credentials can't be fabricated from them. Folding the two content
      // classes is an exact quotient of the transition system that keeps
      // the placement-unrestricted closure enumerable.
      suc.next.pages[op.a].content =
          cfg.verify_on_walk && cfg.cred_unforgeable ? PageContent::kPtData
                                                     : PageContent::kAttacker;
      if (note) *note = page_name(op.a) + " now attacker-controlled";
      return suc;
    }
    case OpKind::kAtkRedirectPgd: {
      if (!s.procs[op.a].live) return std::nullopt;
      if (s.procs[op.a].pgd == op.b) return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.procs[op.a].pgd = op.b;  // PCB lives in normal memory.
      if (note) *note = "pcb pointer hijacked";
      return suc;
    }
    case OpKind::kAtkRedirectToken: {
      if (!s.procs[op.a].live) return std::nullopt;
      const auto ref = static_cast<TokenRef>(op.b);
      if (s.procs[op.a].token == ref) return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.procs[op.a].token = ref;
      if (note) *note = "pcb token pointer redirected";
      return suc;
    }
    case OpKind::kAtkForgeToken: {
      // The token table sits in the secure region: a regular store into it
      // is exactly what the S bit forbids. Unforgeable-credential backends
      // (DPTI registry, PTAuth MAC) are immune regardless of placement.
      if (cfg.s_bit || cfg.cred_unforgeable) return std::nullopt;
      if (s.tokens[op.a].live && s.tokens[op.a].pt_page == op.b)
        return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.tokens[op.a] = {true, op.b};
      suc.violations |= alias_violation(suc.next);
      if (note) {
        *note = "token slot " + std::to_string(op.a) + " forged -> " +
                page_name(op.b);
        if (suc.violations & kP3) *note += "; P3: token tables alias";
      }
      return suc;
    }
    case OpKind::kAtkCorruptAllocator: {
      if (s.forced_alloc == op.a) return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.forced_alloc = op.a;  // Free lists live in normal memory.
      if (note) *note = "buddy free list corrupted";
      return suc;
    }
    case OpKind::kAtkSatpWrite: {
      if (!cfg.csr_gadget) return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.satp = {op.a, false, false};
      suc.violations = kP2;
      if (note) *note = "P2: gadget wrote satp directly";
      return suc;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// BFS checker.

namespace {

/// Parent edges pack the parent's 58-bit key with the op ID above it.
constexpr unsigned kKeyBits = 58;
constexpr u64 kKeyMask = (u64{1} << kKeyBits) - 1;

/// The visited set and the BFS tree in one open-addressed, linearly probed
/// table: each slot holds a packed state and the edge it was first reached
/// by. It starts at 4096 slots and doubles whenever an insert leaves it
/// more than 3/4 full (Ptmc.Golden pins truncation around every doubling).
class VisitedTable {
 public:
  struct Slot {
    u64 key;
    u64 edge;
  };

  VisitedTable() : slots_(kInitialSlots, Slot{kEmpty, 0}) {}

  u64 size() const { return size_; }

  void prefetch(u64 key) const { __builtin_prefetch(&slots_[home(key)]); }

  /// The slot holding `key`, or else the empty slot an insert of `key`
  /// fills.
  Slot& probe(u64 key) { return slots_[index_of(key)]; }

  /// Fills the empty slot `probe(key)` returned. Invalidates every slot
  /// reference when the table grows.
  void fill(Slot& slot, u64 key, u64 edge) {
    slot = {key, edge};
    if (++size_ * 4 > slots_.size() * 3) grow();
  }

  bool contains(u64 key) const { return slots_[index_of(key)].key == key; }

  /// The edge `key` was first reached by; `key` must be present.
  u64 edge(u64 key) const { return slots_[index_of(key)].edge; }

 private:
  static constexpr size_t kInitialSlots = 4096;
  /// Packed keys are 58 bits, so no state packs to all-ones.
  static constexpr u64 kEmpty = ~u64{0};

  /// Fibonacci hashing: the top log2(slots) bits of key * 2^64/phi.
  size_t home(u64 key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  size_t index_of(u64 key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = home(key);
    while (slots_[i].key != key && slots_[i].key != kEmpty) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2, Slot{kEmpty, 0});
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old) {
      if (s.key != kEmpty) probe(s.key) = s;
    }
  }

  std::vector<Slot> slots_;
  unsigned shift_ = 64 - std::countr_zero(kInitialSlots);
  u64 size_ = 0;
};

Counterexample rebuild_counterexample(unsigned prop_idx, const ModelConfig& cfg,
                                      const std::vector<Op>& alphabet,
                                      const VisitedTable& visited, u64 src_key,
                                      const Op& final_op) {
  // Collect the trace newest-first (the violating op, then the parent chain
  // back to the initial state), then replay it forward — apply() is
  // deterministic, so the replay regenerates every note.
  std::vector<Op> ops{final_op};
  const u64 init_key = State::initial().pack();
  for (u64 key = src_key; key != init_key;) {
    const u64 edge = visited.edge(key);
    ops.push_back(alphabet[edge >> kKeyBits]);
    key = edge & kKeyMask;
  }
  Counterexample ce;
  ce.prop = prop_idx;
  ce.cfg = cfg;
  State cur = State::initial();
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    Step step;
    step.op = *it;
    const auto suc = apply(cur, *it, cfg, &step.note);
    step.after = suc ? suc->next : cur;
    step.violations = suc ? suc->violations : 0;
    ce.steps.push_back(std::move(step));
    if (suc) cur = suc->next;
  }
  return ce;
}

/// Frontier states one worker expands per round. Every worker takes an
/// equal block, so a round needs no work stealing; a level no larger than
/// one block runs inline on the calling thread.
constexpr size_t kBlockStates = 4096;
/// Slots the merge prefetches ahead of the one it probes.
constexpr size_t kMergePrefetch = 8;

/// One worker's expansion of a block of the frontier, in expansion order:
/// the successors not yet visited when the round began (key + parent edge)
/// and every violating transition, visited successor or not. Its worker
/// writes the vector ends on every successor, so chunks sit on separate
/// cache-line pairs.
struct alignas(128) Chunk {
  struct Violation {
    u64 ordinal;  ///< Transition index within the chunk.
    size_t kept;  ///< Kept successors before this transition's.
    u64 src;      ///< Packed source state.
    u8 op_id;
    u8 mask;      ///< Props it violates.
  };
  std::vector<VisitedTable::Slot> fresh;
  std::vector<Violation> violations;
  u64 transitions = 0;
  std::exception_ptr error;
};

void expand(std::span<const u64> block, const std::vector<Op>& alphabet,
            const ModelConfig& cfg, const VisitedTable& visited, Chunk& out) {
  out.fresh.clear();
  out.violations.clear();
  out.transitions = 0;
  for (const u64 key : block) {
    const State s = State::unpack(key);
    // Append every successor and prefetch its slot before the first probe,
    // so the table's cache misses overlap; then drop the visited ones.
    const size_t first = out.fresh.size();
    const size_t first_violation = out.violations.size();
    for (size_t id = 0; id < alphabet.size(); ++id) {
      const auto suc = apply(s, alphabet[id], cfg);
      if (!suc) continue;
      const u64 next = suc->next.pack();
      if (suc->violations != 0)
        out.violations.push_back({out.transitions, out.fresh.size(), key,
                                  static_cast<u8>(id), suc->violations});
      ++out.transitions;
      visited.prefetch(next);
      out.fresh.push_back({next, key | u64{id} << kKeyBits});
    }
    // Compact in place; each of this state's violations moves from its
    // successor's position to the number of successors kept before it.
    size_t kept = first;
    size_t v = first_violation;
    for (size_t i = first; i < out.fresh.size(); ++i) {
      if (v < out.violations.size() && out.violations[v].kept == i)
        out.violations[v++].kept = kept;
      if (!visited.contains(out.fresh[i].key)) out.fresh[kept++] = out.fresh[i];
    }
    out.fresh.resize(kept);
  }
}

}  // namespace

unsigned worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

CheckResult check(const ModelConfig& cfg) {
  if (cfg.nharts != 1 && cfg.nharts != 2)
    throw std::invalid_argument("ptmc: nharts must be 1 or 2, got " +
                                std::to_string(cfg.nharts));
  CheckResult res;
  const std::vector<Op>& alphabet = cfg.nharts == 2 ? all_ops_smp() : all_ops();
  const u64 init_key = State::initial().pack();

  VisitedTable visited;
  visited.fill(visited.probe(init_key), init_key, 0);
  // One BFS level at a time, in expansion order: the same order a FIFO
  // queue would pop, so counts and counterexamples are shortest-first.
  std::vector<u64> level{init_key};
  std::vector<u64> next_level;
  std::vector<Chunk> chunks(worker_count());

  // Takes a chunk's kept successors [from, to) in order: the probe, the
  // state budget and the fill of the serial BFS.
  const auto admit = [&](const Chunk& c, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      if (i + kMergePrefetch < to) visited.prefetch(c.fresh[i + kMergePrefetch].key);
      const auto [key, edge] = c.fresh[i];
      VisitedTable::Slot& slot = visited.probe(key);
      if (slot.key == key) continue;
      if (visited.size() >= cfg.max_states) {
        res.state_capped = true;
        continue;
      }
      visited.fill(slot, key, edge);
      next_level.push_back(key);
    }
  };

  for (u32 depth = 0; !level.empty(); ++depth) {
    res.depth = depth;
    if (depth >= cfg.max_depth) {
      res.depth_capped = true;
      break;
    }
    next_level.clear();
    for (size_t begin = 0; begin < level.size();) {
      // Fork: one block per worker (the caller takes the first), all
      // reading the table as it stood when the round began.
      const std::span<const u64> rest(level.begin() + begin, level.end());
      const size_t used =
          std::min(chunks.size(), (rest.size() + kBlockStates - 1) / kBlockStates);
      const auto block = [&](size_t w) {
        const size_t from = w * kBlockStates;
        return rest.subspan(from, std::min(kBlockStates, rest.size() - from));
      };
      {
        std::vector<std::jthread> helpers;
        for (size_t w = 1; w < used; ++w) {
          helpers.emplace_back([&, w] {
            try {
              expand(block(w), alphabet, cfg, visited, chunks[w]);
            } catch (...) {
              chunks[w].error = std::current_exception();
            }
          });
        }
        expand(block(0), alphabet, cfg, visited, chunks[0]);
      }  // Join.
      begin += std::min(rest.size(), used * kBlockStates);

      // Merge in frontier order.
      for (size_t w = 0; w < used; ++w) {
        const Chunk& c = chunks[w];
        if (c.error) std::rethrow_exception(c.error);
        size_t taken = 0;
        for (const Chunk::Violation& v : c.violations) {
          admit(c, taken, v.kept);
          taken = v.kept;
          for (unsigned p = 0; p < kNumProps; ++p) {
            const u8 bit = static_cast<u8>(1u << p);
            if ((v.mask & bit) != 0 && (res.props_violated & bit) == 0) {
              res.props_violated |= bit;
              res.counterexamples.push_back(rebuild_counterexample(
                  p, cfg, alphabet, visited, v.src, alphabet[v.op_id]));
            }
          }
          if (cfg.stop_after_violated != 0 &&
              (res.props_violated & cfg.stop_after_violated) ==
                  cfg.stop_after_violated) {
            res.transitions += v.ordinal + 1;
            res.early_stopped = true;
            res.states = visited.size();
            return res;
          }
        }
        admit(c, taken, c.fresh.size());
        res.transitions += c.transitions;
      }
    }
    level.swap(next_level);
  }
  res.states = visited.size();
  res.complete = !res.depth_capped && !res.state_capped;
  return res;
}

const Counterexample* CheckResult::counterexample_for(unsigned prop_idx) const {
  for (const auto& ce : counterexamples) {
    if (ce.prop == prop_idx) return &ce;
  }
  return nullptr;
}

std::string CheckResult::format() const {
  std::ostringstream os;
  os << states << " state(s), " << transitions << " transition(s), depth "
     << depth;
  if (complete) os << " (closure complete)";
  if (depth_capped) os << " (depth-capped)";
  if (state_capped) os << " (state-capped)";
  if (early_stopped) os << " (stopped at first target violation)";
  os << "\n";
  for (unsigned i = 0; i < kNumProps; ++i) {
    const u8 bit = static_cast<u8>(1u << i);
    if ((props_checked & bit) == 0) continue;
    os << "  " << prop_name(i) << " — " << prop_text(i) << ": ";
    if ((props_violated & bit) == 0) {
      os << (complete ? "HOLDS (exhaustive within bound)" : "holds within bound");
    } else {
      os << "VIOLATED";
      if (const Counterexample* ce = counterexample_for(i))
        os << " (" << ce->steps.size() << "-step counterexample)";
    }
    os << "\n";
  }
  for (const auto& ce : counterexamples) {
    os << "counterexample for " << prop_name(ce.prop) << ":\n";
    for (size_t i = 0; i < ce.steps.size(); ++i) {
      const Step& st = ce.steps[i];
      os << "  " << i + 1 << ". " << describe(st.op);
      if (!st.note.empty()) os << "  [" << st.note << "]";
      os << "\n";
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Mutation matrix.

std::vector<MutationEntry> mutation_matrix(const ModelConfig& base) {
  std::vector<MutationEntry> m;
  {  // P1 needs the walker check *and* the token check gone: token
     // validation alone keeps satp on issued (in-region) roots.
    MutationEntry e{"ptw", base, kP1, kP2, ""};
    e.cfg.ptw_check = false;
    e.cfg.token_check = false;
    e.rationale =
        "satp.S off and switch_mm unguarded: a hijacked pgd reaches an "
        "attacker hierarchy in normal memory and the walker consumes it";
    m.push_back(e);
  }
  {  // P2: token validation is exactly the root-provenance check.
    MutationEntry e{"token", base, kP2, 0, ""};
    e.cfg.token_check = false;
    e.rationale =
        "switch_mm no longer matches pgd against the issued token: any "
        "redirected PCB pointer lands in satp";
    m.push_back(e);
  }
  {  // P3: the S bit is what makes the token table unwritable.
    MutationEntry e{"sbit", base, kP3, kP2, ""};
    e.cfg.s_bit = false;
    e.rationale =
        "regular stores reach the token table: a forged entry binds a "
        "second live process to the same page table";
    m.push_back(e);
  }
  {  // P4: the zero check is the overlapping-allocation detector.
    MutationEntry e{"zero", base, kP4, kP3, ""};
    e.cfg.zero_check = false;
    e.rationale =
        "a corrupted free list re-issues a live (non-zero) PT page and the "
        "allocator no longer notices";
    m.push_back(e);
  }
  {  // Defence-in-depth floor: the walker check alone being off breaks
     // nothing — token validation still pins satp to issued roots.
    MutationEntry e{"ptw-alone", base, 0, 0, ""};
    e.cfg.ptw_check = false;
    e.rationale =
        "satp.S off but token validation intact: every reachable satp root "
        "is still a kernel-issued in-region table, so all properties hold";
    m.push_back(e);
  }
  if (base.nharts >= 2) {
    // Appended (never reordered) and only under an SMP base, so the
    // single-hart matrix — and everything golden-pinned to it — is intact.
    MutationEntry e{"ipi", base, kP2, 0, ""};
    e.cfg.ipi = false;
    e.rationale =
        "exit_mm skips the shootdown IPI: a remote hart stays parked on the "
        "retired root, and once the allocator recycles that page into "
        "another process's tables the hart's next user access runs on an "
        "address space the kernel never issued to it";
    m.push_back(e);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Export.

std::string to_dot(const Counterexample& ce) {
  std::ostringstream os;
  os << "digraph ptmc_ce {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\", fontsize=9];\n";
  os << "  s0 [label=\"" << telemetry::json_escape(describe(State::initial()))
     << "\"];\n";
  for (size_t i = 0; i < ce.steps.size(); ++i) {
    const Step& st = ce.steps[i];
    const bool bad = st.violations != 0;
    os << "  s" << i + 1 << " [label=\""
       << telemetry::json_escape(describe(st.after)) << "\"";
    if (bad) os << ", color=red, penwidth=2";
    os << "];\n";
    os << "  s" << i << " -> s" << i + 1 << " [label=\""
       << telemetry::json_escape(describe(st.op)) << "\"";
    if (bad) os << ", color=red";
    os << "];\n";
  }
  os << "  label=\"ptmc counterexample: " << prop_name(ce.prop) << " — "
     << telemetry::json_escape(prop_text(ce.prop)) << "\";\n}\n";
  return os.str();
}

namespace {

void write_config(telemetry::JsonWriter& w, const ModelConfig& cfg) {
  w.begin_object()
      .kv("s_bit", cfg.s_bit)
      .kv("ptw_check", cfg.ptw_check)
      .kv("token_check", cfg.token_check)
      .kv("zero_check", cfg.zero_check)
      .kv("csr_gadget", cfg.csr_gadget)
      .kv("allow_grow", cfg.allow_grow)
      .kv("max_depth", static_cast<u64>(cfg.max_depth))
      .kv("max_states", cfg.max_states);
  // SMP / backend-capability keys are emitted only when they deviate from
  // the historical model, keeping single-hart PTStore JSON byte-identical.
  if (cfg.nharts > 1) {
    w.kv("nharts", static_cast<u64>(cfg.nharts)).kv("ipi", cfg.ipi);
  }
  if (cfg.verify_on_walk) w.kv("verify_on_walk", true);
  if (cfg.cred_unforgeable) w.kv("cred_unforgeable", true);
  w.end_object();
}

}  // namespace

std::string to_json(const CheckResult& r) {
  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.key("properties").begin_array();
  for (unsigned i = 0; i < kNumProps; ++i) {
    const u8 bit = static_cast<u8>(1u << i);
    if ((r.props_checked & bit) == 0) continue;
    w.begin_object()
        .kv("name", prop_name(i))
        .kv("text", prop_text(i))
        .kv("violated", (r.props_violated & bit) != 0)
        .end_object();
  }
  w.end_array();
  w.kv("complete", r.complete)
      .kv("depth_capped", r.depth_capped)
      .kv("state_capped", r.state_capped)
      .kv("early_stopped", r.early_stopped)
      .kv("states", r.states)
      .kv("transitions", r.transitions)
      .kv("depth", static_cast<u64>(r.depth));
  w.key("counterexamples").begin_array();
  for (const auto& ce : r.counterexamples) {
    w.begin_object().kv("property", prop_name(ce.prop));
    w.key("config");
    write_config(w, ce.cfg);
    w.key("steps").begin_array();
    for (const Step& st : ce.steps) {
      w.begin_object()
          .kv("op", describe(st.op))
          .kv("state", describe(st.after))
          .kv("note", st.note)
          .kv("violations", static_cast<u64>(st.violations))
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return os.str();
}

}  // namespace ptstore::analysis::ptmc
