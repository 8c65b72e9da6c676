#include "analysis/pt_audit.h"

#include <sstream>
#include <utility>
#include <vector>

#include "kernel/pagetable.h"
#include "mmu/pte.h"

namespace ptstore::analysis {
namespace {

std::string hex(u64 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// Open-addressed set of page-table page addresses: one flat probe per
/// visit instead of a tree node.
class PageSet {
 public:
  /// True if `pa` was not in the set yet.
  bool insert(PhysAddr pa) {
    if (pa == kEmpty) return !std::exchange(has_empty_key_, true);
    if (2 * (size_ + 1) > slots_.size()) grow();
    if (!place(slots_, pa)) return false;
    ++size_;
    return true;
  }

 private:
  static constexpr PhysAddr kEmpty = ~PhysAddr{0};

  static bool place(std::vector<PhysAddr>& slots, PhysAddr pa) {
    const size_t mask = slots.size() - 1;
    for (size_t i = (pa >> kPageShift) * 0x9E3779B97F4A7C15ull >> 32;; ++i) {
      PhysAddr& s = slots[i & mask];
      if (s == pa) return false;
      if (s == kEmpty) {
        s = pa;
        return true;
      }
    }
  }
  void grow() {
    std::vector<PhysAddr> next(slots_.empty() ? 64 : 2 * slots_.size(), kEmpty);
    for (const PhysAddr pa : slots_) {
      if (pa != kEmpty) place(next, pa);
    }
    slots_ = std::move(next);
  }

  std::vector<PhysAddr> slots_;
  size_t size_ = 0;
  bool has_empty_key_ = false;  ///< A (corrupt) root of ~0 was visited.
};

class Auditor {
 public:
  Auditor(Kernel& kernel, PhysMem& mem)
      : mem_(mem),
        sr_(kernel.sbi().sr_get()),
        secure_zone_(kernel.iso().secure_zone && kernel.sbi().initialized()),
        tokens_(kernel.iso().issue_tokens) {}

  void walk_root(PhysAddr root, const std::string& owner) {
    walk_table(root, 2, true, owner);
  }

  void check_tokens(Kernel& kernel) {
    if (!tokens_) return;
    for (const auto& [pid, proc] : kernel.processes().all()) {
      ++report_.tokens_checked;
      const std::string who = "pid " + std::to_string(pid);
      if (!mem_.is_dram(proc->pcb, kPcbSize)) {
        finding(who + ": PCB " + hex(proc->pcb) + " is not DRAM-backed");
        continue;
      }
      const u64 token = mem_.read_u64(proc->pcb_token_field());
      const u64 pgd = mem_.read_u64(proc->pcb_pgd_field());
      if (!sr_.contains(token, kTokenSize)) {
        finding(who + ": token pointer " + hex(token) +
                " lies outside the secure region");
        continue;
      }
      const u64 pt_ptr = mem_.read_u64(token + kTokenPtPtrOff);
      const u64 user_ptr = mem_.read_u64(token + kTokenUserPtrOff);
      if (user_ptr != proc->pcb_token_field()) {
        finding(who + ": token " + hex(token) + " binds PCB field " +
                hex(user_ptr) + ", expected " + hex(proc->pcb_token_field()));
      }
      if (pt_ptr != pgd) {
        finding(who + ": token " + hex(token) + " protects pgd " +
                hex(pt_ptr) + " but the PCB holds " + hex(pgd));
      }
    }
  }

  AuditReport take() { return std::move(report_); }

 private:
  void walk_table(PhysAddr table, int level, bool kernel_half,
                  const std::string& owner) {
    if (!visited_.insert(table)) return;
    ++report_.tables_checked;
    if (!mem_.is_dram(table, kPageSize)) {
      finding(owner + ": page-table page " + hex(table) +
              " is not DRAM-backed");
      return;
    }
    if (secure_zone_ && !sr_.contains(table, kPageSize)) {
      finding(owner + ": page-table page " + hex(table) +
              " lies outside the secure region");
    }
    for (unsigned idx = 0; idx < 512; ++idx) {
      const u64 entry = mem_.read_u64(table + 8 * idx);
      if (!pte::valid(entry)) continue;
      ++report_.ptes_checked;
      const bool khalf = level == 2 ? idx < kUserRootIndex : kernel_half;
      // Built only for a PTE with a finding.
      const auto at = [&] {
        return owner + " L" + std::to_string(level) + "[" + std::to_string(idx) + "]";
      };
      if (pte::malformed(entry)) {
        finding(at() + ": reserved W-without-R encoding " + hex(entry));
        continue;
      }
      if (pte::is_table(entry)) {
        if (level == 0) {
          finding(at() + ": table pointer at leaf level");
          continue;
        }
        walk_table(pte::pa(entry), level - 1, khalf, owner);
        continue;
      }
      // Leaf. Superpages must be size-aligned; MMIO identity leaves are
      // legitimate, so no DRAM requirement here.
      const u64 leaf_span = u64{1} << (12 + 9 * level);
      if ((pte::pa(entry) & (leaf_span - 1)) != 0) {
        finding(at() + ": misaligned superpage leaf " + hex(entry));
      }
      if (khalf && (entry & pte::kU)) {
        finding(at() + ": kernel-half mapping is user-accessible" +
                std::string((entry & pte::kW) ? " and writable" : "") + " (" +
                hex(entry) + ")");
      }
    }
  }

  void finding(std::string f) { report_.findings.push_back(std::move(f)); }

  PhysMem& mem_;
  SecureRegion sr_;
  bool secure_zone_;
  bool tokens_;
  PageSet visited_;
  AuditReport report_;
};

}  // namespace

AuditReport audit_secure_region(Kernel& kernel, PhysMem& mem) {
  Auditor a(kernel, mem);
  a.walk_root(kernel.kernel_root(), "kernel");
  for (const auto& [pid, proc] : kernel.processes().all()) {
    const u64 pgd = mem.read_u64(proc->pcb_pgd_field());
    a.walk_root(pgd, "pid " + std::to_string(pid));
  }
  a.check_tokens(kernel);
  return a.take();
}

std::string AuditReport::format() const {
  std::ostringstream os;
  os << tables_checked << " table page(s), " << ptes_checked << " PTE(s), "
     << tokens_checked << " token(s) audited\n";
  for (const std::string& f : findings) os << "finding: " << f << "\n";
  os << (ok() ? "secure region well-formed\n" : "AUDIT FAILED\n");
  return os.str();
}

}  // namespace ptstore::analysis
