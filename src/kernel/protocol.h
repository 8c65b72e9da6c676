// Protocol-op hooks: the kernel operations of the paper's §IV-C protocol
// (alloc_pt / free_pt / copy_mm / switch_mm / exit_mm / secure-region grow)
// exposed as a uniform, structured-result surface. The ptmc bounded model
// checker (src/analysis/ptmc.h) abstracts exactly these transitions. The
// one concrete executor, exec_campaign_op (src/harness/campaign.h), drives
// the kernel through this interface for fleet campaigns and for ptmc
// counterexample replay alike, so every abstract protocol step maps onto
// one call here and every defence that fires maps onto one ProtoStatus.
#pragma once

#include "kernel/kernel.h"

namespace ptstore {

enum class ProtoStatus : u8 {
  kOk = 0,
  kTokenReject,   ///< switch_mm refused the pgd/token binding (§III-C3).
  kZeroDetect,    ///< §V-E3 all-zero check refused a dirty PT page.
  kFault,         ///< An architectural access fault surfaced mid-op (S-bit).
  kOom,           ///< Backing zone exhausted.
  kFailed,        ///< Op-specific failure (bad arguments, no VMA, ...).
  // Backend-specific rejections append here — existing values above are
  // load-bearing (golden reports, replay epilogues) and never renumber.
  kMacReject,     ///< PTAuth credential MAC mismatch in switch_mm.
  kDomainReject,  ///< DPTI: switch_mm root not registered in the PT domain.
};

const char* to_string(ProtoStatus s);

/// True for every credential-style switch_mm rejection, whichever backend
/// raised it (token, MAC, or domain registry).
inline bool is_credential_reject(ProtoStatus s) {
  return s == ProtoStatus::kTokenReject || s == ProtoStatus::kMacReject ||
         s == ProtoStatus::kDomainReject;
}

struct ProtoResult {
  ProtoStatus status = ProtoStatus::kFailed;
  u64 pid = 0;       ///< Subject process, 0 when the op created none.
  PhysAddr root = 0; ///< Page-table root involved, 0 when not meaningful.
  bool ok() const { return status == ProtoStatus::kOk; }
};

/// Thin stateless driver over the kernel's protocol surface.
class ProtocolOps {
 public:
  explicit ProtocolOps(Kernel& k) : k_(k) {}

  /// fork: duplicate `parent`'s mm (allocates a root — the §V-E3 check runs).
  ProtoResult copy_mm(Process& parent);
  /// Map one writable page at `va`, demand-faulting it in — the path that
  /// grows a live mm's page tables (interior alloc_pt calls).
  ProtoResult alloc_pt(Process& proc, VirtAddr va);
  /// Unmap the page at `va` (PT pages themselves are freed at exit_mm).
  ProtoResult free_pt(Process& proc, VirtAddr va);
  /// Context switch with token validation.
  ProtoResult switch_mm(Process& proc);
  /// Terminate and reap (frees + zeroes every PT page of the mm).
  ProtoResult exit_mm(Process& proc);
  /// Secure-region growth by 2^order chunks (§IV-C1).
  ProtoResult grow(unsigned order);

 private:
  static ProtoResult from_status(const PtStatus& st);

  Kernel& k_;
};

}  // namespace ptstore
