// Zoned physical page allocator: the kernel's NORMAL zone plus PTStore's
// dedicated zone at the top of physical memory, selected by GFP flags —
// mirroring the paper's "add a PTStore zone at the high physical addresses,
// and introduce a GFP_PTSTORE flag" (§IV-C1).
#pragma once

#include <functional>

#include "kernel/buddy.h"
#include "telemetry/metrics.h"

namespace ptstore {

/// GFP flags (the subset the model needs).
enum class Gfp : u8 {
  kKernel = 0,   ///< Normal-zone kernel allocation.
  kUser = 1,     ///< Normal-zone user page.
  kPtStore = 2,  ///< PTStore zone: page tables and tokens only.
};

class PageAllocator {
 public:
  /// `normal` spans [normal_base, ptstore_base); `ptstore` spans
  /// [ptstore_base, dram_end). The page_alloc.* counters register in `bank`
  /// (the kernel's).
  PageAllocator(PhysAddr normal_base, PhysAddr ptstore_base, PhysAddr dram_end,
                telemetry::CounterBank& bank)
      : normal_("NORMAL", normal_base, ptstore_base - normal_base),
        ptstore_("PTSTORE", ptstore_base, dram_end - ptstore_base),
        ptstore_requests_(bank.counter("page_alloc.ptstore_requests",
                                       "PTStore-zone allocation requests")),
        adjustments_triggered_(bank.counter(
            "page_alloc.adjustments_triggered",
            "PTStore-zone exhaustions that invoked the grow hook")),
        user_requests_(bank.counter("page_alloc.user_requests",
                                    "normal-zone user-page requests")),
        kernel_requests_(bank.counter("page_alloc.kernel_requests",
                                      "normal-zone kernel requests")) {}

  /// Hook invoked when the PTStore zone runs dry; should grow the zone
  /// (secure-region adjustment) and return true if more pages are available.
  using GrowHook = std::function<bool(unsigned order)>;
  void set_grow_hook(GrowHook hook) { grow_ = std::move(hook); }

  std::optional<PhysAddr> alloc_pages(Gfp gfp, unsigned order = 0);
  void free_pages(PhysAddr pa, unsigned order = 0);

  BuddyZone& normal() { return normal_; }
  BuddyZone& ptstore() { return ptstore_; }
  const BuddyZone& normal() const { return normal_; }
  const BuddyZone& ptstore() const { return ptstore_; }

 private:
  BuddyZone normal_;
  BuddyZone ptstore_;
  GrowHook grow_;
  telemetry::Counter ptstore_requests_;
  telemetry::Counter adjustments_triggered_;
  telemetry::Counter user_requests_;
  telemetry::Counter kernel_requests_;
};

}  // namespace ptstore
