// Process lifecycle: fork/exec/exit, VMAs and demand paging, context
// switches with token validation, ASID hygiene, and shared-page refcounts.
#include "kernel/process.h"

#include <gtest/gtest.h>

#include "kernel/system.h"

namespace ptstore {
namespace {

class ProcessTest : public ::testing::TestWithParam<bool> {
 protected:
  ProcessTest() {
    SystemConfig cfg = GetParam() ? SystemConfig::cfi_ptstore() : SystemConfig::baseline();
    cfg.dram_size = MiB(256);
    sys_ = std::make_unique<System>(cfg);
  }
  Kernel& k() { return sys_->kernel(); }
  ProcessManager& pm() { return sys_->kernel().processes(); }
  std::unique_ptr<System> sys_;
};

constexpr VirtAddr kVa = kUserSpaceBase + MiB(16);

TEST_P(ProcessTest, InitProcessExists) {
  EXPECT_NE(k().init_proc(), nullptr);
  EXPECT_EQ(pm().live_count(), 1u);
  EXPECT_NE(pm().pcb_pgd(*k().init_proc()), 0u);
}

TEST_P(ProcessTest, ForkCreatesDistinctAddressSpace) {
  Process* child = pm().fork(*k().init_proc());
  ASSERT_NE(child, nullptr);
  EXPECT_NE(child->pid, k().init_proc()->pid);
  EXPECT_NE(pm().pcb_pgd(*child), pm().pcb_pgd(*k().init_proc()));
  EXPECT_NE(child->asid, k().init_proc()->asid);
  EXPECT_EQ(pm().live_count(), 2u);
  pm().exit(*child);
  EXPECT_EQ(pm().live_count(), 1u);
}

TEST_P(ProcessTest, DemandPagingMapsOnFault) {
  Process& p = *k().init_proc();
  ASSERT_TRUE(pm().add_vma(p, kVa, MiB(1), pte::kR | pte::kW));
  ASSERT_EQ(pm().switch_to(p), SwitchResult::kOk);
  EXPECT_TRUE(k().user_access(p, kVa + 0x100, /*write=*/true));
  EXPECT_EQ(p.user_pages.size(), 1u);
  // Second access hits the now-present page (no new mapping).
  EXPECT_TRUE(k().user_access(p, kVa + 0x200, false));
  EXPECT_EQ(p.user_pages.size(), 1u);
  // A different page faults separately.
  EXPECT_TRUE(k().user_access(p, kVa + kPageSize, false));
  EXPECT_EQ(p.user_pages.size(), 2u);
  pm().remove_vma(p, kVa, MiB(1));
}

TEST_P(ProcessTest, SegfaultOutsideVma) {
  Process& p = *k().init_proc();
  ASSERT_EQ(pm().switch_to(p), SwitchResult::kOk);
  EXPECT_FALSE(k().user_access(p, kVa + GiB(2), true));
}

TEST_P(ProcessTest, WriteToReadOnlyVmaRejected) {
  Process& p = *k().init_proc();
  ASSERT_TRUE(pm().add_vma(p, kVa, kPageSize, pte::kR));
  ASSERT_EQ(pm().switch_to(p), SwitchResult::kOk);
  EXPECT_TRUE(k().user_access(p, kVa, false));   // Read maps it.
  EXPECT_FALSE(k().user_access(p, kVa, true));   // Write stays forbidden.
  pm().remove_vma(p, kVa, kPageSize);
}

TEST_P(ProcessTest, OverlappingVmaRejected) {
  Process& p = *k().init_proc();
  ASSERT_TRUE(pm().add_vma(p, kVa, MiB(1), pte::kR));
  EXPECT_FALSE(pm().add_vma(p, kVa + KiB(512), MiB(1), pte::kR));
  EXPECT_FALSE(pm().add_vma(p, kVa, kPageSize, pte::kR));
  pm().remove_vma(p, kVa, MiB(1));
}

TEST_P(ProcessTest, VmaBelowUserBaseRejected) {
  EXPECT_FALSE(pm().add_vma(*k().init_proc(), kPageSize, kPageSize, pte::kR));
}

TEST_P(ProcessTest, ForkSharesPagesWithRefcount) {
  Process& p = *k().init_proc();
  ASSERT_TRUE(pm().add_vma(p, kVa, kPageSize, pte::kR | pte::kW));
  ASSERT_EQ(pm().switch_to(p), SwitchResult::kOk);
  ASSERT_TRUE(k().user_access(p, kVa, true));
  const PhysAddr shared = p.user_pages[0].second;

  Process* child = pm().fork(p);
  ASSERT_NE(child, nullptr);
  ASSERT_EQ(child->user_pages.size(), 1u);
  EXPECT_EQ(child->user_pages[0].second, shared);  // Same physical page.

  // Child exit must not free the still-referenced page.
  pm().exit(*child);
  EXPECT_FALSE(k().pages().normal().page_is_free(shared));
  pm().remove_vma(p, kVa, kPageSize);
  EXPECT_TRUE(k().pages().normal().page_is_free(shared));
}

TEST_P(ProcessTest, ContextSwitchChangesSatp) {
  Process* a = pm().fork(*k().init_proc());
  Process* b = pm().fork(*k().init_proc());
  ASSERT_TRUE(a && b);
  ASSERT_EQ(pm().switch_to(*a), SwitchResult::kOk);
  const u64 satp_a = sys_->core().mmu().satp();
  ASSERT_EQ(pm().switch_to(*b), SwitchResult::kOk);
  const u64 satp_b = sys_->core().mmu().satp();
  EXPECT_NE(satp_a, satp_b);
  EXPECT_EQ(isa::satp::ppn(satp_b), pm().pcb_pgd(*b) >> kPageShift);
  EXPECT_EQ(isa::satp::asid(satp_b), b->asid);
  // satp.S mirrors the configuration.
  EXPECT_EQ(isa::satp::secure_check(satp_b), GetParam());
  pm().exit(*a);
  pm().exit(*b);
}

TEST_P(ProcessTest, AsidIsolationAcrossProcesses) {
  // Two processes map the same VA to different pages; TLB entries must not
  // leak between them thanks to ASIDs.
  Process* a = pm().fork(*k().init_proc());
  Process* b = pm().fork(*k().init_proc());
  ASSERT_TRUE(a && b);
  ASSERT_TRUE(pm().add_vma(*a, kVa, kPageSize, pte::kR | pte::kW));
  ASSERT_TRUE(pm().add_vma(*b, kVa, kPageSize, pte::kR | pte::kW));
  ASSERT_EQ(pm().switch_to(*a), SwitchResult::kOk);
  ASSERT_TRUE(k().user_access(*a, kVa, true));
  ASSERT_EQ(pm().switch_to(*b), SwitchResult::kOk);
  ASSERT_TRUE(k().user_access(*b, kVa, true));
  const PhysAddr pa_a = a->user_pages[0].second;
  const PhysAddr pa_b = b->user_pages[0].second;
  EXPECT_NE(pa_a, pa_b);
  // Translate under b: must resolve to b's page even though a's entry may
  // still sit in the TLB.
  const auto ref = sys_->core().mmu().translate(
      kVa, AccessType::kRead, AccessKind::kRegular, {Privilege::kUser, false, false});
  ASSERT_TRUE(ref.ok);
  EXPECT_EQ(align_down(ref.pa, kPageSize), pa_b);
  pm().exit(*a);
  pm().exit(*b);
}

TEST_P(ProcessTest, ExitReleasesEverything) {
  const u64 pt_before = k().pagetables().pt_pages_allocated();
  const u64 pcb_before = k().pcb_cache().objects_in_use();
  Process* child = pm().fork(*k().init_proc());
  ASSERT_NE(child, nullptr);
  ASSERT_TRUE(pm().add_vma(*child, kVa, MiB(2), pte::kR | pte::kW));
  ASSERT_EQ(pm().switch_to(*child), SwitchResult::kOk);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(k().user_access(*child, kVa + i * kPageSize, true));
  }
  EXPECT_GT(k().pagetables().pt_pages_allocated(), pt_before);
  pm().exit(*child);
  EXPECT_EQ(k().pagetables().pt_pages_allocated(), pt_before);
  EXPECT_EQ(k().pcb_cache().objects_in_use(), pcb_before);
  ASSERT_EQ(pm().switch_to(*k().init_proc()), SwitchResult::kOk);
}

TEST_P(ProcessTest, MprotectDropsWriteAccess) {
  Process& p = *k().init_proc();
  ASSERT_TRUE(pm().add_vma(p, kVa, kPageSize, pte::kR | pte::kW));
  ASSERT_EQ(pm().switch_to(p), SwitchResult::kOk);
  ASSERT_TRUE(k().user_access(p, kVa, true));
  ASSERT_TRUE(pm().protect_vma(p, kVa, kPageSize, pte::kR));
  EXPECT_TRUE(k().user_access(p, kVa, false));
  EXPECT_FALSE(k().user_access(p, kVa, true));
  pm().remove_vma(p, kVa, kPageSize);
}

TEST_P(ProcessTest, FindByPid) {
  Process* child = pm().fork(*k().init_proc());
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(pm().find(child->pid), child);
  const u64 pid = child->pid;
  pm().exit(*child);
  EXPECT_EQ(pm().find(pid), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Configs, ProcessTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "ptstore" : "baseline";
                         });

// Token-validation behaviour is PTStore-specific.
TEST(ProcessTokens, SwitchRejectsTamperedPgd) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  ProcessManager& pm = sys.kernel().processes();
  Process* child = pm.fork(*sys.kernel().init_proc());
  ASSERT_NE(child, nullptr);
  // Corrupt the PCB's pgd field directly (normal memory: write succeeds).
  sys.mem().write_u64(child->pcb_pgd_field(), kDramBase + MiB(100));
  EXPECT_EQ(pm.switch_to(*child), SwitchResult::kTokenInvalid);
  EXPECT_EQ(sys.kernel().counters().value_of("process.token_rejects"), 1u);
}

TEST(ProcessTokens, BaselineAcceptsTamperedPgd) {
  SystemConfig cfg = SystemConfig::baseline();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  ProcessManager& pm = sys.kernel().processes();
  Process* child = pm.fork(*sys.kernel().init_proc());
  ASSERT_NE(child, nullptr);
  sys.mem().write_u64(child->pcb_pgd_field(), kDramBase + MiB(100));
  EXPECT_EQ(pm.switch_to(*child), SwitchResult::kOk);  // The vulnerability.
}

}  // namespace
}  // namespace ptstore
