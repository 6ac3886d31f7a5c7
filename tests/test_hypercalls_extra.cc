// Additional hypercall-path tests: the remaining handlers, and white-box
// demonstrations of the retry hazards the Section IV enhancements exist
// for (double-applied batch components, lost physdev rebalance).
#include <gtest/gtest.h>

#include "audit/state_auditor.h"
#include "hv/hypervisor.h"
#include "hv/panic.h"
#include "recovery/recovery_common.h"

namespace nlh::hv {
namespace {

class HypercallExtraTest : public ::testing::Test {
 protected:
  HypercallExtraTest()
      : platform_(MakeCfg(), 3), hv_(platform_, HvConfig{}) {
    hv_.Boot();
    dom_ = hv_.CreateDomainDirect("app", false, 1, 32);
    priv_ = hv_.CreateDomainDirect("dom0", true, 0, 32);
    hv_.StartDomain(dom_);
    hv_.StartDomain(priv_);
    vcpu_ = hv_.FindDomain(dom_)->vcpus.front();
    pvcpu_ = hv_.FindDomain(priv_)->vcpus.front();
  }
  static hw::PlatformConfig MakeCfg() {
    hw::PlatformConfig cfg;
    cfg.num_cpus = 4;
    cfg.memory_gib = 1;
    return cfg;
  }
  std::uint64_t Call(VcpuId v, HypercallCode code, std::uint64_t a0 = 0,
                     std::uint64_t a1 = 0) {
    HypercallArgs a;
    a.arg0 = a0;
    a.arg1 = a1;
    return hv_.Hypercall(v, code, a);
  }

  hw::Platform platform_;
  Hypervisor hv_;
  DomainId dom_, priv_;
  VcpuId vcpu_, pvcpu_;
};

TEST_F(HypercallExtraTest, UpdateVaMappingBalances) {
  Domain* d = hv_.FindDomain(dom_);
  const FrameNumber f = d->first_frame + 4;
  const std::int32_t before = hv_.frames().desc(f).use_count;
  Call(vcpu_, HypercallCode::kUpdateVaMapping, 4, 1);
  EXPECT_EQ(hv_.frames().desc(f).use_count, before + 1);
  Call(vcpu_, HypercallCode::kUpdateVaMapping, 4, 0);
  EXPECT_EQ(hv_.frames().desc(f).use_count, before);
}

TEST_F(HypercallExtraTest, EventChannelSetupViaHypercalls) {
  // dom allocates an unbound port for dom0, then dom0 binds to it.
  const EventPort remote_port = static_cast<EventPort>(
      Call(vcpu_, HypercallCode::kEventChannelAllocUnbound,
           static_cast<std::uint64_t>(priv_)));
  const EventPort local = static_cast<EventPort>(
      Call(pvcpu_, HypercallCode::kEventChannelBindInterdomain,
           static_cast<std::uint64_t>(dom_),
           static_cast<std::uint64_t>(remote_port)));
  Domain* p = hv_.FindDomain(priv_);
  EXPECT_EQ(p->evtchn.At(local).state, ChannelState::kInterdomain);
  // Send from dom0 -> dom arrives on the remote port.
  Call(pvcpu_, HypercallCode::kEventChannelSend,
       static_cast<std::uint64_t>(local));
  EXPECT_NE(hv_.vcpu(vcpu_).pending_events &
                (1ULL << static_cast<unsigned>(remote_port)),
            0u);
  Call(pvcpu_, HypercallCode::kEventChannelClose,
       static_cast<std::uint64_t>(local));
  EXPECT_EQ(p->evtchn.At(local).state, ChannelState::kClosed);
}

TEST_F(HypercallExtraTest, DomctlDestroyDetachesDomain) {
  const std::uint64_t id = Call(pvcpu_, HypercallCode::kDomctlCreate, 2, 8);
  Call(pvcpu_, HypercallCode::kDomctlUnpause, id);
  Domain* nd = hv_.FindDomain(static_cast<DomainId>(id));
  const VcpuId nv = nd->vcpus.front();
  EXPECT_EQ(hv_.vcpu(nv).state, VcpuState::kRunnable);
  Call(pvcpu_, HypercallCode::kDomctlDestroy, id);
  EXPECT_EQ(nd->lifecycle, DomainLifecycle::kDead);
  EXPECT_EQ(hv_.vcpu(nv).state, VcpuState::kOffline);
  EXPECT_FALSE(hv_.vcpu(nv).rq_queued);
}

TEST_F(HypercallExtraTest, ConsoleAndVersionAreHarmless) {
  EXPECT_EQ(Call(vcpu_, HypercallCode::kConsoleIo), 0u);
  EXPECT_EQ(Call(pvcpu_, HypercallCode::kVcpuOpUp), 0u);
  EXPECT_EQ(audit::StateAuditor(hv_).Audit().CorruptionCount(), 0u);
}

TEST_F(HypercallExtraTest, PhysdevRebalanceLeavesRouteUnmasked) {
  Domain* p = hv_.FindDomain(priv_);
  const EventPort port = p->evtchn.AllocUnbound(priv_, pvcpu_);
  hv_.BindDeviceVector(hw::vec::kBlk, priv_, port);
  Call(pvcpu_, HypercallCode::kPhysdevOp);
  EXPECT_FALSE(hv_.device_bindings().begin()->second.masked);
}

// The hazard fine-granularity batched retry exists for (Section IV): a
// retried multicall without completion logging re-executes components whose
// effects were already final, and the second unmap underflows.
TEST_F(HypercallExtraTest, BatchRetryWithoutLoggingDoubleApplies) {
  hv_.options().batch_completion_logging = false;
  hv_.options().undo_logging = false;  // no mitigation either

  Domain* d = hv_.FindDomain(dom_);
  // Establish present PTEs so the unmap batch below is valid once.
  for (int i = 0; i < 2; ++i) {
    Call(vcpu_, HypercallCode::kMmuUpdate, static_cast<std::uint64_t>(i), 1);
  }
  Vcpu& vc = hv_.vcpu(vcpu_);
  HypercallArgs a;
  for (int i = 0; i < 2; ++i) {
    MulticallEntry e;
    e.code = HypercallCode::kMmuUpdate;
    e.arg0 = static_cast<std::uint64_t>(i);
    e.arg1 = 0;  // unmap
    a.batch.push_back(e);
  }
  // Execute the full batch once, as if it completed just before the fault
  // (commit boundary), but with the in-flight record still active.
  vc.inflight.active = true;
  vc.inflight.code = HypercallCode::kMulticall;
  vc.inflight.args = a;
  vc.inflight.multicall_progress = 0;
  {
    OpContext ctx(platform_, platform_.cpu(1), hv_.options(),
                  HvContextKind::kHypercall, &vc, &vc.inflight.undo);
    hv_.Dispatch(ctx, vc, HypercallCode::kMulticall, a);
  }
  // Progress was NOT logged (enhancement off), so a retry re-runs all
  // components: the use counts underflow and the hypervisor panics.
  EXPECT_EQ(vc.inflight.multicall_progress, 0);
  EXPECT_EQ(hv_.frames().desc(d->first_frame + 0).use_count, 1);
  EXPECT_FALSE(d->pte_present[0]);
  {
    OpContext ctx(platform_, platform_.cpu(1), hv_.options(),
                  HvContextKind::kHypercall, &vc, &vc.inflight.undo);
    EXPECT_THROW(hv_.Dispatch(ctx, vc, HypercallCode::kMulticall, a), HvPanic);
  }
}

// With completion logging on, the same retry skips the completed
// components and is harmless.
TEST_F(HypercallExtraTest, BatchRetryWithLoggingSkipsCompleted) {
  for (int i = 0; i < 2; ++i) {
    Call(vcpu_, HypercallCode::kMmuUpdate, static_cast<std::uint64_t>(i), 1);
  }
  Vcpu& vc = hv_.vcpu(vcpu_);
  HypercallArgs a;
  for (int i = 0; i < 2; ++i) {
    MulticallEntry e;
    e.code = HypercallCode::kMmuUpdate;
    e.arg0 = static_cast<std::uint64_t>(i);
    e.arg1 = 0;
    a.batch.push_back(e);
  }
  vc.inflight.active = true;
  vc.inflight.code = HypercallCode::kMulticall;
  vc.inflight.args = a;
  vc.inflight.multicall_progress = 0;
  {
    OpContext ctx(platform_, platform_.cpu(1), hv_.options(),
                  HvContextKind::kHypercall, &vc, &vc.inflight.undo);
    hv_.Dispatch(ctx, vc, HypercallCode::kMulticall, a);
  }
  EXPECT_EQ(vc.inflight.multicall_progress, 2);  // logged as it went
  {
    OpContext ctx(platform_, platform_.cpu(1), hv_.options(),
                  HvContextKind::kHypercall, &vc, &vc.inflight.undo);
    EXPECT_NO_THROW(hv_.Dispatch(ctx, vc, HypercallCode::kMulticall, a));
  }
  Domain* d = hv_.FindDomain(dom_);
  EXPECT_EQ(hv_.frames().desc(d->first_frame + 0).use_count, 1);
}

// Grant-map abandoned mid-flight, then recovered WITHOUT the mitigation:
// the retry double-increments and the later revoke path catches it.
TEST_F(HypercallExtraTest, GrantMapRetryWithoutUndoLeavesLeak) {
  hv_.options().undo_logging = false;
  Domain* d = hv_.FindDomain(dom_);
  const FrameNumber frame = d->first_frame + 2;
  const GrantRef ref = d->grants.TryGrant(priv_, frame);

  Vcpu& pv = hv_.vcpu(pvcpu_);
  HypercallArgs a;
  a.arg0 = static_cast<std::uint64_t>(dom_);
  a.arg1 = static_cast<std::uint64_t>(ref);
  // Execute the mutating part once (simulating abandonment after the
  // mutation), then retry the whole handler.
  pv.inflight.active = true;
  pv.inflight.code = HypercallCode::kGrantMap;
  pv.inflight.args = a;
  {
    OpContext ctx(platform_, platform_.cpu(0), hv_.options(),
                  HvContextKind::kHypercall, &pv, &pv.inflight.undo);
    hv_.Dispatch(ctx, pv, HypercallCode::kGrantMap, a);
  }
  recovery::steps::SetupRequestRetries(hv_,
                                       recovery::EnhancementSet::Full());
  // Full() would normally have replayed undo records — but logging was off,
  // so there was nothing to replay and the retry double-applies.
  EXPECT_TRUE(pv.inflight.needs_retry);
  {
    OpContext ctx(platform_, platform_.cpu(0), hv_.options(),
                  HvContextKind::kHypercall, &pv, &pv.inflight.undo);
    hv_.Dispatch(ctx, pv, HypercallCode::kGrantMap, a);
  }
  EXPECT_EQ(d->grants.At(ref).map_count, 2);  // the leak
}

}  // namespace
}  // namespace nlh::hv
