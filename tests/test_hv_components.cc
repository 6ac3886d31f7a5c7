// Unit tests for the remaining hypervisor components: event channels,
// grant tables, the undo log, the operation context, and hypercall traits.
#include <gtest/gtest.h>

#include "hv/event_channel.h"
#include "hv/grant_table.h"
#include "hv/hypercall_defs.h"
#include "hv/op_context.h"
#include "hv/panic.h"
#include "hv/undo_log.h"
#include "hw/platform.h"

namespace nlh::hv {
namespace {

TEST(EventChannelTest, AllocBindCloseLifecycle) {
  EventChannelTable t;
  const EventPort p = t.AllocUnbound(2, 0);
  EXPECT_EQ(t.At(p).state, ChannelState::kUnbound);
  EXPECT_EQ(t.At(p).remote_domain, 2);
  t.BindInterdomain(p, 2, 7);
  EXPECT_EQ(t.At(p).state, ChannelState::kInterdomain);
  EXPECT_EQ(t.At(p).remote_port, 7);
  EXPECT_EQ(t.OpenCount(), 1);
  t.Close(p);
  EXPECT_EQ(t.At(p).state, ChannelState::kClosed);
  EXPECT_EQ(t.OpenCount(), 0);
}

TEST(EventChannelTest, PortsAreReusedAfterClose) {
  EventChannelTable t;
  const EventPort a = t.AllocUnbound(1, 0);
  t.Close(a);
  const EventPort b = t.AllocUnbound(1, 0);
  EXPECT_EQ(a, b);
}

TEST(EventChannelTest, ExhaustionPanics) {
  EventChannelTable t;
  for (int i = 0; i < kMaxEventPorts; ++i) t.AllocUnbound(1, 0);
  EXPECT_THROW(t.AllocUnbound(1, 0), HvPanic);
}

TEST(EventChannelTest, OutOfRangePortAsserts) {
  EventChannelTable t;
  EXPECT_THROW(t.At(-1), HvPanic);
  EXPECT_THROW(t.At(kMaxEventPorts), HvPanic);
}

TEST(EventChannelTest, BindWrongStateAsserts) {
  EventChannelTable t;
  EXPECT_THROW(t.BindInterdomain(5, 1, 1), HvPanic);  // closed port
}

TEST(GrantTableTest, GrantMapRevokeLifecycle) {
  GrantTable g;
  const GrantRef r = g.Grant(1, 100);
  EXPECT_TRUE(g.At(r).in_use);
  EXPECT_EQ(g.At(r).frame, 100u);
  ++g.At(r).map_count;
  EXPECT_EQ(g.MappedCount(), 1);
  EXPECT_THROW(g.Revoke(r), HvPanic);  // revoking a mapped grant
  --g.At(r).map_count;
  g.Revoke(r);
  EXPECT_FALSE(g.At(r).in_use);
}

TEST(GrantTableTest, TryGrantReturnsInvalidWhenFull) {
  GrantTable g;
  for (int i = 0; i < kGrantTableSize; ++i) {
    ASSERT_NE(g.TryGrant(1, static_cast<FrameNumber>(i)), kInvalidGrant);
  }
  EXPECT_EQ(g.TryGrant(1, 999), kInvalidGrant);  // non-throwing guest API
  EXPECT_THROW(g.Grant(1, 999), HvPanic);        // hv-internal API asserts
}

TEST(GrantTableTest, LeakedEntryNotReused) {
  GrantTable g;
  const GrantRef r = g.TryGrant(1, 5);
  ++g.At(r).map_count;  // backend still holds a mapping
  g.At(r).in_use = false;  // frontend "forgot" it without revoke
  const GrantRef r2 = g.TryGrant(1, 6);
  EXPECT_NE(r, r2);  // slot with live mapping must not be handed out
}

TEST(UndoLogTest, UnwindsNewestFirstAndClears) {
  UndoLog log;
  std::vector<int> order;
  log.Record([&] { order.push_back(1); });
  log.Record([&] { order.push_back(2); });
  EXPECT_EQ(log.size(), 2u);
  log.UnwindAll();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_TRUE(log.empty());
  log.UnwindAll();  // idempotent on empty
  EXPECT_EQ(order.size(), 2u);
}

TEST(UndoLogTest, ClearDropsWithoutRunning) {
  UndoLog log;
  int ran = 0;
  log.Record([&] { ++ran; });
  log.Clear();
  log.UnwindAll();
  EXPECT_EQ(ran, 0);
}

TEST(HypercallTraitsTest, CoverageAndInvariants) {
  for (int i = 0; i < kNumHypercalls; ++i) {
    const auto code = static_cast<HypercallCode>(i);
    const HypercallTraits& t = TraitsOf(code);
    EXPECT_GE(t.lost_tolerated, 0.0) << HypercallName(code);
    EXPECT_LE(t.lost_tolerated, 1.0) << HypercallName(code);
    EXPECT_NE(HypercallName(code), "?");
  }
  // Section IV anchors: grant_copy and the toolstack ops are the
  // "infrequently-used non-idempotent handlers not properly enhanced".
  EXPECT_FALSE(TraitsOf(HypercallCode::kGrantCopy).retry_enhanced);
  EXPECT_FALSE(TraitsOf(HypercallCode::kDomctlCreate).retry_enhanced);
  EXPECT_FALSE(TraitsOf(HypercallCode::kPhysdevOp).retry_enhanced);
  EXPECT_TRUE(TraitsOf(HypercallCode::kMmuUpdate).retry_enhanced);
  // Scheduling calls tolerate loss; mm calls mostly do not.
  EXPECT_DOUBLE_EQ(TraitsOf(HypercallCode::kSchedOpBlock).lost_tolerated, 1.0);
  EXPECT_LT(TraitsOf(HypercallCode::kMmuUpdate).lost_tolerated, 0.2);
  // Privilege bits.
  EXPECT_TRUE(TraitsOf(HypercallCode::kDomctlCreate).priv_only);
  EXPECT_FALSE(TraitsOf(HypercallCode::kEventChannelSend).priv_only);
}

class OpContextTest : public ::testing::Test {
 protected:
  OpContextTest() : platform_(Cfg(), 1) {}
  static hw::PlatformConfig Cfg() {
    hw::PlatformConfig c;
    c.num_cpus = 1;
    return c;
  }
  hw::Platform platform_;
  RuntimeOptions options_;
};

TEST_F(OpContextTest, StepsInvokeHookAndCloseRetiresOnce) {
  // The hook sees every step as it happens (the injector's countdown needs
  // them); the CPU's retired-instruction counter is charged once, with the
  // context's total, when the context closes.
  std::uint64_t hooked = 0;
  platform_.SetHvStepHook([&](hw::Cpu&, std::uint64_t n) { hooked += n; });
  {
    OpContext ctx(platform_, platform_.cpu(0), options_,
                  HvContextKind::kHypercall, nullptr, nullptr);
    ctx.Step(100, "a");
    ctx.Step(50, "b");
    EXPECT_EQ(ctx.instructions(), 150u);
    EXPECT_EQ(hooked, 150u);
    EXPECT_EQ(platform_.cpu(0).hv_instructions(), 0u);  // still open
  }
  EXPECT_EQ(platform_.cpu(0).hv_instructions(), 150u);
}

TEST_F(OpContextTest, UnwindingChargesEveryStepIncludingTheFaultingOne) {
  // A fault fires from the hook on the second step, abandoning the handler:
  // both steps still count, exactly as when each step charged the CPU.
  int calls = 0;
  platform_.SetHvStepHook([&](hw::Cpu&, std::uint64_t) {
    if (++calls == 2) throw HvPanic("fault on the second step");
  });
  EXPECT_THROW(
      {
        OpContext ctx(platform_, platform_.cpu(0), options_,
                      HvContextKind::kHypercall, nullptr, nullptr);
        ctx.Step(100, "a");
        ctx.Step(50, "b");
        ctx.Step(25, "never reached");
      },
      HvPanic);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(platform_.cpu(0).hv_instructions(), 150u);
}

TEST_F(OpContextTest, LockThroughContextIsNotRaii) {
  SpinLock lock("x");
  try {
    OpContext ctx(platform_, platform_.cpu(0), options_,
                  HvContextKind::kHypercall, nullptr, nullptr);
    ctx.Lock(lock);
    throw HvPanic("fault mid-handler");
  } catch (const HvPanic&) {
  }
  // Abandoned-thread semantics: the lock stays held after unwinding.
  EXPECT_TRUE(lock.held());
}

TEST_F(OpContextTest, LogUndoCostsOnlyWhenEnabled) {
  UndoLog log;
  options_.undo_logging = true;
  {
    OpContext ctx(platform_, platform_.cpu(0), options_,
                  HvContextKind::kHypercall, nullptr, &log);
    ctx.LogUndo([] {});
    EXPECT_EQ(ctx.instructions(), cost::kUndoLogRecord);
    EXPECT_EQ(log.size(), 1u);
  }
  options_.undo_logging = false;
  {
    OpContext ctx(platform_, platform_.cpu(0), options_,
                  HvContextKind::kHypercall, nullptr, &log);
    ctx.LogUndo([] {});
    EXPECT_EQ(ctx.instructions(), 0u);  // NiLiHype*: no records, no cost
    EXPECT_EQ(log.size(), 1u);          // unchanged
  }
}

TEST_F(OpContextTest, BatchCompletionLoggingGatedByOption) {
  Vcpu vc;
  vc.id = 0;
  options_.batch_completion_logging = true;
  {
    OpContext ctx(platform_, platform_.cpu(0), options_,
                  HvContextKind::kHypercall, &vc, nullptr);
    ctx.LogBatchComponentDone(2);
    EXPECT_EQ(vc.inflight.multicall_progress, 3);
    EXPECT_TRUE(vc.inflight.progress_logged);
  }
  vc.inflight.multicall_progress = 0;
  vc.inflight.progress_logged = false;
  options_.batch_completion_logging = false;
  {
    OpContext ctx(platform_, platform_.cpu(0), options_,
                  HvContextKind::kHypercall, &vc, nullptr);
    ctx.LogBatchComponentDone(2);
    EXPECT_EQ(vc.inflight.multicall_progress, 0);  // no logging, no skip
  }
}

TEST_F(OpContextTest, IoApicShadowOnlyForReHypeBuilds) {
  options_.rehype_ioapic_shadow = false;
  {
    OpContext ctx(platform_, platform_.cpu(0), options_, HvContextKind::kIrq,
                  nullptr, nullptr);
    ctx.ShadowIoApicWrite();
    EXPECT_EQ(ctx.instructions(), 0u);
  }
  options_.rehype_ioapic_shadow = true;
  {
    OpContext ctx(platform_, platform_.cpu(0), options_, HvContextKind::kIrq,
                  nullptr, nullptr);
    ctx.ShadowIoApicWrite();
    EXPECT_EQ(ctx.instructions(), cost::kIoApicShadowWrite);
  }
}

}  // namespace
}  // namespace nlh::hv
