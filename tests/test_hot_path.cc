// Hot-path regression tests: the hypercall path does no heap allocation in
// steady state, and the fault injector's step hook is installed only while
// its instruction countdown runs. Both are invisible in simulated output,
// so only these tests pin them.
//
// This binary replaces the global operator new with a counting one; every
// allocation in the process (gtest included) goes through it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/target_system.h"
#include "hv/hypervisor.h"
#include "hv/panic.h"
#include "inject/injector.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace nlh {
namespace {

std::uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// The booted two-CPU world of bench_micro_hvops: one started domain whose
// vCPU is scheduled on CPU 1.
struct World {
  World() : platform(Cfg(), 1), hv(platform, hv::HvConfig{}) {
    hv.Boot();
    dom = hv.CreateDomainDirect("bench", false, 1, 32);
    hv.StartDomain(dom);
    vcpu = hv.FindDomain(dom)->vcpus.front();
    hv::OpContext ctx(platform, platform.cpu(1), hv.options(),
                      hv::HvContextKind::kSchedule, nullptr, nullptr);
    hv.Schedule(ctx, 1);
  }
  static hw::PlatformConfig Cfg() {
    hw::PlatformConfig cfg;
    cfg.num_cpus = 2;
    cfg.memory_gib = 1;
    return cfg;
  }
  hw::Platform platform;
  hv::Hypervisor hv;
  hv::DomainId dom;
  hv::VcpuId vcpu;
};

// A 4-entry multicall of mmu_updates over frames 0..3 (map or unmap).
hv::HypercallArgs MmuBatch(bool map) {
  hv::HypercallArgs a;
  for (std::uint64_t i = 0; i < 4; ++i) {
    hv::MulticallEntry e;
    e.code = hv::HypercallCode::kMmuUpdate;
    e.arg0 = i;
    e.arg1 = map ? 1 : 0;
    a.batch.push_back(e);
  }
  return a;
}

// UnixBench's mmap/munmap rhythm: a forwarded syscall, then a multicall.
// The syscall used to free the in-flight batch buffer, so every multicall
// after it reallocated that buffer.
TEST(HotPathTest, SyscallMulticallPairsDoNotAllocate) {
  World w;
  const hv::HypercallArgs map = MmuBatch(true);
  const hv::HypercallArgs unmap = MmuBatch(false);
  const auto pair = [&](int i) {
    w.hv.ForwardedSyscall(w.vcpu, 9);
    w.hv.Hypercall(w.vcpu, hv::HypercallCode::kMulticall,
                   i % 2 == 0 ? map : unmap);
  };
  pair(0);
  pair(1);
  const std::uint64_t hypercalls0 = w.hv.stats().hypercalls;
  const std::uint64_t before = Allocations();
  for (int i = 0; i < 1000; ++i) pair(i);
  const std::uint64_t allocations = Allocations() - before;
  EXPECT_EQ(w.hv.stats().hypercalls - hypercalls0, 1000u);
  EXPECT_EQ(allocations, 0u);
}

// One default cold run, build and teardown included: fewer than one heap
// allocation per 100 hypercalls.
TEST(HotPathTest, ColdRunAllocatesUnderOnePerHundredHypercalls) {
  core::RunConfig cfg;  // 8 CPUs, 3AppVM, NiLiHype, failstop
  cfg.seed = 1000;
  std::uint64_t hypercalls = 0;
  const std::uint64_t before = Allocations();
  {
    core::TargetSystem sys(cfg);
    sys.Run();
    hypercalls = sys.hv().stats().hypercalls;
  }
  const std::uint64_t allocations = Allocations() - before;
  ASSERT_GT(hypercalls, 100000u);
  EXPECT_LT(allocations * 100, hypercalls)
      << allocations << " allocations over " << hypercalls << " hypercalls";
}

// Building a default target with recording off makes no allocation for
// observability: the flight recorder allocates its rings only when enabled,
// and nothing interns span names. (Interning 27 span names per hypervisor
// cost about 114 of the 282 allocations a build used to make; it makes 168
// without them.)
TEST(HotPathTest, ColdBuildAllocatesNothingForObservability) {
  core::RunConfig cfg;  // 8 CPUs, 3AppVM, NiLiHype, failstop
  cfg.seed = 1000;
  const std::uint64_t before = Allocations();
  std::uint64_t allocations = 0;
  {
    core::TargetSystem sys(cfg);
    allocations = Allocations() - before;
    EXPECT_FALSE(sys.hv().flight_recorder().enabled());
  }
  EXPECT_LE(allocations, 170u) << allocations << " allocations in one build";
}

// --- Step hook lifetime -------------------------------------------------------

TEST(HotPathTest, StepHookLiveOnlyFromTimeTriggerToFire) {
  World w;
  inject::FaultInjector inj(w.hv, {}, 7);
  inject::InjectionPlan plan;
  plan.type = inject::FaultType::kFailstop;
  plan.first_trigger = sim::Milliseconds(100);
  plan.second_trigger_instructions = 1ULL << 40;  // only the test retires it
  inj.Arm(plan);
  EXPECT_FALSE(w.platform.has_hv_step_hook());
  w.platform.queue().RunUntil(plan.first_trigger - 1);
  EXPECT_FALSE(w.platform.has_hv_step_hook());
  w.platform.queue().RunUntil(plan.first_trigger);
  EXPECT_TRUE(w.platform.has_hv_step_hook());
  EXPECT_THROW(w.platform.OnHvStep(w.platform.cpu(1), 1ULL << 41),
               hv::HvPanic);
  EXPECT_TRUE(inj.record().fired);
  EXPECT_FALSE(w.platform.has_hv_step_hook());
}

TEST(HotPathTest, EventTriggerInstallsStepHookOnMatchingEvent) {
  World w;
  inject::FaultInjector inj(w.hv, {}, 7);
  inject::InjectionPlan plan;
  plan.type = inject::FaultType::kFailstop;
  plan.first_trigger = sim::Milliseconds(100);
  plan.second_trigger_instructions = 1ULL << 40;
  plan.trigger.kind = inject::TriggerKind::kAnyHypercall;
  inj.Arm(plan);
  w.platform.queue().RunUntil(plan.first_trigger);
  // Past the timer, but still waiting for the hypercall.
  EXPECT_FALSE(w.platform.has_hv_step_hook());
  w.hv.Hypercall(w.vcpu, hv::HypercallCode::kXenVersion, {});
  EXPECT_TRUE(w.platform.has_hv_step_hook());
  EXPECT_FALSE(inj.record().fired);
}

// Every manifestation but a delayed panic removes the hook when the fault
// fires; a delayed panic keeps it through its propagation countdown and
// removes it when the countdown ends. Destroying the injector removes it
// in any state.
TEST(HotPathTest, StepHookGoneAfterFireExceptDuringDelayedCountdown) {
  World w;
  int delayed = 0;
  int other = 0;
  for (std::uint64_t seed = 0; seed < 200 && (delayed < 3 || other < 3);
       ++seed) {
    inject::FaultInjector inj(w.hv, {}, 5000 + seed);
    inject::InjectionPlan plan;
    plan.type = inject::FaultType::kCode;
    plan.first_trigger = w.hv.Now();
    plan.second_trigger_instructions = 0;
    inj.Arm(plan);
    EXPECT_FALSE(w.platform.has_hv_step_hook()) << "seed " << seed;
    w.platform.queue().RunUntil(w.hv.Now());  // the level-1 timer
    ASSERT_TRUE(w.platform.has_hv_step_hook()) << "seed " << seed;
    try {
      w.platform.OnHvStep(w.platform.cpu(1), 1);
    } catch (const hv::HvPanic&) {
    } catch (const hv::HvHang&) {
    }
    ASSERT_TRUE(inj.record().fired) << "seed " << seed;
    if (inj.record().manifestation != inject::Manifestation::kDelayedPanic) {
      ++other;
      EXPECT_FALSE(w.platform.has_hv_step_hook()) << "seed " << seed;
      continue;
    }
    ++delayed;
    EXPECT_TRUE(w.platform.has_hv_step_hook()) << "seed " << seed;
    if (delayed == 1) continue;  // the destructor must remove it
    EXPECT_THROW(w.platform.OnHvStep(w.platform.cpu(1), 1ULL << 40),
                 hv::HvPanic);
    EXPECT_FALSE(w.platform.has_hv_step_hook()) << "seed " << seed;
  }
  EXPECT_GE(delayed, 3);
  EXPECT_GE(other, 3);
  EXPECT_FALSE(w.platform.has_hv_step_hook());
}

}  // namespace
}  // namespace nlh
