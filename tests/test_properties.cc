// Cross-cutting property tests over whole fault-injection runs.
//
// These sweep seeds (TEST_P) and assert invariants that must hold for ANY
// injected fault — the simulator-level analogue of the paper's claim that
// the enhancements make recovery safe on arbitrarily damaged state.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "audit/state_auditor.h"
#include "core/target_system.h"
#include "fleet/fleet.h"
#include "sim/rng.h"

namespace nlh {
namespace {

struct SweepParam {
  std::uint64_t seed;
  inject::FaultType fault;
  core::Mechanism mechanism;
};

class RunSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RunSweep, InvariantsHoldAfterAnyRun) {
  const SweepParam p = GetParam();
  core::RunConfig cfg;
  cfg.mechanism = p.mechanism;
  cfg.fault = p.fault;
  cfg.seed = p.seed;
  core::TargetSystem sys(cfg);
  const core::RunResult r = sys.Run();

  // 1. A classified run is exactly one of the three outcome classes, and
  //    success is only meaningful for detected runs.
  if (r.outcome != core::OutcomeClass::kDetected) {
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.recoveries, 0);
  }

  // 2. A successful recovery implies a live, lock-free hypervisor.
  if (r.success) {
    EXPECT_FALSE(r.system_dead);
    EXPECT_EQ(sys.hv().static_locks().HeldCount(), 0);
    EXPECT_EQ(sys.hv().heap().HeldLockCount(), 0);
    for (const auto& pc : sys.hv().percpu()) {
      EXPECT_EQ(pc.local_irq_count, 0);
    }
    // Scheduling metadata consistent after the dust settles.
    EXPECT_TRUE(hv::SchedMetadataConsistent(sys.hv().percpu(),
                                            sys.hv().vcpus()));
  }

  // 3. The frame scan ran during recovery: a successful NiLiHype/ReHype
  //    run leaves no descriptor inconsistencies among *live* frames.
  if (r.success) {
    EXPECT_EQ(sys.hv().frames().CountInconsistent(), 0u);
  }

  // 4. Recovery latency matches the mechanism's model whenever recovery ran
  //    to completion.
  if (r.recoveries > 0 &&
      !sys.recovery_manager()->reports().front().gave_up) {
    const double ms = sim::ToMillisF(r.first_recovery_latency);
    if (p.mechanism == core::Mechanism::kNiLiHype) {
      EXPECT_GT(ms, 20.0);
      EXPECT_LT(ms, 25.0);
    } else {
      EXPECT_GT(ms, 690.0);
      EXPECT_LT(ms, 740.0);
    }
  }

  // 5. Determinism: re-running the same seed reproduces the outcome.
  core::TargetSystem sys2(cfg);
  const core::RunResult r2 = sys2.Run();
  EXPECT_EQ(r.outcome, r2.outcome);
  EXPECT_EQ(r.success, r2.success);
  EXPECT_EQ(r.no_vm_failures, r2.no_vm_failures);
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> params;
  for (std::uint64_t seed = 9000; seed < 9012; ++seed) {
    for (const inject::FaultType f :
         {inject::FaultType::kFailstop, inject::FaultType::kRegister,
          inject::FaultType::kCode}) {
      params.push_back({seed, f, core::Mechanism::kNiLiHype});
    }
    if (seed % 3 == 0) {
      params.push_back({seed, inject::FaultType::kFailstop,
                        core::Mechanism::kReHype});
      params.push_back({seed, inject::FaultType::kCode,
                        core::Mechanism::kReHype});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(FaultRuns, RunSweep, ::testing::ValuesIn(MakeSweep()));

// Property: the Table I monotonicity — each cumulative enhancement level
// can only help. Checked coarsely over a small campaign per level.
TEST(EnhancementMonotonicity, MoreEnhancementsNeverHurtMuch) {
  double prev = -1.0;
  for (int row = 0; row <= 6; row += 2) {
    core::RunConfig cfg =
        core::RunConfig::OneAppVm(guest::BenchmarkKind::kUnixBench);
    cfg.mechanism = core::Mechanism::kNiLiHype;
    cfg.enhancements = recovery::EnhancementSet::TableISimple(row);
    cfg.fault = inject::FaultType::kFailstop;
    int succ = 0;
    const int kRuns = 25;
    for (int i = 0; i < kRuns; ++i) {
      cfg.seed = 4000 + static_cast<std::uint64_t>(i);
      core::TargetSystem sys(cfg);
      succ += sys.Run().success ? 1 : 0;
    }
    const double rate = succ / double(kRuns);
    // Allow small-sample noise, but the trend must be upward.
    EXPECT_GE(rate, prev - 0.15) << "row " << row;
    prev = std::max(prev, rate);
  }
  EXPECT_GT(prev, 0.8);  // fully enhanced recovers the large majority
}

// Property: fleet request accounting is conservative. For ANY mix of
// host-recovery events — any hosts, times, outcomes, outage lengths —
// every admitted request is classified exactly once:
// admitted == completed + slo_violated + dropped, and the per-event
// tallies partition the schedule.
TEST(FleetProperty, RandomEventMixesConserveRequests) {
  for (std::uint64_t seed = 300; seed < 330; ++seed) {
    sim::Rng rng(seed * 7919);
    fleet::FleetConfig cfg;
    cfg.hosts = 2 + static_cast<int>(rng.Index(5));
    cfg.tenants_per_host = 1 + static_cast<int>(rng.Index(3));
    cfg.horizon_s = 120 + static_cast<int>(rng.Index(5)) * 60;
    cfg.master_seed = seed;
    if (rng.Chance(0.3)) cfg.host_capacity = cfg.tenants_per_host;  // tight
    if (rng.Chance(0.5)) cfg.placement = fleet::PlacementPolicy::kFirstFit;

    std::vector<fleet::HostRecoveryEvent> events;
    const std::size_t n_events = rng.Index(9);
    for (std::size_t i = 0; i < n_events; ++i) {
      fleet::HostRecoveryEvent e;
      e.host = static_cast<int>(rng.Index(static_cast<std::size_t>(cfg.hosts)));
      e.at = rng.Range(0, sim::Seconds(cfg.horizon_s) - 1);
      switch (rng.Index(5)) {
        case 0: e.outcome = fleet::EventOutcome::kNonManifested; break;
        case 1: e.outcome = fleet::EventOutcome::kSdc; break;
        case 2:
          e.outcome = fleet::EventOutcome::kCleanRecovery;
          e.outage = rng.Range(0, sim::Seconds(8));
          break;
        case 3:
          e.outcome = fleet::EventOutcome::kLatentRecovery;
          e.outage = rng.Range(0, sim::Seconds(8));
          break;
        default:
          e.outcome = fleet::EventOutcome::kFailedRecovery;
          e.death_after = rng.Range(0, sim::Seconds(2));
          break;
      }
      events.push_back(e);
    }

    const fleet::FleetResult r = fleet::FleetSim(cfg).ApplyEvents(events);
    // The conservation law the SLO accounting is built on.
    EXPECT_EQ(r.admitted, r.completed + r.slo_violated + r.dropped)
        << "seed " << seed;
    // Event tallies partition the schedule.
    EXPECT_EQ(r.faults_scheduled, static_cast<int>(events.size()));
    EXPECT_EQ(r.faults_scheduled,
              r.faults_skipped_host_down + r.non_manifested + r.sdc +
                  r.clean_recoveries + r.latent_recoveries +
                  r.failed_recoveries)
        << "seed " << seed;
    // Every lost host's tenants end up evacuated or stranded. (A tenant
    // evacuated onto a host that later fails is evacuated again, so this
    // is a lower bound, not an equality.)
    EXPECT_EQ(r.hosts_lost, r.failed_recoveries);
    EXPECT_GE(r.tenants_evacuated + r.tenants_unplaced,
              r.hosts_lost * cfg.tenants_per_host)
        << "seed " << seed;
    // Bad ticks are bounded by the tenant-tick grid.
    const std::uint64_t ticks = static_cast<std::uint64_t>(
        (cfg.horizon_s + fleet::kSloTickSeconds - 1) / fleet::kSloTickSeconds);
    EXPECT_LE(r.bad_tenant_ticks,
              ticks * static_cast<std::uint64_t>(cfg.TotalTenants()));
  }
}

// Property: the auditor has no false positives. Any sequence of *completed*
// hypervisor operations — allocations, frees, grants, grant map/unmap via
// the real hypercall path, event-channel pair setup/traffic/teardown,
// timers, balanced reference taking, real execution of the event queue —
// interleaved with audit sweeps on an uninjected platform must never
// produce a finding.
TEST(AuditProperty, RandomizedOpsNeverProduceFindings) {
  for (std::uint64_t seed = 50; seed < 56; ++seed) {
    hw::PlatformConfig pc;
    pc.num_cpus = 4;
    pc.memory_gib = 8;
    hw::Platform platform(pc, seed);
    hv::Hypervisor hv(platform, hv::HvConfig{});
    hv.Boot();
    const hv::DomainId a = hv.CreateDomainDirect("a", false, 1, 32);
    const hv::DomainId b = hv.CreateDomainDirect("b", false, 2, 32);
    hv.StartDomain(a);
    hv.StartDomain(b);

    sim::Rng rng(seed * 1337);
    std::vector<hv::HeapObjectId> objs;
    std::vector<std::pair<hv::DomainId, hv::GrantRef>> grants;
    std::vector<std::pair<hv::DomainId, hv::GrantRef>> mapped;
    std::vector<std::pair<int, hv::TimerId>> timers;
    // One fully bound event-channel pair: port `pa` in domain `da` is
    // interdomain-connected to port `pb` in domain `db`.
    struct Chan {
      hv::DomainId da, db;
      hv::EventPort pa, pb;
    };
    std::vector<Chan> chans;
    auto pick_dom = [&] { return rng.Chance(0.5) ? a : b; };
    auto vcpu_of = [&](hv::DomainId d) {
      return hv.FindDomain(d)->vcpus.front();
    };
    auto call = [&](hv::DomainId d, hv::HypercallCode code, std::uint64_t a0,
                    std::uint64_t a1 = 0) {
      hv::HypercallArgs args;
      args.arg0 = a0;
      args.arg1 = a1;
      return hv.Hypercall(vcpu_of(d), code, args);
    };
    auto is_mapped = [&](const std::pair<hv::DomainId, hv::GrantRef>& g) {
      for (const auto& m : mapped) {
        if (m == g) return true;
      }
      return false;
    };
    // The guest side consuming a delivered event: clear the pending bit.
    auto consume = [&](hv::DomainId d, hv::EventPort p) {
      for (const hv::VcpuId v : hv.FindDomain(d)->vcpus) {
        hv.vcpu(v).pending_events &= ~(1ULL << static_cast<unsigned>(p));
      }
    };

    for (int op = 0; op < 300; ++op) {
      switch (rng.Index(12)) {
        case 0:
          if (objs.size() < 50) {
            objs.push_back(hv.heap().Alloc(
                "scratch:" + std::to_string(op), 1 + rng.Index(3)));
          }
          break;
        case 1:
          if (!objs.empty()) {
            const std::size_t i = rng.Index(objs.size());
            hv.heap().Free(objs[i]);
            objs[i] = objs.back();
            objs.pop_back();
          }
          break;
        case 2: {
          const hv::DomainId d = pick_dom();
          hv::Domain* dom = hv.FindDomain(d);
          const hv::GrantRef r = dom->grants.TryGrant(
              d == a ? b : a,
              dom->first_frame +
                  static_cast<hv::FrameNumber>(rng.Index(dom->num_frames)));
          if (r != hv::kInvalidGrant) grants.emplace_back(d, r);
          break;
        }
        case 3:
          if (!grants.empty()) {
            const std::size_t i = rng.Index(grants.size());
            if (is_mapped(grants[i])) break;  // must unmap before revoking
            hv.FindDomain(grants[i].first)->grants.Revoke(grants[i].second);
            grants[i] = grants.back();
            grants.pop_back();
          }
          break;
        case 4: {
          const int cpu = static_cast<int>(rng.Index(4));
          hv::SoftTimer t;
          t.name = "aux:" + std::to_string(op);
          t.deadline = hv.Now() + sim::Milliseconds(
                                      1 + static_cast<sim::Duration>(
                                              rng.Index(500)));
          timers.emplace_back(cpu, hv.timers(cpu).Insert(std::move(t)));
          break;
        }
        case 5:
          if (!timers.empty()) {
            const std::size_t i = rng.Index(timers.size());
            hv.timers(timers[i].first).Remove(timers[i].second);
            timers[i] = timers.back();
            timers.pop_back();
          }
          break;
        case 6: {
          // A completed get/put reference pair (balanced by definition).
          hv::Domain* dom = hv.FindDomain(pick_dom());
          const hv::FrameNumber f =
              dom->first_frame +
              static_cast<hv::FrameNumber>(rng.Index(dom->num_frames));
          hv.frames().GetPage(f);
          hv.frames().PutPage(f);
          break;
        }
        case 7:
          // Map an outstanding grant through the real hypercall path (the
          // peer domain is the backend doing the mapping).
          if (!grants.empty() && mapped.size() < 16) {
            const auto g = grants[rng.Index(grants.size())];
            const hv::DomainId mapper = g.first == a ? b : a;
            call(mapper, hv::HypercallCode::kGrantMap,
                 static_cast<std::uint64_t>(g.first),
                 static_cast<std::uint64_t>(g.second));
            mapped.push_back(g);
          }
          break;
        case 8:
          // Unmap a previously mapped grant, again via the hypercall.
          if (!mapped.empty()) {
            const std::size_t i = rng.Index(mapped.size());
            const auto g = mapped[i];
            const hv::DomainId mapper = g.first == a ? b : a;
            call(mapper, hv::HypercallCode::kGrantUnmap,
                 static_cast<std::uint64_t>(g.first),
                 static_cast<std::uint64_t>(g.second));
            mapped[i] = mapped.back();
            mapped.pop_back();
          }
          break;
        case 9: {
          // Open a full event-channel pair: one side allocates an unbound
          // port for the peer, the peer binds to it.
          if (chans.size() >= 6) break;
          const hv::DomainId x = pick_dom();
          const hv::DomainId y = x == a ? b : a;
          const hv::EventPort px = static_cast<hv::EventPort>(
              call(x, hv::HypercallCode::kEventChannelAllocUnbound,
                   static_cast<std::uint64_t>(y)));
          const hv::EventPort py = static_cast<hv::EventPort>(
              call(y, hv::HypercallCode::kEventChannelBindInterdomain,
                   static_cast<std::uint64_t>(x),
                   static_cast<std::uint64_t>(px)));
          chans.push_back({x, y, px, py});
          break;
        }
        case 10:
          // Event-channel traffic or teardown. Teardown consumes any
          // pending bits first (a close with events still pending is the
          // evtchn.pending_closed corruption signature) and then closes
          // BOTH ends — each end from its own domain.
          if (!chans.empty()) {
            const std::size_t i = rng.Index(chans.size());
            const Chan c = chans[i];
            if (rng.Chance(0.5)) {
              if (rng.Chance(0.5)) {
                call(c.da, hv::HypercallCode::kEventChannelSend,
                     static_cast<std::uint64_t>(c.pa));
              } else {
                call(c.db, hv::HypercallCode::kEventChannelSend,
                     static_cast<std::uint64_t>(c.pb));
              }
            } else {
              consume(c.da, c.pa);
              consume(c.db, c.pb);
              call(c.da, hv::HypercallCode::kEventChannelClose,
                   static_cast<std::uint64_t>(c.pa));
              call(c.db, hv::HypercallCode::kEventChannelClose,
                   static_cast<std::uint64_t>(c.pb));
              chans[i] = chans.back();
              chans.pop_back();
            }
          }
          break;
        default:
          // Real execution: run the platform forward a little.
          platform.queue().RunUntil(hv.Now() + sim::Milliseconds(2));
          break;
      }

      if (op % 50 == 49) {
        audit::StateAuditor auditor(hv);
        const audit::AuditReport r = auditor.Audit();
        for (const audit::AuditFinding& f : r.findings) {
          ADD_FAILURE() << "seed " << seed << " op " << op << ": "
                        << f.invariant << " — " << f.detail;
        }
        if (!r.clean()) return;  // one dump is enough
      }
    }
  }
}

}  // namespace
}  // namespace nlh
