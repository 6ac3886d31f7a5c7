// Fleet-scale simulation battery (src/fleet/): placement-policy edge
// cases, evacuation-on-failed-recovery, SLO accounting under outages and
// degraded tenants, the traffic model's portable math, and the headline
// determinism contract — the same master seed reproduces the fleet summary
// byte-for-byte at 1, 4, and 8 threads, and equal to phase A run cold.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "fleet/fleet.h"
#include "sim/json.h"
#include "sim/rng.h"

namespace {

using namespace nlh;
using fleet::EventOutcome;
using fleet::FleetConfig;
using fleet::FleetResult;
using fleet::FleetSim;
using fleet::HostRecoveryEvent;

// Small deterministic fleet with flat traffic (no diurnal swing, no
// bursts): 4 hosts x 2 tenants at 2 rps over 300 s in 30 s ticks, so every
// scenario's request arithmetic is easy to reason about.
FleetConfig SyntheticConfig() {
  FleetConfig cfg;
  cfg.hosts = 4;
  cfg.tenants_per_host = 2;
  cfg.horizon_s = 300;
  cfg.master_seed = 7;
  cfg.traffic.base_rps = 2.0;
  cfg.traffic.diurnal_amplitude = 0.0;
  cfg.traffic.burst_prob = 0.0;
  return cfg;
}

HostRecoveryEvent Ev(int host, sim::Time at, EventOutcome o,
                     sim::Duration outage = 0, sim::Duration death_after = 0) {
  HostRecoveryEvent e;
  e.host = host;
  e.at = at;
  e.outcome = o;
  e.outage = outage;
  e.death_after = death_after;
  return e;
}

// --- Placement policy -------------------------------------------------------

TEST(Placement, LeastLoadedPicksFewestTenants) {
  const std::vector<fleet::HostLoad> hosts = {{true, 5}, {true, 2}, {true, 4}};
  EXPECT_EQ(fleet::ChoosePlacement(fleet::PlacementPolicy::kLeastLoaded, hosts,
                                   /*capacity=*/8),
            1);
}

TEST(Placement, LeastLoadedTieBreaksToLowestHostId) {
  const std::vector<fleet::HostLoad> hosts = {{true, 3}, {true, 2}, {true, 2}};
  EXPECT_EQ(fleet::ChoosePlacement(fleet::PlacementPolicy::kLeastLoaded, hosts,
                                   /*capacity=*/8),
            1);
}

TEST(Placement, FirstFitPicksLowestIdWithSpareCapacity) {
  const std::vector<fleet::HostLoad> hosts = {{true, 8}, {true, 7}, {true, 0}};
  EXPECT_EQ(fleet::ChoosePlacement(fleet::PlacementPolicy::kFirstFit, hosts,
                                   /*capacity=*/8),
            1);
}

TEST(Placement, DeadHostsAreNeverChosen) {
  const std::vector<fleet::HostLoad> hosts = {{false, 0}, {true, 5}};
  EXPECT_EQ(fleet::ChoosePlacement(fleet::PlacementPolicy::kLeastLoaded, hosts,
                                   /*capacity=*/8),
            1);
  EXPECT_EQ(fleet::ChoosePlacement(fleet::PlacementPolicy::kFirstFit, hosts,
                                   /*capacity=*/8),
            1);
}

TEST(Placement, NoCapacityLeftReturnsMinusOne) {
  const std::vector<fleet::HostLoad> hosts = {{true, 8}, {false, 0}, {true, 8}};
  EXPECT_EQ(fleet::ChoosePlacement(fleet::PlacementPolicy::kLeastLoaded, hosts,
                                   /*capacity=*/8),
            -1);
}

// --- Portable traffic math --------------------------------------------------

TEST(Traffic, PortableExpNegMatchesLibmToDoublePrecision) {
  for (const double x : {0.0, 1e-6, 0.1, 0.5, 1.0, 2.0, 5.0, 16.0, 50.0}) {
    EXPECT_NEAR(fleet::PortableExpNeg(x), std::exp(-x), 1e-12) << "x=" << x;
  }
  EXPECT_EQ(fleet::PortableExpNeg(1000.0), 0.0);
}

TEST(Traffic, PoissonDrawMeanTracksLambda) {
  sim::Rng rng(1234);
  for (const double lambda : {0.5, 4.0, 60.0}) {
    double sum = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) sum += fleet::PoissonDraw(lambda, rng);
    const double mean = sum / n;
    EXPECT_NEAR(mean, lambda, 5.0 * std::sqrt(lambda / n) + 0.05)
        << "lambda=" << lambda;
  }
}

TEST(Traffic, DiurnalFactorSwingsAroundOneAndStaggersTenants) {
  fleet::TrafficModel m;
  m.diurnal_amplitude = 0.4;
  double lo = 10, hi = 0, sum = 0;
  const int steps = 96;
  for (int i = 0; i < steps; ++i) {
    const double f =
        m.DiurnalFactor(i * (m.diurnal_period_s / steps), /*tenant=*/0);
    lo = std::min(lo, f);
    hi = std::max(hi, f);
    sum += f;
  }
  EXPECT_NEAR(lo, 0.6, 0.05);
  EXPECT_NEAR(hi, 1.4, 0.05);
  EXPECT_NEAR(sum / steps, 1.0, 0.02);  // mean load is amplitude-free
  // Different tenants sit at different phases of the same curve.
  EXPECT_NE(m.DiurnalFactor(0, 0), m.DiurnalFactor(0, 1));
}

TEST(Traffic, BurstTickMultipliesLambda) {
  fleet::TrafficModel m;
  m.base_rps = 2.0;
  m.diurnal_amplitude = 0.0;
  m.burst_factor = 3.0;
  m.burst_prob = 1.0;  // always burst
  sim::Rng rng(1);
  EXPECT_DOUBLE_EQ(m.TickLambda(0, 0, 30, rng), 2.0 * 3.0 * 30);
  m.burst_prob = 0.0;  // never burst
  EXPECT_DOUBLE_EQ(m.TickLambda(0, 0, 30, rng), 2.0 * 30);
}

TEST(Traffic, MixSeedChangesWithEveryInput) {
  const std::uint64_t base = fleet::MixSeed(1, 2, 3);
  EXPECT_NE(base, fleet::MixSeed(2, 2, 3));
  EXPECT_NE(base, fleet::MixSeed(1, 3, 3));
  EXPECT_NE(base, fleet::MixSeed(1, 2, 4));
  EXPECT_EQ(base, fleet::MixSeed(1, 2, 3));
}

// --- ClassifyHostRun --------------------------------------------------------

TEST(ClassifyHostRun, MapsRunOutcomesToFleetConsequences) {
  fleet::FaultEvent fe;
  fe.host = 3;
  fe.at = sim::Seconds(10);

  core::RunResult r;
  r.outcome = core::OutcomeClass::kNonManifested;
  EXPECT_EQ(ClassifyHostRun(fe, r).outcome, EventOutcome::kNonManifested);

  r.outcome = core::OutcomeClass::kSdc;
  EXPECT_EQ(ClassifyHostRun(fe, r).outcome, EventOutcome::kSdc);

  r.outcome = core::OutcomeClass::kDetected;
  r.detected = true;
  r.success = true;
  r.detection_latency = sim::Milliseconds(2);
  r.first_recovery_latency = sim::Milliseconds(22);
  r.audited = true;
  r.audit_clean = true;
  HostRecoveryEvent clean = ClassifyHostRun(fe, r);
  EXPECT_EQ(clean.outcome, EventOutcome::kCleanRecovery);
  EXPECT_EQ(clean.outage, sim::Milliseconds(24));
  EXPECT_EQ(clean.host, 3);
  EXPECT_EQ(clean.at, sim::Seconds(10));

  r.audit_clean = false;
  r.latent_corruption = true;
  EXPECT_EQ(ClassifyHostRun(fe, r).outcome, EventOutcome::kLatentRecovery);

  r.success = false;
  r.latent_corruption = false;
  r.system_dead = true;
  r.recovery_failed_after = sim::Milliseconds(100);
  HostRecoveryEvent failed = ClassifyHostRun(fe, r);
  EXPECT_EQ(failed.outcome, EventOutcome::kFailedRecovery);
  EXPECT_EQ(failed.death_after, sim::Milliseconds(102));
}

// --- Phase B scenario goldens (ApplyEvents seam) ----------------------------

TEST(FleetApply, NoEventsEveryRequestCompletes) {
  FleetSim sim(SyntheticConfig());
  const FleetResult r = sim.ApplyEvents({});
  EXPECT_GT(r.admitted, 0u);
  EXPECT_EQ(r.admitted, r.completed);
  EXPECT_EQ(r.slo_violated, 0u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.bad_tenant_ticks, 0u);
  EXPECT_EQ(r.slo_violation_minutes, 0.0);
}

TEST(FleetApply, MillisecondCleanRecoveryIsBarelySloVisible) {
  // A NiLiHype-scale 22 ms outage is 0.07% of a 30 s tick: at most one
  // request arrives inside it, and the 1% bad-tick bar is the knife edge.
  FleetSim sim(SyntheticConfig());
  const FleetResult r = sim.ApplyEvents(
      {Ev(0, sim::Seconds(40), EventOutcome::kCleanRecovery,
          sim::Milliseconds(22))});
  EXPECT_EQ(r.clean_recoveries, 1);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_LE(r.slo_violated, 1u);
  EXPECT_LE(r.slo_violation_minutes, 0.5);
}

TEST(FleetApply, SlowRecoveryOutageAccruesSloMinutes) {
  // A 5 s outage: requests in the first 4 s wait past the 1 s drop timeout
  // (dropped), the last 1 s is served late (violated). Both tenants of the
  // host breach their tick.
  FleetSim sim(SyntheticConfig());
  const FleetResult r = sim.ApplyEvents(
      {Ev(0, sim::Seconds(40), EventOutcome::kCleanRecovery, sim::Seconds(5))});
  EXPECT_GT(r.dropped, 0u);
  EXPECT_GT(r.slo_violated, 0u);
  EXPECT_GT(r.dropped, r.slo_violated);  // 4 s dropped vs 1 s violated
  EXPECT_EQ(r.bad_tenant_ticks, 2u);     // both tenants, one tick each
  EXPECT_DOUBLE_EQ(r.slo_violation_minutes, 1.0);
  // Only the faulted host's tenants are affected.
  EXPECT_LT(r.worst_tenant, 2);
}

TEST(FleetApply, FailedRecoveryEvacuatesTenantsToPeers) {
  FleetSim sim(SyntheticConfig());
  const FleetResult r = sim.ApplyEvents(
      {Ev(1, sim::Seconds(60), EventOutcome::kFailedRecovery, 0,
          sim::Milliseconds(500))});
  EXPECT_EQ(r.failed_recoveries, 1);
  EXPECT_EQ(r.hosts_lost, 1);
  EXPECT_EQ(r.tenants_evacuated, 2);
  EXPECT_EQ(r.tenants_unplaced, 0);
  // Evacuation + restart is a real outage: requests drop while the VMs
  // move, then service resumes on the peers.
  EXPECT_GT(r.dropped, 0u);
  EXPECT_GT(r.slo_violation_minutes, 0.0);
  EXPECT_EQ(r.admitted, r.completed + r.slo_violated + r.dropped);
}

TEST(FleetApply, NoCapacityLeftLeavesTenantsUnplaced) {
  FleetConfig cfg = SyntheticConfig();
  cfg.host_capacity = cfg.tenants_per_host;  // every peer already full
  FleetSim sim(cfg);
  const FleetResult r = sim.ApplyEvents(
      {Ev(0, sim::Seconds(60), EventOutcome::kFailedRecovery)});
  EXPECT_EQ(r.tenants_evacuated, 0);
  EXPECT_EQ(r.tenants_unplaced, 2);
}

TEST(FleetApply, UnplacedTenantsDropEverythingToTheHorizon) {
  FleetConfig cfg = SyntheticConfig();
  cfg.host_capacity = cfg.tenants_per_host;
  FleetSim sim(cfg);
  const FleetResult r = sim.ApplyEvents(
      {Ev(0, sim::Seconds(60), EventOutcome::kFailedRecovery)});
  // 2 stranded tenants x 2 rps x 240 remaining seconds ~ 960 requests.
  EXPECT_GT(r.dropped, 800u);
  EXPECT_LT(r.dropped, 1150u);
  // Every remaining tick of both stranded tenants is a bad tick: 8 ticks
  // each after the failure at t=60 of a 300 s horizon.
  EXPECT_EQ(r.bad_tenant_ticks, 16u);
}

TEST(FleetApply, EvacuationRestartsSerializePerTargetHost) {
  // Two hosts only: both evacuees land on host 1 and restart one after the
  // other (kEvacuationDetectGrace 5 s, then kEvacuationRestartPerVm 20 s
  // each) — the second tenant is down for ~45 s, the first for ~25 s.
  FleetConfig cfg = SyntheticConfig();
  cfg.hosts = 2;
  FleetSim sim(cfg);
  const FleetResult r = sim.ApplyEvents(
      {Ev(0, sim::Seconds(60), EventOutcome::kFailedRecovery)});
  EXPECT_EQ(r.tenants_evacuated, 2);
  // ~2 rps x (25 + 45) s of unavailability ~ 140 dropped requests.
  EXPECT_GT(r.dropped, 100u);
  EXPECT_LT(r.dropped, 180u);
}

TEST(FleetApply, LatentRecoveryDegradesThroughput) {
  // Latent corruption leaves the host serving, but 10% of its requests
  // miss their latency target until the end of the horizon.
  FleetSim sim(SyntheticConfig());
  const FleetResult r = sim.ApplyEvents(
      {Ev(0, sim::Seconds(30), EventOutcome::kLatentRecovery,
          sim::Milliseconds(22))});
  EXPECT_EQ(r.latent_recoveries, 1);
  // 2 tenants x 2 rps x 270 s x 10% ~ 108 violated requests.
  EXPECT_GT(r.slo_violated, 70u);
  EXPECT_LT(r.slo_violated, 150u);
  EXPECT_GT(r.slo_violation_minutes, 1.0);
}

TEST(FleetApply, CleanRecoveryClearsStandingDegradation) {
  FleetSim sim(SyntheticConfig());
  const std::vector<HostRecoveryEvent> degraded_forever = {
      Ev(0, sim::Seconds(30), EventOutcome::kLatentRecovery,
         sim::Milliseconds(22))};
  std::vector<HostRecoveryEvent> then_cleaned = degraded_forever;
  then_cleaned.push_back(Ev(0, sim::Seconds(150), EventOutcome::kCleanRecovery,
                            sim::Milliseconds(22)));
  const FleetResult forever = sim.ApplyEvents(degraded_forever);
  const FleetResult cleaned = sim.ApplyEvents(then_cleaned);
  // The clean recovery at t=150 halves the degraded window.
  EXPECT_LT(cleaned.slo_violated, forever.slo_violated * 3 / 4);
}

TEST(FleetApply, SdcDegradesWithoutAnOutage) {
  FleetSim sim(SyntheticConfig());
  const FleetResult r =
      sim.ApplyEvents({Ev(2, sim::Seconds(30), EventOutcome::kSdc)});
  EXPECT_EQ(r.sdc, 1);
  EXPECT_EQ(r.total_outage_ms, 0.0);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_GT(r.slo_violated, 0u);
}

TEST(FleetApply, EventsOnADownHostAreSkipped) {
  FleetSim sim(SyntheticConfig());
  const FleetResult r = sim.ApplyEvents(
      {Ev(0, sim::Seconds(30), EventOutcome::kFailedRecovery),
       Ev(0, sim::Seconds(200), EventOutcome::kCleanRecovery,
          sim::Milliseconds(22))});
  EXPECT_EQ(r.faults_scheduled, 2);
  EXPECT_EQ(r.faults_skipped_host_down, 1);
  EXPECT_EQ(r.clean_recoveries, 0);
}

TEST(FleetApply, RequestAccountingBalancesAcrossMixedOutcomes) {
  FleetSim sim(SyntheticConfig());
  const FleetResult r = sim.ApplyEvents(
      {Ev(0, sim::Seconds(20), EventOutcome::kCleanRecovery, sim::Seconds(3)),
       Ev(1, sim::Seconds(50), EventOutcome::kLatentRecovery,
          sim::Milliseconds(700)),
       Ev(2, sim::Seconds(80), EventOutcome::kSdc),
       Ev(3, sim::Seconds(110), EventOutcome::kFailedRecovery, 0,
          sim::Seconds(1)),
       Ev(0, sim::Seconds(250), EventOutcome::kNonManifested)});
  EXPECT_EQ(r.admitted, r.completed + r.slo_violated + r.dropped);
  EXPECT_EQ(r.non_manifested, 1);
  EXPECT_EQ(r.sdc, 1);
  EXPECT_EQ(r.clean_recoveries, 1);
  EXPECT_EQ(r.latent_recoveries, 1);
  EXPECT_EQ(r.failed_recoveries, 1);
}

TEST(FleetApply, ResultJsonParsesAndEchoesConfig) {
  FleetSim sim(SyntheticConfig());
  const FleetResult r = sim.ApplyEvents(
      {Ev(0, sim::Seconds(40), EventOutcome::kCleanRecovery, sim::Seconds(2))});
  sim::JsonValue doc;
  ASSERT_TRUE(sim::ParseJson(r.ToJson(), &doc));
  const sim::JsonValue* f = doc.Find("fleet");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->Find("hosts")->number, 4);
  EXPECT_EQ(f->Find("tenants")->number, 8);
  EXPECT_EQ(f->Find("mechanism")->str, "nilihype");
  EXPECT_EQ(f->Find("placement")->str, "least-loaded");
  const sim::JsonValue* req = doc.Find("requests");
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(req->Find("admitted")->number),
            r.admitted);
  ASSERT_NE(doc.Find("slo"), nullptr);
  ASSERT_NE(doc.Find("evacuation"), nullptr);
}

// --- Fault schedule ---------------------------------------------------------

TEST(FleetSchedule, PureFunctionOfConfigAndIndependentOfMechanism) {
  FleetConfig cfg = SyntheticConfig();
  cfg.hosts = 50;
  cfg.horizon_s = 3600;
  cfg.mechanism = core::Mechanism::kNiLiHype;
  const std::vector<fleet::FaultEvent> a = FleetSim(cfg).BuildFaultSchedule();
  const std::vector<fleet::FaultEvent> b = FleetSim(cfg).BuildFaultSchedule();
  cfg.mechanism = core::Mechanism::kReHype;
  const std::vector<fleet::FaultEvent> c = FleetSim(cfg).BuildFaultSchedule();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());  // equal fault rates across mechanisms
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].host, b[i].host);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].run_seed, b[i].run_seed);
    EXPECT_EQ(a[i].at, c[i].at);
    EXPECT_EQ(a[i].run_seed, c[i].run_seed);
  }
  // ~50 host-hours at 1 fault/host-hour.
  EXPECT_GT(a.size(), 25u);
  EXPECT_LT(a.size(), 90u);
}

TEST(FleetSchedule, MasterSeedReshapesTheSchedule) {
  FleetConfig cfg = SyntheticConfig();
  cfg.hosts = 50;
  cfg.horizon_s = 3600;
  const std::vector<fleet::FaultEvent> a = FleetSim(cfg).BuildFaultSchedule();
  cfg.master_seed = 8;
  const std::vector<fleet::FaultEvent> b = FleetSim(cfg).BuildFaultSchedule();
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at != b[i].at || a[i].run_seed != b[i].run_seed;
  }
  EXPECT_TRUE(differs);
}

// --- End-to-end (phase A: real TargetSystem runs) ---------------------------

// Small but non-trivial end-to-end fleet: ~8 fault events, each a full
// injection run.
FleetConfig EndToEndConfig(core::Mechanism mech) {
  FleetConfig cfg;
  cfg.hosts = 8;
  cfg.tenants_per_host = 3;
  cfg.horizon_s = 300;
  cfg.faults_per_host_hour = 12.0;
  cfg.master_seed = 42;
  cfg.mechanism = mech;
  return cfg;
}

TEST(FleetEndToEnd, SummaryIsByteIdenticalAtOneFourAndEightThreads) {
  // The headline determinism contract: per-run seeds derive from the master
  // seed alone and phase B is sequential, so the whole FleetResult — the
  // Summary() golden included — is independent of phase-A thread count.
  FleetSim sim(EndToEndConfig(core::Mechanism::kNiLiHype));
  const FleetResult r1 = sim.Run(1);
  const FleetResult r4 = sim.Run(4);
  const FleetResult r8 = sim.Run(8);
  EXPECT_GT(r1.faults_scheduled, 0);
  EXPECT_EQ(r1.Summary(), r4.Summary());
  EXPECT_EQ(r1.Summary(), r8.Summary());
  EXPECT_EQ(r1.ToJson(), r4.ToJson());
  EXPECT_EQ(r1.ToJson(), r8.ToJson());
}

// Phase A run cold: every scheduled fault boots fresh through core::RunMany,
// then is classified and folded by phase B.
FleetResult ColdPipeline(const FleetSim& sim) {
  const std::vector<fleet::FaultEvent> schedule = sim.BuildFaultSchedule();
  std::vector<core::RunConfig> configs;
  for (const fleet::FaultEvent& ev : schedule) {
    core::RunConfig c = sim.config().host_config;
    c.mechanism = sim.config().mechanism;
    c.seed = ev.run_seed;
    configs.push_back(c);
  }
  const std::vector<core::RunResult> results = core::RunMany(configs, 4);
  std::vector<HostRecoveryEvent> events;
  for (std::size_t i = 0; i < results.size(); ++i) {
    events.push_back(fleet::ClassifyHostRun(schedule[i], results[i]));
  }
  return sim.ApplyEvents(events);
}

TEST(FleetEndToEnd, WarmForkedRunMatchesColdPipelineForEveryMechanism) {
  // Register faults add non-manifested, SDC and latent outcomes to the
  // failstop ones.
  for (const inject::FaultType fault :
       {inject::FaultType::kFailstop, inject::FaultType::kRegister}) {
    for (const core::MechanismInfo& m : core::kMechanisms) {
      FleetConfig cfg;
      cfg.hosts = 20;
      cfg.tenants_per_host = 5;
      cfg.horizon_s = 1800;
      cfg.mechanism = m.mechanism;
      cfg.host_config.fault = fault;
      FleetSim sim(cfg);
      const std::string what =
          std::string(m.slug) + " " + inject::FaultTypeName(fault);
      const FleetResult cold = ColdPipeline(sim);
      EXPECT_GT(cold.faults_scheduled, 0) << what;
      EXPECT_EQ(sim.Run(1).ToJson(), cold.ToJson()) << what;
      EXPECT_EQ(sim.Run(4).ToJson(), cold.ToJson()) << what;
    }
  }
}

TEST(FleetEndToEnd, NiLiHypeRecoversWithPaperScaleOutages) {
  FleetSim sim(EndToEndConfig(core::Mechanism::kNiLiHype));
  const FleetResult r = sim.Run();
  EXPECT_GT(r.clean_recoveries + r.latent_recoveries, 0);
  EXPECT_EQ(r.hosts_lost, 0);
  // Microreset latency (~22 ms) plus detection, well under microreboot's.
  EXPECT_GT(r.mean_outage_ms, 5.0);
  EXPECT_LT(r.mean_outage_ms, 100.0);
  EXPECT_EQ(r.admitted, r.completed + r.slo_violated + r.dropped);
}

TEST(FleetEndToEnd, NoMechanismCostsEvacuationsAndSloMinutes) {
  // Recovery disabled: every detected fault kills its host, tenants are
  // evacuated, and the SLO bill dwarfs NiLiHype's at the same fault
  // schedule.
  FleetSim none(EndToEndConfig(core::Mechanism::kNone));
  FleetSim nili(EndToEndConfig(core::Mechanism::kNiLiHype));
  const FleetResult rn = none.Run();
  const FleetResult ri = nili.Run();
  EXPECT_EQ(rn.faults_scheduled, ri.faults_scheduled);  // equal fault rates
  EXPECT_GT(rn.failed_recoveries, 0);
  EXPECT_GT(rn.hosts_lost, 0);
  EXPECT_GT(rn.tenants_evacuated, 0);
  EXPECT_GT(rn.dropped, ri.dropped);
  EXPECT_GT(rn.slo_violation_minutes, ri.slo_violation_minutes);
  EXPECT_EQ(rn.admitted, rn.completed + rn.slo_violated + rn.dropped);
}

}  // namespace
