// Fleet-scale simulation: hundreds of hosts, each the single-host
// TargetSystem of core/, serving thousands of tenant VMs under an
// open-loop traffic model — the layer where the paper's microsecond
// recovery-latency numbers become a tenant-visible SLO cost.
//
// The simulation runs in two phases:
//
//   Phase A (parallel) — every fault event drawn from the per-host fault
//   process becomes one full TargetSystem injection run (the host "wraps"
//   today's single-host simulator), forked off a warm template through
//   core::RunManyWarmForked. Per-run seeds derive from the master seed
//   alone, so this phase is bit-identical at any thread count, and equal
//   to running every event cold through core::RunMany.
//
//   Phase B (sequential) — the per-run outcomes are folded onto the fleet
//   timeline: a clean recovery is a brief full outage (detection +
//   recovery latency), a latent-corruption recovery additionally degrades
//   the host's tenant throughput until a later clean recovery, and a
//   failed recovery kills the host — its tenant VMs are evacuated to
//   peers under the placement policy (or stranded when capacity runs
//   out). Tenant request accounting then walks the horizon in SLO ticks,
//   drawing Poisson admissions per tenant-tick and splitting them into
//   completed / SLO-violated / dropped. Admitted == completed + violated
//   + dropped holds exactly, per tenant (tests/test_properties.cc).
//
// The whole FleetResult is a pure function of FleetConfig — same master
// seed, same summary, byte for byte, at 1, 4, or 8 threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/outcome.h"
#include "fleet/placement.h"
#include "fleet/traffic.h"
#include "sim/time.h"

namespace nlh::fleet {

// One scheduled fault on one host (phase A input). Pure function of the
// fleet config: the schedule is identical under every mechanism, which is
// what makes the bench's per-mechanism comparison an equal-fault-rate one.
struct FaultEvent {
  int host = 0;
  sim::Time at = 0;             // fleet time the fault lands
  std::uint64_t run_seed = 0;   // seed of the TargetSystem run
};

// The fleet-visible consequence of one host fault (phase B input).
enum class EventOutcome {
  kNonManifested,    // fault never manifested: no fleet-visible effect
  kSdc,              // silent data corruption: host degrades, no outage
  kCleanRecovery,    // recovered, audit-clean: brief outage, then healthy
  kLatentRecovery,   // recovered but damaged: outage, then degraded
  kFailedRecovery,   // recovery gave up: host lost, tenants evacuated
};

const char* EventOutcomeName(EventOutcome o);  // stable slug

struct HostRecoveryEvent {
  int host = 0;
  sim::Time at = 0;
  EventOutcome outcome = EventOutcome::kNonManifested;
  // Full-outage duration (detection latency + recovery latency) for
  // clean/latent recoveries; 0 otherwise.
  sim::Duration outage = 0;
  // kFailedRecovery: offset from `at` to the moment the host is declared
  // dead (detection latency + time the mechanism spent before giving up,
  // from the RecoveryManager's on-recovery-failed seam).
  sim::Duration death_after = 0;
};

// Maps one TargetSystem run result onto its fleet consequence.
HostRecoveryEvent ClassifyHostRun(const FaultEvent& ev,
                                  const core::RunResult& r);

// --- SLO accounting model ---------------------------------------------------
// Accounting granularity.
inline constexpr int kSloTickSeconds = 30;
// A tenant-tick counts toward SLO-violation-minutes when more than this
// fraction of its admitted requests were violated or dropped. 1% with
// 30 s ticks is the knife edge the paper's gap sits on: a 713 ms ReHype
// outage (2.4% of a tick) breaches it, a 22 ms NiLiHype outage (0.07%)
// does not.
inline constexpr double kBadTickFraction = 0.01;
// Requests arriving while the host is unavailable are served late
// (SLO-violated) if service resumes within this much, dropped otherwise.
inline constexpr sim::Duration kDropTimeout = sim::Seconds(1);
// Fraction of a degraded host's requests that miss their latency target.
inline constexpr double kDegradedViolationRate = 0.10;

// --- Evacuation/restart cost model for failed recoveries -------------------
// Host declared dead -> evacuation starts.
inline constexpr sim::Duration kEvacuationDetectGrace = sim::Seconds(5);
// Restart cost per evacuated VM, serialized per target host.
inline constexpr sim::Duration kEvacuationRestartPerVm = sim::Seconds(20);

struct FleetConfig {
  int hosts = 100;
  int tenants_per_host = 10;
  // Max tenant VMs a host will accept (placement capacity); 0 means twice
  // the initial density.
  int host_capacity = 0;
  int horizon_s = 3600;              // fleet simulation horizon
  // Accelerated fault process: per-host Poisson with this rate (a real
  // fleet sees orders of magnitude less; the ratio between mechanisms is
  // what the model measures, and it is rate-independent).
  double faults_per_host_hour = 1.0;
  std::uint64_t master_seed = 1;
  core::Mechanism mechanism = core::Mechanism::kNiLiHype;
  PlacementPolicy placement = PlacementPolicy::kLeastLoaded;
  TrafficModel traffic;
  // Per-fault-event TargetSystem configuration. Mechanism and seed are
  // overridden per event; `audit` should stay on — the audit-clean vs
  // latent-corruption split is what drives the degraded-host model.
  core::RunConfig host_config = core::RunConfig::FleetHost();

  int HostCapacity() const {
    return host_capacity > 0 ? host_capacity : tenants_per_host * 2;
  }
  int TotalTenants() const { return hosts * tenants_per_host; }
};

struct FleetResult {
  // Config echo (keys every golden and bench artifact on what produced it).
  int hosts = 0;
  int tenants = 0;
  int horizon_s = 0;
  std::uint64_t master_seed = 0;
  std::string mechanism;   // mechanism slug
  std::string placement;   // placement-policy slug

  // Fault events and their per-run outcomes.
  int faults_scheduled = 0;
  int faults_skipped_host_down = 0;  // landed on an already-lost host
  int non_manifested = 0;
  int sdc = 0;
  int clean_recoveries = 0;
  int latent_recoveries = 0;
  int failed_recoveries = 0;

  // Outage cost of the (clean + latent) recoveries.
  double total_outage_ms = 0;
  double mean_outage_ms = 0;
  double p99_outage_ms = 0;

  // Evacuation consequences of the failed recoveries.
  int hosts_lost = 0;
  int tenants_evacuated = 0;
  int tenants_unplaced = 0;  // no capacity left anywhere

  // Request accounting: admitted == completed + slo_violated + dropped.
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t slo_violated = 0;
  std::uint64_t dropped = 0;

  // SLO-violation-minutes: tenant-ticks whose violated+dropped share
  // breached kBadTickFraction, weighted by tick length.
  std::uint64_t bad_tenant_ticks = 0;
  int tenants_with_violations = 0;
  int worst_tenant = -1;
  std::uint64_t worst_tenant_bad_ticks = 0;
  double slo_violation_minutes = 0;

  std::string ToJson() const;
  // Human-readable multi-line summary; the thread-count determinism
  // goldens compare it byte for byte.
  std::string Summary() const;
};

class FleetSim {
 public:
  explicit FleetSim(const FleetConfig& config) : config_(config) {}

  // The per-host fault schedule: a discretized Poisson process (per-second
  // Bernoulli slots, uniform sub-slot offset), pure function of the config
  // — and independent of the mechanism, so per-mechanism comparisons see
  // identical fault sequences.
  std::vector<FaultEvent> BuildFaultSchedule() const;

  // Full simulation: schedule faults, run one TargetSystem injection run
  // per event through core::RunManyWarmForked (phase A, parallel; RunMany
  // when host_config does not inject), then fold the outcomes onto the
  // fleet timeline and account tenant traffic (phase B, sequential).
  // threads == 0 uses hardware concurrency; the result is identical either
  // way.
  FleetResult Run(int threads = 0);

  // Phase B alone, with caller-supplied recovery events — the seam the
  // per-scenario goldens in tests/test_fleet.cc drive directly.
  FleetResult ApplyEvents(const std::vector<HostRecoveryEvent>& events) const;

  const FleetConfig& config() const { return config_; }

 private:
  FleetConfig config_;
};

}  // namespace nlh::fleet
