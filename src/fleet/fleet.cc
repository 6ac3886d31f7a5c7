#include "fleet/fleet.h"

#include <algorithm>
#include <cstdio>

#include "core/campaign.h"
#include "sim/json.h"
#include "sim/metrics.h"
#include "sim/rng.h"

namespace nlh::fleet {

namespace {

// Stream salts: every independent random stream in the fleet is keyed off
// (master_seed, salt, index), so no stream ever depends on thread count,
// mechanism, or iteration order.
constexpr std::uint64_t kScheduleSalt = 0x5c4ed01eULL;  // fault schedule/host
constexpr std::uint64_t kRunSalt = 0x40057f1eULL;       // TargetSystem run
constexpr std::uint64_t kTrafficSalt = 0x7aff1cULL;     // traffic/tenant-tick

// Half-open time interval [s, e).
struct Interval {
  sim::Time s = 0;
  sim::Time e = 0;
};

// Per-host phase-B timeline state.
struct HostTimeline {
  sim::Time down_from = -1;            // -1: alive through the horizon
  std::vector<Interval> outages;       // full-outage windows
  std::vector<Interval> degraded;      // closed degraded windows
  sim::Time degraded_open = -1;        // open degraded window start
  sim::Time restart_busy_until = 0;    // serializes evacuation restarts
  int tenants = 0;                     // current placement load
};

// Per-tenant phase-B timeline state.
struct PlacementAt {
  sim::Time from = 0;
  int host = -1;  // -1: unplaced (stranded)
};

struct TenantTimeline {
  std::vector<PlacementAt> places;     // placement history, `from` ascending
  std::vector<Interval> unavailable;   // evacuation/restart windows
};

// How one instant of one tenant's service is classified.
enum class ServiceClass { kUp, kDegraded, kViolated, kDropped };

}  // namespace

const char* EventOutcomeName(EventOutcome o) {
  switch (o) {
    case EventOutcome::kNonManifested: return "non_manifested";
    case EventOutcome::kSdc: return "sdc";
    case EventOutcome::kCleanRecovery: return "clean";
    case EventOutcome::kLatentRecovery: return "latent";
    case EventOutcome::kFailedRecovery: return "failed";
  }
  return "?";
}

HostRecoveryEvent ClassifyHostRun(const FaultEvent& ev,
                                  const core::RunResult& r) {
  HostRecoveryEvent out;
  out.host = ev.host;
  out.at = ev.at;
  switch (r.outcome) {
    case core::OutcomeClass::kNonManifested:
      out.outcome = EventOutcome::kNonManifested;
      return out;
    case core::OutcomeClass::kSdc:
      out.outcome = EventOutcome::kSdc;
      return out;
    case core::OutcomeClass::kDetected:
      break;
  }
  const sim::Duration det = r.detection_latency > 0 ? r.detection_latency : 0;
  if (r.success) {
    out.outage = det + r.first_recovery_latency;
    out.outcome = (r.audited && r.latent_corruption)
                      ? EventOutcome::kLatentRecovery
                      : EventOutcome::kCleanRecovery;
  } else if (r.system_dead) {
    out.outcome = EventOutcome::kFailedRecovery;
    out.death_after = det + (r.recovery_failed_after >= 0
                                 ? r.recovery_failed_after
                                 : r.first_recovery_latency);
  } else {
    // Recovered (hypervisor alive) but with VM damage beyond the paper's
    // success bar: fleet-visible as an outage followed by a degraded host.
    out.outcome = EventOutcome::kLatentRecovery;
    out.outage = det + r.first_recovery_latency;
  }
  return out;
}

std::vector<FaultEvent> FleetSim::BuildFaultSchedule() const {
  std::vector<FaultEvent> out;
  const double per_second = config_.faults_per_host_hour / 3600.0;
  for (int h = 0; h < config_.hosts; ++h) {
    sim::Rng rng(MixSeed(config_.master_seed, kScheduleSalt,
                         static_cast<std::uint64_t>(h)));
    std::uint64_t ordinal = 0;
    for (int s = 0; s < config_.horizon_s; ++s) {
      if (!rng.Chance(per_second)) continue;
      FaultEvent ev;
      ev.host = h;
      ev.at = sim::Seconds(s) + rng.Range(0, sim::kSecond - 1);
      ev.run_seed = MixSeed(config_.master_seed ^ kRunSalt,
                            static_cast<std::uint64_t>(h), ordinal++);
      out.push_back(ev);
    }
  }
  return out;  // (host, at) ordered; ApplyEvents re-sorts by (at, host)
}

FleetResult FleetSim::Run(int threads) {
  const std::vector<FaultEvent> schedule = BuildFaultSchedule();
  std::vector<core::RunConfig> configs;
  configs.reserve(schedule.size());
  for (const FaultEvent& ev : schedule) {
    core::RunConfig c = config_.host_config;
    c.mechanism = config_.mechanism;
    c.seed = ev.run_seed;
    configs.push_back(c);
  }
  // A host config that injects nothing has no trigger to fork at.
  const std::vector<core::RunResult> results =
      config_.host_config.inject ? core::RunManyWarmForked(configs, threads)
                                 : core::RunMany(configs, threads);
  std::vector<HostRecoveryEvent> events;
  events.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    events.push_back(ClassifyHostRun(schedule[i], results[i]));
  }
  return ApplyEvents(events);
}

FleetResult FleetSim::ApplyEvents(
    const std::vector<HostRecoveryEvent>& events) const {
  const FleetConfig& cfg = config_;
  const sim::Time horizon = sim::Seconds(cfg.horizon_s);
  const int total_tenants = cfg.TotalTenants();

  FleetResult res;
  res.hosts = cfg.hosts;
  res.tenants = total_tenants;
  res.horizon_s = cfg.horizon_s;
  res.master_seed = cfg.master_seed;
  res.mechanism = core::MechanismSlug(cfg.mechanism);
  res.placement = PlacementPolicyName(cfg.placement);
  res.faults_scheduled = static_cast<int>(events.size());

  std::vector<HostTimeline> hosts(static_cast<std::size_t>(cfg.hosts));
  for (HostTimeline& h : hosts) h.tenants = cfg.tenants_per_host;
  std::vector<TenantTimeline> tenants(static_cast<std::size_t>(total_tenants));
  std::vector<int> tenant_host(static_cast<std::size_t>(total_tenants));
  for (int t = 0; t < total_tenants; ++t) {
    tenant_host[static_cast<std::size_t>(t)] = t / cfg.tenants_per_host;
    tenants[static_cast<std::size_t>(t)].places.push_back(
        {0, tenant_host[static_cast<std::size_t>(t)]});
  }

  // --- Fold events onto the timeline (ascending fleet time) -----------------
  std::vector<HostRecoveryEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const HostRecoveryEvent& a, const HostRecoveryEvent& b) {
                     return a.at != b.at ? a.at < b.at : a.host < b.host;
                   });

  sim::Histogram outage_hist;
  for (const HostRecoveryEvent& e : sorted) {
    if (e.host < 0 || e.host >= cfg.hosts) continue;
    HostTimeline& ht = hosts[static_cast<std::size_t>(e.host)];
    if (ht.down_from >= 0) {
      // A fault landing on an already-lost host has nothing left to break.
      ++res.faults_skipped_host_down;
      continue;
    }
    switch (e.outcome) {
      case EventOutcome::kNonManifested:
        ++res.non_manifested;
        break;
      case EventOutcome::kSdc:
        ++res.sdc;
        if (ht.degraded_open < 0) ht.degraded_open = e.at;
        break;
      case EventOutcome::kCleanRecovery:
        ++res.clean_recoveries;
        ht.outages.push_back({e.at, e.at + e.outage});
        // A clean (audit-verified) recovery also clears any standing
        // degradation: the mechanism restored consistent hypervisor state.
        if (ht.degraded_open >= 0) {
          ht.degraded.push_back({ht.degraded_open, e.at});
          ht.degraded_open = -1;
        }
        outage_hist.Observe(sim::ToMillisF(e.outage));
        break;
      case EventOutcome::kLatentRecovery:
        ++res.latent_recoveries;
        ht.outages.push_back({e.at, e.at + e.outage});
        if (ht.degraded_open < 0) ht.degraded_open = e.at + e.outage;
        outage_hist.Observe(sim::ToMillisF(e.outage));
        break;
      case EventOutcome::kFailedRecovery: {
        ++res.failed_recoveries;
        ++res.hosts_lost;
        const sim::Time t_down = e.at + e.death_after;
        ht.down_from = t_down;
        if (ht.degraded_open >= 0) {
          ht.degraded.push_back({ht.degraded_open, t_down});
          ht.degraded_open = -1;
        }
        // Evacuate every tenant VM this host serves, in tenant-id order
        // (deterministic; real toolstacks walk the domain list the same
        // way). Restarts serialize per target host.
        for (int t = 0; t < total_tenants; ++t) {
          if (tenant_host[static_cast<std::size_t>(t)] != e.host) continue;
          TenantTimeline& tt = tenants[static_cast<std::size_t>(t)];
          --ht.tenants;
          // A tenant still mid-restart toward this host dies with it:
          // truncate the pending restart window and re-place from t_down.
          if (!tt.unavailable.empty() && tt.unavailable.back().e > t_down) {
            tt.unavailable.back().e = t_down;
          }
          while (!tt.places.empty() && tt.places.back().from >= t_down) {
            tt.places.pop_back();
          }
          std::vector<HostLoad> view(static_cast<std::size_t>(cfg.hosts));
          for (int h = 0; h < cfg.hosts; ++h) {
            view[static_cast<std::size_t>(h)] = {
                hosts[static_cast<std::size_t>(h)].down_from < 0,
                hosts[static_cast<std::size_t>(h)].tenants};
          }
          const int target =
              ChoosePlacement(cfg.placement, view, cfg.HostCapacity());
          if (target < 0) {
            ++res.tenants_unplaced;
            tenant_host[static_cast<std::size_t>(t)] = -1;
            tt.places.push_back({t_down, -1});
            continue;
          }
          ++res.tenants_evacuated;
          HostTimeline& tgt = hosts[static_cast<std::size_t>(target)];
          const sim::Time start = std::max(t_down + kEvacuationDetectGrace,
                                           tgt.restart_busy_until);
          const sim::Time done = start + kEvacuationRestartPerVm;
          tgt.restart_busy_until = done;
          ++tgt.tenants;
          tt.unavailable.push_back({t_down, done});
          tt.places.push_back({done, target});
          tenant_host[static_cast<std::size_t>(t)] = target;
        }
        break;
      }
    }
  }
  for (HostTimeline& ht : hosts) {
    if (ht.degraded_open >= 0) {
      ht.degraded.push_back({ht.degraded_open, horizon});
      ht.degraded_open = -1;
    }
  }
  res.total_outage_ms = outage_hist.sum();
  res.mean_outage_ms = outage_hist.Mean();
  res.p99_outage_ms = outage_hist.Quantile(0.99);

  // --- Tick-based tenant request accounting ---------------------------------
  // Classifies one instant of one tenant's service. Priority order:
  // unplaced/evacuating/host-down drop everything; an outage drops requests
  // that would wait past kDropTimeout and serves the rest late (violated);
  // a degraded host serves, with a violation rate applied separately.
  const auto classify = [&](const TenantTimeline& tt,
                            sim::Time at) -> ServiceClass {
    int host = -1;
    for (const PlacementAt& p : tt.places) {
      if (p.from <= at) host = p.host;
      else break;
    }
    if (host < 0) return ServiceClass::kDropped;  // stranded
    for (const Interval& u : tt.unavailable) {
      if (at >= u.s && at < u.e) return ServiceClass::kDropped;
    }
    const HostTimeline& ht = hosts[static_cast<std::size_t>(host)];
    if (ht.down_from >= 0 && at >= ht.down_from) return ServiceClass::kDropped;
    for (const Interval& o : ht.outages) {
      if (at >= o.s && at < o.e) {
        return (o.e - at) <= kDropTimeout ? ServiceClass::kViolated
                                          : ServiceClass::kDropped;
      }
    }
    for (const Interval& d : ht.degraded) {
      if (at >= d.s && at < d.e) return ServiceClass::kDegraded;
    }
    return ServiceClass::kUp;
  };

  const sim::Duration tick_ns = sim::Seconds(kSloTickSeconds);
  const int ticks =
      static_cast<int>((horizon + tick_ns - 1) / tick_ns);

  std::vector<sim::Time> cand;     // per-tenant class-boundary instants
  std::vector<sim::Time> bounds;   // per-tick slice of cand
  std::vector<int> visited;
  for (int t = 0; t < total_tenants; ++t) {
    const TenantTimeline& tt = tenants[static_cast<std::size_t>(t)];
    // Every instant where this tenant's service class can change.
    cand.clear();
    visited.clear();
    for (const PlacementAt& p : tt.places) {
      cand.push_back(p.from);
      if (p.host >= 0) visited.push_back(p.host);
    }
    for (const Interval& u : tt.unavailable) {
      cand.push_back(u.s);
      cand.push_back(u.e);
    }
    std::sort(visited.begin(), visited.end());
    visited.erase(std::unique(visited.begin(), visited.end()), visited.end());
    for (const int h : visited) {
      const HostTimeline& ht = hosts[static_cast<std::size_t>(h)];
      if (ht.down_from >= 0) cand.push_back(ht.down_from);
      for (const Interval& o : ht.outages) {
        cand.push_back(o.s);
        cand.push_back(o.e);
        cand.push_back(o.e - kDropTimeout);  // violated/dropped split
      }
      for (const Interval& d : ht.degraded) {
        cand.push_back(d.s);
        cand.push_back(d.e);
      }
    }
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

    std::uint64_t bad = 0;
    for (int ti = 0; ti < ticks; ++ti) {
      const sim::Time a = static_cast<sim::Time>(ti) * tick_ns;
      const sim::Time b = std::min<sim::Time>(a + tick_ns, horizon);
      sim::Rng rng(MixSeed(cfg.master_seed ^ kTrafficSalt,
                           static_cast<std::uint64_t>(t),
                           static_cast<std::uint64_t>(ti)));
      const double lambda = cfg.traffic.TickLambda(
          a / sim::kSecond, t, static_cast<int>((b - a) / sim::kSecond), rng);
      const int n = PoissonDraw(lambda, rng);

      // Exact per-class time shares: split the tick at every boundary and
      // classify each elementary sub-interval at its midpoint.
      bounds.clear();
      bounds.push_back(a);
      for (const sim::Time c : cand) {
        if (c > a && c < b) bounds.push_back(c);
      }
      bounds.push_back(b);
      sim::Duration drop_ns = 0, viol_ns = 0, deg_ns = 0;
      for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        const sim::Time x = bounds[i];
        const sim::Time y = bounds[i + 1];
        switch (classify(tt, x + (y - x) / 2)) {
          case ServiceClass::kDropped: drop_ns += y - x; break;
          case ServiceClass::kViolated: viol_ns += y - x; break;
          case ServiceClass::kDegraded: deg_ns += y - x; break;
          case ServiceClass::kUp: break;
        }
      }

      const double span = static_cast<double>(b - a);
      int drop = StochasticRound(
          static_cast<double>(n) * static_cast<double>(drop_ns) / span, rng);
      if (drop > n) drop = n;
      int viol = StochasticRound(
          static_cast<double>(n) * static_cast<double>(viol_ns) / span, rng);
      if (drop + viol > n) viol = n - drop;
      int deg_n = StochasticRound(
          static_cast<double>(n) * static_cast<double>(deg_ns) / span, rng);
      if (deg_n > n - drop - viol) deg_n = n - drop - viol;
      viol += StochasticRound(
          static_cast<double>(deg_n) * kDegradedViolationRate, rng);
      if (drop + viol > n) viol = n - drop;
      const int completed = n - drop - viol;

      res.admitted += static_cast<std::uint64_t>(n);
      res.dropped += static_cast<std::uint64_t>(drop);
      res.slo_violated += static_cast<std::uint64_t>(viol);
      res.completed += static_cast<std::uint64_t>(completed);
      if (n > 0 && static_cast<double>(drop + viol) >
                       kBadTickFraction * static_cast<double>(n)) {
        ++bad;
        res.slo_violation_minutes +=
            static_cast<double>(b - a) / (60.0 * static_cast<double>(sim::kSecond));
      }
    }
    res.bad_tenant_ticks += bad;
    if (bad > 0) {
      ++res.tenants_with_violations;
      if (bad > res.worst_tenant_bad_ticks) {
        res.worst_tenant_bad_ticks = bad;
        res.worst_tenant = t;
      }
    }
  }
  return res;
}

std::string FleetResult::ToJson() const {
  std::string out = "{\"fleet\":{";
  out += "\"hosts\":" + std::to_string(hosts);
  out += ",\"tenants\":" + std::to_string(tenants);
  out += ",\"horizon_s\":" + std::to_string(horizon_s);
  out += ",\"master_seed\":" + std::to_string(master_seed);
  out += ",\"mechanism\":" + sim::JsonStr(mechanism);
  out += ",\"placement\":" + sim::JsonStr(placement);
  out += "},\"faults\":{";
  out += "\"scheduled\":" + std::to_string(faults_scheduled);
  out += ",\"skipped_host_down\":" + std::to_string(faults_skipped_host_down);
  out += ",\"non_manifested\":" + std::to_string(non_manifested);
  out += ",\"sdc\":" + std::to_string(sdc);
  out += ",\"clean\":" + std::to_string(clean_recoveries);
  out += ",\"latent\":" + std::to_string(latent_recoveries);
  out += ",\"failed\":" + std::to_string(failed_recoveries);
  out += "},\"outage_ms\":{";
  out += "\"total\":" + sim::JsonNum(total_outage_ms);
  out += ",\"mean\":" + sim::JsonNum(mean_outage_ms);
  out += ",\"p99\":" + sim::JsonNum(p99_outage_ms);
  out += "},\"evacuation\":{";
  out += "\"hosts_lost\":" + std::to_string(hosts_lost);
  out += ",\"tenants_evacuated\":" + std::to_string(tenants_evacuated);
  out += ",\"tenants_unplaced\":" + std::to_string(tenants_unplaced);
  out += "},\"requests\":{";
  out += "\"admitted\":" + std::to_string(admitted);
  out += ",\"completed\":" + std::to_string(completed);
  out += ",\"slo_violated\":" + std::to_string(slo_violated);
  out += ",\"dropped\":" + std::to_string(dropped);
  out += "},\"slo\":{";
  out += "\"bad_tenant_ticks\":" + std::to_string(bad_tenant_ticks);
  out += ",\"tenants_with_violations\":" + std::to_string(tenants_with_violations);
  out += ",\"worst_tenant\":" + std::to_string(worst_tenant);
  out += ",\"worst_tenant_bad_ticks\":" + std::to_string(worst_tenant_bad_ticks);
  out += ",\"violation_minutes\":" + sim::JsonNum(slo_violation_minutes);
  out += "}}";
  return out;
}

std::string FleetResult::Summary() const {
  std::string out;
  out += "fleet: " + std::to_string(hosts) + " hosts, " +
         std::to_string(tenants) + " tenants, " + std::to_string(horizon_s) +
         " s, seed " + std::to_string(master_seed) + ", mechanism " +
         mechanism + ", placement " + placement + "\n";
  out += "faults: " + std::to_string(faults_scheduled) + " scheduled, " +
         std::to_string(faults_skipped_host_down) + " skipped (host down); " +
         std::to_string(non_manifested) + " non-manifested, " +
         std::to_string(sdc) + " sdc, " + std::to_string(clean_recoveries) +
         " clean, " + std::to_string(latent_recoveries) + " latent, " +
         std::to_string(failed_recoveries) + " failed\n";
  out += "outage: total " + sim::JsonNum(total_outage_ms) + " ms, mean " +
         sim::JsonNum(mean_outage_ms) + " ms, p99 " +
         sim::JsonNum(p99_outage_ms) + " ms\n";
  out += "evacuation: " + std::to_string(hosts_lost) + " hosts lost, " +
         std::to_string(tenants_evacuated) + " tenants evacuated, " +
         std::to_string(tenants_unplaced) + " unplaced\n";
  out += "requests: " + std::to_string(admitted) + " admitted = " +
         std::to_string(completed) + " completed + " +
         std::to_string(slo_violated) + " violated + " +
         std::to_string(dropped) + " dropped\n";
  out += "slo: " + std::to_string(bad_tenant_ticks) + " bad tenant-ticks, " +
         std::to_string(tenants_with_violations) +
         " tenants with violations, worst tenant " +
         std::to_string(worst_tenant) + " (" +
         std::to_string(worst_tenant_bad_ticks) + " bad ticks), " +
         sim::JsonNum(slo_violation_minutes) + " violation-minutes\n";
  return out;
}

}  // namespace nlh::fleet
