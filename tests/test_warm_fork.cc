// Determinism goldens for the warm-fork campaign runner (core/campaign.h):
// RunManyWarmForked must produce results byte-identical to the cold
// RunMany path, at every thread count. The comparison serializes every
// semantically meaningful RunResult field — if warm forking perturbs any
// timing, RNG stream, event order, or classification, these goldens break.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/config.h"
#include "core/outcome.h"
#include "core/target_system.h"
#include "forensics/dossier.h"

namespace nlh::core {
namespace {

// Canonical serialization of a RunResult for equality checks. Covers every
// field that classification, aggregation, or forensics reads.
std::string Canon(const RunResult& r) {
  std::ostringstream o;
  o << "outcome=" << static_cast<int>(r.outcome)
    << " detected=" << r.detected << " recoveries=" << r.recoveries
    << " dead=" << r.system_dead
    << " death_code=" << static_cast<int>(r.death_code)
    << " death_reason=" << r.death_reason
    << " first_latency=" << r.first_recovery_latency << "\nphases:";
  for (const PhaseLatency& p : r.recovery_phases) {
    o << " [" << p.phase << "|" << p.label << "|" << p.latency << "]";
  }
  o << "\nvms:";
  for (const VmVerdict& v : r.vms) {
    o << " [" << v.name << "|" << v.affected << "|" << v.why << "]";
  }
  o << "\nprivvm_ok=" << r.privvm_ok << " vm3_attempted=" << r.vm3_attempted
    << " vm3_ok=" << r.vm3_ok << " success=" << r.success
    << " no_vm_failures=" << r.no_vm_failures
    << " failure_reason=" << static_cast<int>(r.failure_reason)
    << " failure_detail=" << r.failure_detail
    << "\naudited=" << r.audited << " audit_clean=" << r.audit_clean
    << " latent=" << r.latent_corruption
    << " audit_findings=" << r.audit_report.findings.size()
    << "\ninj_fired=" << r.injection_fired << " injected_at=" << r.injected_at
    << " inj_cpu=" << r.injection_cpu
    << " manifestation=" << static_cast<int>(r.manifestation)
    << "\ninj_corruptions:";
  for (const std::string& c : r.injection_corruptions) o << " " << c;
  o << "\nplanted:";
  for (const std::string& c : r.planted_corruptions) o << " " << c;
  o << "\ndet_kind=" << static_cast<int>(r.detection.kind)
    << " det_code=" << static_cast<int>(r.detection.code)
    << " det_cpu=" << r.detection.cpu << " det_latency=" << r.detection_latency
    << " det_class=" << static_cast<int>(r.detection_class)
    << "\nnet_max_gap=" << r.net_max_gap
    << " net_rate_dropped=" << r.net_rate_dropped
    << " hv_cycles=" << r.hv_cycles << " total_cycles=" << r.total_cycles;
  return o.str();
}

std::vector<RunConfig> MakeConfigs(Mechanism mech, int n,
                                   std::uint64_t seed0) {
  std::vector<RunConfig> configs;
  for (int i = 0; i < n; ++i) {
    RunConfig cfg;
    cfg.mechanism = mech;
    cfg.seed = seed0 + static_cast<std::uint64_t>(i);
    configs.push_back(cfg);
  }
  return configs;
}

void ExpectWarmMatchesCold(const std::vector<RunConfig>& configs) {
  const std::vector<RunResult> cold = RunMany(configs, /*threads=*/1);
  ASSERT_EQ(cold.size(), configs.size());
  for (int threads : {1, 4, 8}) {
    const std::vector<RunResult> warm =
        RunManyWarmForked(configs, threads, sim::Milliseconds(100));
    ASSERT_EQ(warm.size(), cold.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(Canon(warm[i]), Canon(cold[i]))
          << "threads=" << threads << " run=" << i
          << " seed=" << configs[i].seed;
    }
  }
}

TEST(WarmForkGolden, NiLiHypeFailstopMatchesColdAtEveryThreadCount) {
  ExpectWarmMatchesCold(MakeConfigs(Mechanism::kNiLiHype, 12, 1000));
}

TEST(WarmForkGolden, ReHypeMatchesCold) {
  ExpectWarmMatchesCold(MakeConfigs(Mechanism::kReHype, 6, 2000));
}

TEST(WarmForkGolden, SnapResMatchesCold) {
  // The snapres snapshot is mechanism-internal run state: this golden
  // breaks if a forked run ever sees another run's snapshot.
  ExpectWarmMatchesCold(MakeConfigs(Mechanism::kSnapRes, 6, 3000));
}

TEST(WarmForkGolden, RegisterFaultsMatchCold) {
  // Register faults corrupt state before detection — exercises the full
  // injection machinery (step hooks, corruption application) on the warm
  // path, not just the failstop trigger.
  std::vector<RunConfig> configs = MakeConfigs(Mechanism::kNiLiHype, 8, 4000);
  for (RunConfig& cfg : configs) cfg.fault = inject::FaultType::kRegister;
  ExpectWarmMatchesCold(configs);
}

TEST(WarmForkGolden, AuditedRunsMatchCold) {
  // Audited runs capture a golden snapshot pre-injection and diff at the
  // end — both must behave identically off a warm fork.
  std::vector<RunConfig> configs = MakeConfigs(Mechanism::kNiLiHype, 4, 5000);
  for (RunConfig& cfg : configs) cfg.audit = true;
  ExpectWarmMatchesCold(configs);
}

// Every guest's failure flags. The PrivVM's never reach the RunResult, so
// a PrivVM RNG stream drawn from the wrong seed shows only here.
std::string GuestFailures(TargetSystem& sys) {
  std::ostringstream o;
  const auto add = [&o](const guest::GuestKernel& g) {
    o << " [" << g.name() << "|" << g.crashed() << "|" << g.io_errors() << "|"
      << g.syscall_failures() << "|" << g.process_failed() << "]";
  };
  add(sys.privvm());
  for (const auto& vm : sys.appvms()) add(*vm);
  return o.str();
}

// Forks every run off one template captured before all their triggers and
// compares each with the cold run of its seed, guest failure flags
// included.
void ExpectRearmMatchesCold(std::vector<RunConfig> configs) {
  // Without FS/GS saving and hypercall retry, every recovery notifies the
  // guests it interrupted (OnFsGsLost, OnHypercallLost), and each
  // notification draws that guest's RNG.
  for (RunConfig& cfg : configs) {
    cfg.enhancements.save_fs_gs = false;
    cfg.enhancements.hypercall_retry = false;
  }
  RunConfig tmpl = configs[0];
  tmpl.inject = false;
  TargetSystem warm(tmpl);
  warm.RunUntil(tmpl.inject_window_start);
  TargetSystem::ForkImage img;
  warm.CaptureForkImage(&img);
  for (const RunConfig& cfg : configs) {
    TargetSystem cold(cfg);
    const RunResult cold_result = cold.Run();
    warm.RestoreForkImage(img);
    warm.RearmForSeed(cfg);
    const RunResult warm_result = warm.Run();
    EXPECT_EQ(Canon(warm_result), Canon(cold_result)) << "seed=" << cfg.seed;
    EXPECT_EQ(GuestFailures(warm), GuestFailures(cold)) << "seed=" << cfg.seed;
    EXPECT_EQ(forensics::MetricsJson(warm, warm_result),
              forensics::MetricsJson(cold, cold_result))
        << "seed=" << cfg.seed;
  }
}

TEST(WarmForkGolden, GuestRngDrawsAfterTheForkMatchCold) {
  // RearmForSeed must reseed the PrivVM and AppVM streams exactly as a
  // cold boot seeds them. In the 3AppVM setup the interrupted guests are
  // the AppVMs; with one BlkBench AppVM the PrivVM is busy serving it, and
  // is interrupted too.
  ExpectRearmMatchesCold(MakeConfigs(Mechanism::kNiLiHype, 12, 9000));
  std::vector<RunConfig> blk;
  for (int i = 0; i < 16; ++i) {
    blk.push_back(RunConfig::OneAppVm(guest::BenchmarkKind::kBlkBench));
    blk.back().seed = 9000 + static_cast<std::uint64_t>(i);
  }
  ExpectRearmMatchesCold(blk);
}

TEST(WarmForkCampaign, EveryCampaignRunMatchesRunMany) {
  // RunCampaign forks injecting campaigns warm on its own; each run it
  // hands to on_run must equal the cold run of the same seed.
  const std::vector<RunConfig> configs =
      MakeConfigs(Mechanism::kNiLiHype, 16, 7000);
  const std::vector<RunResult> cold = RunMany(configs, /*threads=*/1);
  for (int threads : {1, 4}) {
    std::vector<std::string> runs(configs.size());
    CampaignOptions opts;
    opts.runs = static_cast<int>(configs.size());
    opts.seed0 = 7000;
    opts.threads = threads;
    opts.on_run = [&runs](int i, const RunResult& r) {
      runs[static_cast<std::size_t>(i)] = Canon(r);
    };
    RunCampaign(configs[0], opts);
    for (std::size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(runs[i], Canon(cold[i])) << "threads=" << threads
                                         << " run=" << i;
    }
  }
}

// --- Homogeneity contract -----------------------------------------------------

TEST(WarmForkGolden, SeedFaultAndWindowMayVary) {
  // The shape of an audited, integrity-monitored benchmark campaign: fault
  // type rotated by run index, triggers stratified over the window.
  static constexpr inject::FaultType kFaults[] = {
      inject::FaultType::kFailstop, inject::FaultType::kRegister,
      inject::FaultType::kCode};
  std::vector<RunConfig> configs = MakeConfigs(Mechanism::kNiLiHype, 6, 8000);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].fault = kFaults[i % 3];
    configs[i].inject_window_start =
        sim::Milliseconds(300) + static_cast<sim::Duration>(i) *
                                     sim::Milliseconds(150);
    configs[i].inject_window_end =
        configs[i].inject_window_start + sim::Milliseconds(150);
    configs[i].audit = true;
    configs[i].integrity = true;
  }
  ExpectWarmMatchesCold(configs);
}

// A run that cannot fork off run 0's template is rejected before anything
// runs, naming the first offending index.
void ExpectRejected(const std::vector<RunConfig>& configs, int bad_index) {
  try {
    RunManyWarmForked(configs, 1, sim::Milliseconds(100));
    ADD_FAILURE() << "heterogeneous configs were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "run " + std::to_string(bad_index) + " differs"),
              std::string::npos)
        << e.what();
  }
}

TEST(WarmForkContract, MismatchedMechanismThrows) {
  std::vector<RunConfig> configs = MakeConfigs(Mechanism::kNiLiHype, 4, 1000);
  configs[2].mechanism = Mechanism::kReHype;
  ExpectRejected(configs, 2);
}

TEST(WarmForkContract, MismatchedSetupThrows) {
  std::vector<RunConfig> configs = MakeConfigs(Mechanism::kNiLiHype, 3, 1000);
  configs[1].setup = Setup::k1AppVM;
  ExpectRejected(configs, 1);
}

TEST(WarmForkContract, MismatchedAuditFlagThrows) {
  std::vector<RunConfig> configs = MakeConfigs(Mechanism::kNiLiHype, 5, 1000);
  configs[3].audit = true;
  configs[4].mechanism = Mechanism::kSnapRes;
  ExpectRejected(configs, 3);
}

}  // namespace
}  // namespace nlh::core
