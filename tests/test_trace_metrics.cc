// Tests for the telemetry layer: flight-recorder spans (nesting, simulated
// time, the ring), the sim/metrics.h histogram, the recovery-path phase
// instrumentation, and the typed FailureReason plumbing through campaign
// aggregation.
#include <gtest/gtest.h>

#include "core/campaign.h"
#include "core/target_system.h"
#include "forensics/flight_recorder.h"
#include "recovery/nilihype.h"
#include "sim/json.h"
#include "sim/metrics.h"

namespace nlh {
namespace {

using forensics::EventKind;
using forensics::FlightEvent;

// --- forensics::FlightRecorder spans ----------------------------------------

TEST(RecorderSpans, SpansNestAndCarrySimulatedTime) {
  forensics::FlightRecorder rec;
  rec.Enable(2);
  const std::uint64_t outer = rec.OpenSpan();
  const std::uint64_t inner = rec.OpenSpan();
  rec.Record({.at = sim::Milliseconds(13),
              .dur = sim::Milliseconds(1),
              .kind = EventKind::kRecoveryPhase,
              .cpu = 1,
              .detail = "leaf"});
  rec.CloseSpan(inner, {.at = sim::Milliseconds(12),
                        .dur = sim::Milliseconds(3),
                        .kind = EventKind::kRecovery,
                        .cpu = 1,
                        .detail = "inner"});
  rec.CloseSpan(outer, {.at = sim::Milliseconds(10),
                        .dur = sim::Milliseconds(10),
                        .kind = EventKind::kAuditSweep,
                        .cpu = 0,
                        .detail = "outer"});

  // Each span is one event; Retained() orders them by start.
  const std::vector<FlightEvent> evs = rec.Retained();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].detail, "outer");
  EXPECT_EQ(evs[1].detail, "inner");
  EXPECT_EQ(evs[2].detail, "leaf");
  EXPECT_EQ(evs[0].parent, 0u);
  EXPECT_EQ(evs[1].parent, evs[0].seq);
  EXPECT_EQ(evs[2].parent, evs[1].seq);
  // Times are the simulated instants handed in, not wall-clock.
  EXPECT_EQ(evs[0].at, sim::Milliseconds(10));
  EXPECT_EQ(evs[0].dur, sim::Milliseconds(10));
  EXPECT_EQ(evs[1].at, sim::Milliseconds(12));
  EXPECT_EQ(evs[1].dur, sim::Milliseconds(3));
  EXPECT_EQ(evs[2].dur, sim::Milliseconds(1));
  EXPECT_FALSE(evs[0].abandoned);
  EXPECT_EQ(forensics::EventName(evs[1]), "recovery:inner");
}

TEST(RecorderSpans, DisabledRecorderRecordsNothing) {
  forensics::FlightRecorder rec;  // never enabled
  EXPECT_EQ(rec.OpenSpan(), 0u);
  rec.Record({.at = 0, .dur = 100, .kind = EventKind::kRecoveryPhase,
              .detail = "b"});
  rec.CloseSpan(1, {.at = 0, .dur = 100, .kind = EventKind::kRecovery,
                    .detail = "a"});
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.Retained().empty());
}

TEST(RecorderSpans, RingOverwritesOldestAndCountsDrops) {
  forensics::FlightRecorder rec;
  rec.Enable(1, /*per_cpu_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.Record({.at = i, .dur = 1, .kind = EventKind::kTimerSoftirq, .cpu = 0,
                .arg0 = static_cast<std::uint64_t>(i), .detail = {}});
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const std::vector<FlightEvent> evs = rec.Retained();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().arg0, 6u);  // oldest survivor
  EXPECT_EQ(evs.back().arg0, 9u);
}

// --- sim/metrics.h ---------------------------------------------------------

TEST(Metrics, HistogramMeanAndInterpolatedQuantile) {
  sim::Histogram h;
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  // Interpolated: rank 0.99*(100-1) = 98.01 between samples 99 and 100.
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 99.01);
}

// --- recovery-path instrumentation ----------------------------------------

class TraceRecoveryTest : public ::testing::Test {
 protected:
  TraceRecoveryTest() : platform_(MakeCfg(), 1), hv_(platform_, hv::HvConfig{}) {
    hv_.Boot();
  }
  static hw::PlatformConfig MakeCfg() {
    hw::PlatformConfig cfg;
    cfg.num_cpus = 4;
    cfg.memory_gib = 8;
    return cfg;
  }
  hw::Platform platform_;
  hv::Hypervisor hv_;
};

TEST_F(TraceRecoveryTest, NiLiHypeEmitsFullPhaseSequence) {
  hv_.flight_recorder().Enable(platform_.num_cpus());
  recovery::NiLiHype mech(hv_, recovery::EnhancementSet::Full());
  const recovery::RecoveryReport rep =
      mech.Recover(1, hv::DetectionKind::kPanic);
  ASSERT_FALSE(rep.gave_up);

  const std::vector<FlightEvent> evs = hv_.flight_recorder().Retained();
  const FlightEvent* root = nullptr;
  for (const FlightEvent& ev : evs) {
    if (forensics::EventName(ev) == "recovery:NiLiHype") root = &ev;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->at, rep.detected_at);
  EXPECT_EQ(root->at + root->dur, rep.resumed_at);

  // Phase spans: children of the root, contiguous, in mechanism order,
  // summing exactly to the report total.
  std::vector<const FlightEvent*> phases;
  for (const FlightEvent& ev : evs) {
    if (ev.kind == EventKind::kRecoveryPhase) phases.push_back(&ev);
  }
  const std::vector<std::string> want = {
      "freeze",          "discard_threads",
      "clear_irq_count", "release_locks",
      "sched_metadata_repair", "retry_setup",
      "frame_table_scan", "reactivate_timers",
      "ack_interrupts",  "reprogram_apic",
      "resume"};
  ASSERT_EQ(phases.size(), want.size());
  sim::Time cursor = rep.detected_at;
  sim::Duration sum = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(phases[i]->detail, want[i]);
    EXPECT_EQ(phases[i]->parent, root->seq);
    EXPECT_EQ(phases[i]->at, cursor);  // contiguous timeline
    cursor = phases[i]->at + phases[i]->dur;
    sum += phases[i]->dur;
  }
  EXPECT_EQ(sum, rep.total());
  EXPECT_EQ(cursor, rep.resumed_at);

  // The report holds the same steps, once each: --metrics-out's per-phase
  // histograms read them from there.
  ASSERT_EQ(rep.steps.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const recovery::StepLatency& step = rep.steps[i];
    EXPECT_EQ(recovery::RecoveryPhaseName(step.phase), want[i]);
    EXPECT_EQ(step.latency, phases[i]->dur);
  }
}

// One fact, one record: each of NiLiHype's 11 steps is recorded once, and
// the Chrome export holds each once (no phase: span beside a phase event).
TEST_F(TraceRecoveryTest, EachPhaseIsRecordedOnceAndExportedOnce) {
  forensics::FlightRecorder& rec = hv_.flight_recorder();
  rec.Enable(platform_.num_cpus());
  recovery::NiLiHype mech(hv_, recovery::EnhancementSet::Full());
  mech.Recover(1, hv::DetectionKind::kPanic);
  platform_.queue().RunUntil(platform_.Now() + sim::Seconds(1));

  int phase_events = 0;
  for (const FlightEvent& ev : rec.Retained()) {
    phase_events += ev.kind == EventKind::kRecoveryPhase ? 1 : 0;
  }
  EXPECT_EQ(phase_events, 11);

  sim::JsonValue trace;
  ASSERT_TRUE(sim::ParseJson(rec.ToChromeJson(), &trace));
  int phase_spans = 0;
  int roots = 0;
  for (const sim::JsonValue& ev : trace.Find("traceEvents")->items) {
    const std::string& name = ev.Find("name")->str;
    phase_spans += name.rfind("recovery_phase:", 0) == 0 ? 1 : 0;
    roots += name == "recovery:NiLiHype" ? 1 : 0;
  }
  EXPECT_EQ(phase_spans, 11);
  EXPECT_EQ(roots, 1);
}

TEST_F(TraceRecoveryTest, RecorderOffRecordsNothing) {
  // Recording is off by default: a full recovery must not record anything.
  recovery::NiLiHype mech(hv_, recovery::EnhancementSet::Full());
  mech.Recover(1, hv::DetectionKind::kPanic);
  platform_.queue().RunUntil(platform_.Now() + sim::Seconds(1));
  EXPECT_FALSE(hv_.flight_recorder().enabled());
  EXPECT_EQ(hv_.flight_recorder().recorded(), 0u);
  EXPECT_TRUE(hv_.flight_recorder().Retained().empty());
}

// --- typed failure reasons -------------------------------------------------

TEST(FailureReason, NamesRoundTrip) {
  using hv::FailureReason;
  for (FailureReason r : {
           FailureReason::kNone, FailureReason::kRecoveryPathCorrupted,
           FailureReason::kNoMechanism, FailureReason::kAttemptLimitReached,
           FailureReason::kNestedError, FailureReason::kUnhandledError,
           FailureReason::kSystemDead, FailureReason::kPrivVmFailed,
           FailureReason::kVm3Failed, FailureReason::kVm3NotAttempted,
           FailureReason::kTooManyVmsAffected}) {
    EXPECT_EQ(hv::FailureReasonFromName(hv::FailureReasonName(r)), r)
        << hv::FailureReasonName(r);
  }
}

TEST(FailureReason, CampaignTallyIsTyped) {
  // With no recovery mechanism every detected run dies with kNoMechanism;
  // the campaign tally must carry that enum (not a message string).
  core::RunConfig cfg = core::RunConfig::OneAppVm(guest::BenchmarkKind::kUnixBench);
  cfg.mechanism = core::Mechanism::kNone;
  cfg.fault = inject::FaultType::kFailstop;
  core::CampaignOptions opts;
  opts.runs = 4;
  opts.seed0 = 42;
  opts.threads = 2;
  const core::CampaignResult res = core::RunCampaign(cfg, opts);
  ASSERT_GT(res.detected, 0);
  EXPECT_EQ(res.success.numer, 0);
  bool found = false;
  for (const auto& [reason, count] : res.failure_reasons) {
    if (reason == hv::FailureReason::kNoMechanism) {
      found = true;
      EXPECT_EQ(count, res.detected);
    }
  }
  EXPECT_TRUE(found);
  // And it serializes under the stable slug.
  EXPECT_NE(res.ToJson().find("\"no_mechanism\""), std::string::npos);
}

TEST(FailureReason, CampaignAggregatesPhaseLatencies) {
  core::RunConfig cfg = core::RunConfig::OneAppVm(guest::BenchmarkKind::kUnixBench);
  cfg.mechanism = core::Mechanism::kNiLiHype;
  cfg.fault = inject::FaultType::kFailstop;
  core::CampaignOptions opts;
  opts.runs = 4;
  opts.seed0 = 7;
  opts.threads = 2;
  const core::CampaignResult res = core::RunCampaign(cfg, opts);
  ASSERT_GT(res.detected, 0);
  ASSERT_FALSE(res.phase_latency.empty());
  EXPECT_EQ(res.phase_latency.front().phase, "freeze");
  double phase_mean_sum = 0;
  for (const core::PhaseAggregate& p : res.phase_latency) {
    EXPECT_GT(p.samples, 0);
    phase_mean_sum += p.mean_ms;
  }
  EXPECT_GT(res.total_latency.samples, 0);
  // Phase means sum to the total mean when every run walks the same phases.
  EXPECT_NEAR(phase_mean_sum, res.total_latency.mean_ms, 0.5);
}

}  // namespace
}  // namespace nlh
