// Tests for the telemetry layer: sim/trace.h span nesting and simulated
// time, the sim/metrics.h histogram, the recovery-path phase
// instrumentation, and the typed FailureReason plumbing through campaign
// aggregation.
#include <gtest/gtest.h>

#include "core/campaign.h"
#include "core/target_system.h"
#include "recovery/nilihype.h"
#include "sim/metrics.h"
#include "sim/trace.h"

namespace nlh {
namespace {

// --- sim/trace.h -----------------------------------------------------------

TEST(Tracer, SpansNestAndCarrySimulatedTime) {
  sim::Tracer tr;
  tr.Enable();
  const std::uint32_t outer = tr.Begin("outer", 0, sim::Milliseconds(10));
  const std::uint32_t inner = tr.Begin("inner", 1, sim::Milliseconds(12));
  tr.Span("leaf", 1, sim::Milliseconds(13), sim::Milliseconds(14));
  tr.End(inner, sim::Milliseconds(15));
  tr.End(outer, sim::Milliseconds(20));

  const std::vector<sim::TraceEvent> evs = tr.Snapshot();
  ASSERT_EQ(evs.size(), 3u);
  // Snapshot is sorted by start: outer, inner, leaf.
  EXPECT_EQ(evs[0].name, "outer");
  EXPECT_EQ(evs[1].name, "inner");
  EXPECT_EQ(evs[2].name, "leaf");
  EXPECT_EQ(evs[0].parent, 0u);
  EXPECT_EQ(evs[1].parent, evs[0].id);
  EXPECT_EQ(evs[2].parent, evs[1].id);
  // Times are the simulated instants handed in, not wall-clock.
  EXPECT_EQ(evs[0].start, sim::Milliseconds(10));
  EXPECT_EQ(evs[0].end, sim::Milliseconds(20));
  EXPECT_EQ(evs[1].start, sim::Milliseconds(12));
  EXPECT_EQ(evs[1].end, sim::Milliseconds(15));
  EXPECT_EQ(evs[2].end - evs[2].start, sim::Milliseconds(1));
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  sim::Tracer tr;  // never enabled
  EXPECT_EQ(tr.Begin("a", 0, 0), 0u);
  EXPECT_EQ(tr.Span("b", 0, 0, 100), 0u);
  tr.End(1, 100);
  EXPECT_EQ(tr.recorded(), 0u);
  EXPECT_TRUE(tr.Snapshot().empty());
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  sim::Tracer tr;
  tr.Enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) tr.Span("s" + std::to_string(i), 0, i, i + 1);
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  const auto evs = tr.Snapshot();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().name, "s6");  // oldest survivor
  EXPECT_EQ(evs.back().name, "s9");
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
  hv_.tracer().Enable();
  recovery::NiLiHype mech(hv_, recovery::EnhancementSet::Full());
  const recovery::RecoveryReport rep =
      mech.Recover(1, hv::DetectionKind::kPanic);
  ASSERT_FALSE(rep.gave_up);

  const auto evs = hv_.tracer().Snapshot();
  const sim::TraceEvent* root = nullptr;
  for (const auto& ev : evs) {
    if (ev.name == "recover:NiLiHype") root = &ev;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->start, rep.detected_at);
  EXPECT_EQ(root->end, rep.resumed_at);

  // Phase spans: children of the root, contiguous, in mechanism order,
  // summing exactly to the report total.
  std::vector<const sim::TraceEvent*> phases;
  for (const auto& ev : evs) {
    if (ev.name.rfind("phase:", 0) == 0) phases.push_back(&ev);
  }
  const std::vector<std::string> want = {
      "phase:freeze",          "phase:discard_threads",
      "phase:clear_irq_count", "phase:release_locks",
      "phase:sched_metadata_repair", "phase:retry_setup",
      "phase:frame_table_scan", "phase:reactivate_timers",
      "phase:ack_interrupts",  "phase:reprogram_apic",
      "phase:resume"};
  ASSERT_EQ(phases.size(), want.size());
  sim::Time cursor = rep.detected_at;
  sim::Duration sum = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(phases[i]->name, want[i]);
    EXPECT_EQ(phases[i]->parent, root->id);
    EXPECT_EQ(phases[i]->start, cursor);  // contiguous timeline
    cursor = phases[i]->end;
    sum += phases[i]->end - phases[i]->start;
  }
  EXPECT_EQ(sum, rep.total());
  EXPECT_EQ(cursor, rep.resumed_at);

  // The report holds the same steps, once each: --metrics-out's per-phase
  // histograms read them from there.
  ASSERT_EQ(rep.steps.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const recovery::StepLatency& step = rep.steps[i];
    EXPECT_EQ(std::string("phase:") + recovery::RecoveryPhaseName(step.phase),
              want[i]);
    EXPECT_EQ(step.latency, phases[i]->end - phases[i]->start);
  }
}

TEST_F(TraceRecoveryTest, DisabledTracingAddsZeroSpans) {
  // Tracing is off by default: a full recovery must not record anything.
  recovery::NiLiHype mech(hv_, recovery::EnhancementSet::Full());
  mech.Recover(1, hv::DetectionKind::kPanic);
  platform_.queue().RunUntil(platform_.Now() + sim::Seconds(1));
  EXPECT_FALSE(hv_.tracer().enabled());
  EXPECT_EQ(hv_.tracer().recorded(), 0u);
  EXPECT_TRUE(hv_.tracer().Snapshot().empty());
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
