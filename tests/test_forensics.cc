// Forensics battery: flight recorder rings + NLH_RECORD weave, the JSON
// parser and round-trips of every emitted artifact, the root-cause
// correlator, the cost-attribution profiler, dossier emission, and the
// byte-identical determinism of forensic replays.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/target_system.h"
#include "forensics/correlator.h"
#include "forensics/dossier.h"
#include "forensics/flight_recorder.h"
#include "forensics/profiler.h"
#include "forensics/record.h"
#include "hv/hypervisor.h"
#include "hv/panic.h"
#include "inject/injector.h"
#include "sim/json.h"
#include "sim/metrics.h"

using namespace nlh;

namespace {

// --- FlightRecorder ---------------------------------------------------------

TEST(FlightRecorder, RecordsPerCpuAndGlobalRings) {
  forensics::FlightRecorder rec;
  sim::Time now = 100;
  rec.SetClock([&now] { return now; });
  rec.Enable(2, 8);

  rec.Record(forensics::EventKind::kIrqRaise, 0, 0x20);
  now = 200;
  rec.Record(forensics::EventKind::kIrqRaise, 1, 0x21);
  rec.Record(forensics::EventKind::kDeath, -1, 7, 0, "gone");

  const auto cpu0 = rec.SnapshotCpu(0);
  ASSERT_EQ(cpu0.size(), 1u);
  EXPECT_EQ(cpu0[0].at, 100);
  EXPECT_EQ(cpu0[0].arg0, 0x20u);
  EXPECT_EQ(cpu0[0].kind, forensics::EventKind::kIrqRaise);

  const auto global = rec.SnapshotCpu(-1);
  ASSERT_EQ(global.size(), 1u);
  EXPECT_EQ(global[0].detail, "gone");

  // Sequence numbers are global across rings.
  EXPECT_LT(cpu0[0].seq, rec.SnapshotCpu(1)[0].seq);
  EXPECT_EQ(rec.recorded(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(rec.SnapshotCpu(5).empty());  // out of range
}

TEST(FlightRecorder, RingWrapsKeepingNewestEvents) {
  forensics::FlightRecorder rec;
  rec.Enable(1, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.Record(forensics::EventKind::kIrqRaise, 0, i);
  }
  const auto events = rec.SnapshotCpu(0);
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, only the newest four survive.
  EXPECT_EQ(events.front().arg0, 6u);
  EXPECT_EQ(events.back().arg0, 9u);
  EXPECT_EQ(rec.dropped(), 6u);
}

TEST(FlightRecorder, DetectionSnapshotFirstCaptureSticks) {
  forensics::FlightRecorder rec;
  rec.Enable(1);
  EXPECT_FALSE(rec.has_detection_snapshot());
  rec.SetDetectionSnapshot("{\"a\":1}");
  rec.SetDetectionSnapshot("{\"b\":2}");
  EXPECT_EQ(rec.detection_snapshot(), "{\"a\":1}");
}

TEST(FlightRecorder, ToJsonParsesAndCarriesStructure) {
  forensics::FlightRecorder rec;
  rec.Enable(2, 4);
  rec.Record(forensics::EventKind::kSyscallForward, 0, 3, 0, "mmap");
  rec.Record(forensics::EventKind::kDetection, -1, 1, 2, "watchdog");
  rec.SetDetectionSnapshot("{\"regs\":{}}");

  sim::JsonValue doc;
  ASSERT_TRUE(sim::ParseJson(rec.ToJson(), &doc));
  ASSERT_TRUE(doc.IsObject());
  EXPECT_EQ(doc.Find("dropped")->number, 0.0);
  EXPECT_TRUE(doc.Find("detection_snapshot")->IsObject());
  // kDetection is a pinned kind: it appears in the pinned channel too.
  ASSERT_EQ(doc.Find("pinned")->items.size(), 1u);
  EXPECT_EQ(doc.Find("pinned")->items[0].Find("kind")->str, "detection");
  ASSERT_TRUE(doc.Find("per_cpu")->IsArray());
  EXPECT_EQ(doc.Find("per_cpu")->items.size(), 2u);
  const sim::JsonValue& ev = doc.Find("per_cpu")->items[0].items.at(0);
  EXPECT_EQ(ev.Find("kind")->str, "syscall_forward");
  EXPECT_EQ(ev.Find("detail")->str, "mmap");
  ASSERT_EQ(doc.Find("global")->items.size(), 1u);
  EXPECT_EQ(doc.Find("global")->items[0].Find("kind")->str, "detection");
}

TEST(FlightRecorder, MacroRespectsCurrentRecorderAndEnableState) {
  // No recorder installed anywhere: must be a no-op, not a crash.
  forensics::SetCurrentRecorder(nullptr);
  NLH_RECORD(forensics::EventKind::kIpi, 0, 1);

  forensics::FlightRecorder rec;
  forensics::RecorderScope scope(&rec);
  // Installed but disabled: args must not be recorded.
  NLH_RECORD(forensics::EventKind::kIpi, 0, 1);
  EXPECT_EQ(rec.recorded(), 0u);

  rec.Enable(1);
  NLH_RECORD(forensics::EventKind::kIpi, 0, 1, 2, "zap");
  NLH_RECORD(forensics::EventKind::kIpi, 0);  // zero-arg variant compiles
  ASSERT_EQ(rec.recorded(), 2u);
  EXPECT_EQ(rec.SnapshotCpu(0)[0].detail, "zap");
}

TEST(FlightRecorder, ScopeToleratesNonLifoDestruction) {
  forensics::FlightRecorder a;
  forensics::FlightRecorder b;
  auto sa = std::make_unique<forensics::RecorderScope>(&a);
  auto sb = std::make_unique<forensics::RecorderScope>(&b);
  EXPECT_EQ(forensics::CurrentRecorder(), &b);
  sa.reset();  // destroyed out of order: b stays current
  EXPECT_EQ(forensics::CurrentRecorder(), &b);
  sb.reset();
  EXPECT_EQ(forensics::CurrentRecorder(), &a);
  forensics::SetCurrentRecorder(nullptr);
}

// --- NLH_RECORD weave (hypervisor hot paths) -------------------------------

TEST(FlightRecorderWeave, HypercallAndScheduleEventsAppear) {
  hw::PlatformConfig pcfg;
  pcfg.num_cpus = 2;
  pcfg.memory_gib = 1;
  hw::Platform platform(pcfg, 1);
  hv::Hypervisor hv(platform, hv::HvConfig{});
  hv.Boot();
  const hv::DomainId dom = hv.CreateDomainDirect("d", false, 1, 32);
  hv.StartDomain(dom);
  const hv::VcpuId vcpu = hv.FindDomain(dom)->vcpus.front();

  hv.flight_recorder().Enable(platform.num_cpus());
  hv::HypercallArgs args;
  args.arg0 = 5;
  args.arg1 = 1;
  hv.Hypercall(vcpu, hv::HypercallCode::kMmuUpdate, args);

  std::set<forensics::EventKind> kinds;
  for (int cpu = -1; cpu < platform.num_cpus(); ++cpu) {
    for (const forensics::FlightEvent& ev :
         hv.flight_recorder().SnapshotCpu(cpu)) {
      kinds.insert(ev.kind);
    }
  }
  EXPECT_TRUE(kinds.count(forensics::EventKind::kHypercall));
  EXPECT_TRUE(kinds.count(forensics::EventKind::kLockAcquire));
  EXPECT_TRUE(kinds.count(forensics::EventKind::kLockRelease));

  // One event per hypercall: its code, vCPU and return value, and the locks
  // it took inside it.
  std::vector<forensics::FlightEvent> calls;
  for (const forensics::FlightEvent& ev : hv.flight_recorder().Retained()) {
    if (ev.kind == forensics::EventKind::kHypercall) calls.push_back(ev);
  }
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(forensics::EventName(calls[0]), "hypercall:mmu_update");
  EXPECT_EQ(calls[0].arg0,
            static_cast<std::uint64_t>(hv::HypercallCode::kMmuUpdate));
  EXPECT_EQ(calls[0].arg1, static_cast<std::uint64_t>(vcpu));
  EXPECT_FALSE(calls[0].abandoned);
  EXPECT_GT(calls[0].dur, 0);
  int locks_inside = 0;
  for (const forensics::FlightEvent& ev : hv.flight_recorder().Retained()) {
    locks_inside += ev.kind == forensics::EventKind::kLockAcquire &&
                    ev.parent == calls[0].seq;
  }
  EXPECT_GT(locks_inside, 0);
}

// A failstop that fires inside a hypercall unwinds it; the hypercall still
// shows in the trace, as one span marked abandoned.
TEST(FlightRecorderWeave, FaultInsideHypercallLeavesAbandonedSpan) {
  hw::PlatformConfig pcfg;
  pcfg.num_cpus = 2;
  pcfg.memory_gib = 1;
  hw::Platform platform(pcfg, 1);
  hv::Hypervisor hv(platform, hv::HvConfig{});
  hv.Boot();
  const hv::DomainId dom = hv.CreateDomainDirect("d", false, 1, 32);
  hv.StartDomain(dom);
  const hv::VcpuId vcpu = hv.FindDomain(dom)->vcpus.front();
  hv.flight_recorder().Enable(platform.num_cpus());

  // A failstop armed on the next hypercall, firing at its first step.
  inject::FaultInjector inj(hv, {}, 7);
  inject::InjectionPlan plan;
  plan.type = inject::FaultType::kFailstop;
  plan.first_trigger = sim::Milliseconds(1);
  plan.second_trigger_instructions = 0;
  plan.trigger.kind = inject::TriggerKind::kAnyHypercall;
  inj.Arm(plan);
  platform.queue().RunUntil(plan.first_trigger);
  hv::HypercallArgs args;
  args.arg0 = 5;
  args.arg1 = 1;
  EXPECT_THROW(hv.Hypercall(vcpu, hv::HypercallCode::kMmuUpdate, args),
               hv::HvPanic);
  ASSERT_TRUE(inj.record().fired);

  sim::JsonValue trace;
  ASSERT_TRUE(sim::ParseJson(hv.flight_recorder().ToChromeJson(), &trace));
  int abandoned = 0;
  for (const sim::JsonValue& ev : trace.Find("traceEvents")->items) {
    if (ev.Find("name")->str != "hypercall:mmu_update") continue;
    EXPECT_TRUE(ev.Find("args")->Find("abandoned")->boolean);
    abandoned += 1;
  }
  EXPECT_EQ(abandoned, 1);
  // The next hypercall completes normally and is not marked.
  hv.Hypercall(vcpu, hv::HypercallCode::kXenVersion, {});
  const forensics::FlightEvent last =
      hv.flight_recorder().SnapshotCpu(1).back();
  ASSERT_EQ(last.kind, forensics::EventKind::kHypercall);
  EXPECT_FALSE(last.abandoned);
  EXPECT_EQ(last.parent, 0u);  // the abandoned span left nothing open
}

TEST(FlightRecorderWeave, DetectedRunCapturesInjectionAndDetection) {
  core::RunConfig cfg = core::RunConfig::OneAppVm(guest::BenchmarkKind::kUnixBench);
  cfg.fault = inject::FaultType::kFailstop;
  // Find a detected run (failstop faults mostly manifest as panics).
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    cfg.seed = seed;
    core::TargetSystem sys(cfg);
    sys.EnableFlightRecorder();
    const core::RunResult r = sys.Run();
    if (!r.detected) continue;

    EXPECT_TRUE(r.injection_fired);
    EXPECT_GE(r.detection_latency, 0);
    EXPECT_NE(r.detection_class, forensics::DetectionClass::kNotApplicable);
    EXPECT_NE(r.detection_class, forensics::DetectionClass::kSilent);

    const forensics::FlightRecorder& rec = sys.hv().flight_recorder();
    EXPECT_TRUE(rec.has_detection_snapshot());
    sim::JsonValue snap;
    ASSERT_TRUE(sim::ParseJson(rec.detection_snapshot(), &snap));
    EXPECT_TRUE(snap.Find("per_cpu")->IsArray());

    // The forensic ground truth lives in the pinned channel: the run keeps
    // executing for seconds after recovery, so hot-path chatter wraps the
    // per-CPU rings long before the run ends.
    std::set<forensics::EventKind> kinds;
    for (const forensics::FlightEvent& ev : rec.pinned()) {
      kinds.insert(ev.kind);
    }
    EXPECT_TRUE(kinds.count(forensics::EventKind::kInjectionFired));
    EXPECT_TRUE(kinds.count(forensics::EventKind::kDetection));
    EXPECT_TRUE(kinds.count(forensics::EventKind::kRecoveryPhase));
    EXPECT_EQ(rec.pinned_dropped(), 0u);
    return;
  }
  FAIL() << "no detected run among seeds 1..32";
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t from = 0;
  for (std::size_t nl; (nl = text.find('\n', from)) != std::string::npos;
       from = nl + 1) {
    out.push_back(text.substr(from, nl - from));
  }
  EXPECT_EQ(from, text.size()) << "narrative must end with a newline";
  return out;
}

bool Has(const std::string& line, const std::string& what) {
  return line.find(what) != std::string::npos;
}

// quickstart's NiLiHype run: the narrative is the pinned channel, one line
// per event, and tells the paper's sequence — injection, panic, detection,
// then every recovery step with its modeled latency.
TEST(FlightRecorderNarrative, QuickstartRunTellsInjectionDetectionRecovery) {
  core::RunConfig cfg;
  cfg.mechanism = core::Mechanism::kNiLiHype;
  cfg.fault = inject::FaultType::kFailstop;
  cfg.seed = 7;
  core::TargetSystem sys(cfg);
  sys.EnableFlightRecorder();
  const core::RunResult r = sys.Run();
  ASSERT_TRUE(r.detected);
  ASSERT_TRUE(r.success);

  const forensics::FlightRecorder& rec = sys.hv().flight_recorder();
  const std::vector<std::string> lines = Lines(rec.PinnedText());
  ASSERT_EQ(lines.size(), rec.pinned().size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_TRUE(Has(lines[i], forensics::EventKindName(rec.pinned()[i].kind)))
        << lines[i];
  }

  ASSERT_GE(lines.size(), 3 + r.recovery_phases.size());
  EXPECT_TRUE(Has(lines[0], "injection_fired")) << lines[0];
  EXPECT_TRUE(Has(lines[1], "panic_raised")) << lines[1];
  EXPECT_TRUE(Has(lines[2], "detection")) << lines[2];
  std::vector<std::string> phases;
  for (const std::string& line : lines) {
    if (!Has(line, "recovery_phase")) continue;
    phases.push_back(line);
    if (Has(line, "frame_table_scan")) {
      EXPECT_TRUE(Has(line, "(21.001 ms)")) << line;
    }
  }
  ASSERT_EQ(phases.size(), r.recovery_phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_TRUE(Has(phases[i], " " + r.recovery_phases[i].phase + " ("))
        << phases[i];
  }
  // The recovery steps directly follow the detection.
  EXPECT_TRUE(Has(lines[3], "recovery_phase")) << lines[3];
}

TEST(FlightRecorderNarrative, RecorderOffGivesEmptyText) {
  core::RunConfig cfg;
  cfg.mechanism = core::Mechanism::kNiLiHype;
  cfg.fault = inject::FaultType::kFailstop;
  cfg.seed = 7;
  core::TargetSystem sys(cfg);
  ASSERT_TRUE(sys.Run().detected);
  EXPECT_EQ(sys.hv().flight_recorder().PinnedText(), "");
}

// --- JSON parser ------------------------------------------------------------

TEST(JsonParser, ParsesScalarsArraysObjects) {
  sim::JsonValue v;
  ASSERT_TRUE(sim::ParseJson("  {\"a\":[1,-2.5,true,false,null,\"x\\n\"]} ", &v));
  const sim::JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 6u);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_EQ(a->items[1].number, -2.5);
  EXPECT_TRUE(a->items[2].boolean);
  EXPECT_FALSE(a->items[3].boolean);
  EXPECT_TRUE(a->items[4].IsNull());
  EXPECT_EQ(a->items[5].str, "x\n");
  EXPECT_EQ(v.Find("nope"), nullptr);
}

TEST(JsonParser, UnicodeEscapesAndExponents) {
  sim::JsonValue v;
  ASSERT_TRUE(sim::ParseJson("{\"s\":\"\\u0041\\u00e9\",\"n\":1.5e3}", &v));
  EXPECT_EQ(v.Find("s")->str, "A\xc3\xa9");
  EXPECT_EQ(v.Find("n")->number, 1500.0);
}

TEST(JsonParser, RejectsMalformedDocuments) {
  sim::JsonValue v;
  EXPECT_FALSE(sim::ParseJson("", &v));
  EXPECT_FALSE(sim::ParseJson("{", &v));
  EXPECT_FALSE(sim::ParseJson("[1,]", &v));
  EXPECT_FALSE(sim::ParseJson("{\"a\":1} trailing", &v));
  EXPECT_FALSE(sim::ParseJson("\"unterminated", &v));
  EXPECT_FALSE(sim::ParseJson("truth", &v));
  EXPECT_FALSE(sim::ParseJson("1.2.3", &v));
  EXPECT_FALSE(sim::ParseJson("{'a':1}", &v));
}

TEST(JsonParser, RoundTripsEmittedArtifacts) {
  // Chrome trace JSON.
  forensics::FlightRecorder rec;
  rec.Enable(1, 16);
  const std::uint64_t id = rec.OpenSpan();
  rec.Record({.at = 110, .dur = 40, .kind = forensics::EventKind::kAuditPass,
              .cpu = 0, .detail = "inner \"quoted\""});
  rec.CloseSpan(id, {.at = 100, .dur = 100,
                     .kind = forensics::EventKind::kAuditSweep, .cpu = 0,
                     .detail = {}});
  sim::JsonValue v;
  ASSERT_TRUE(sim::ParseJson(rec.ToChromeJson(), &v));
  EXPECT_EQ(v.Find("traceEvents")->items.size(), 2u);

  // --metrics-out JSON of one recovered run.
  core::TargetSystem sys(
      core::RunConfig::OneAppVm(guest::BenchmarkKind::kBlkBench));
  const core::RunResult r = sys.Run();
  ASSERT_EQ(r.recoveries, 1);
  ASSERT_TRUE(sim::ParseJson(forensics::MetricsJson(sys, r), &v));
  EXPECT_EQ(v.Find("counters")->Find("hv.hypercalls")->number,
            static_cast<double>(sys.hv().stats().hypercalls));
  EXPECT_EQ(
      v.Find("histograms")->Find("recovery.total_ms")->Find("count")->number,
      1.0);
}

// --- Histogram quantiles ----------------------------------------------------

TEST(HistogramQuantile, InterpolatesBetweenClosestRanks) {
  sim::Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty
  for (double v : {4.0, 1.0, 3.0, 2.0}) h.Observe(v);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 1.75);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0 / 3.0), 2.0);  // exact rank, no fraction
}

// --- Correlator -------------------------------------------------------------

TEST(Correlator, ClassifiesAgainstGroundTruth) {
  using forensics::ClassifyDetection;
  using forensics::DetectionClass;
  using inject::Manifestation;
  const auto panic = hv::DetectionKind::kPanic;
  const auto hang = hv::DetectionKind::kHang;

  // Nothing fired.
  EXPECT_EQ(ClassifyDetection(false, Manifestation::kNone, false, panic, -1),
            DetectionClass::kNotApplicable);
  EXPECT_EQ(ClassifyDetection(false, Manifestation::kNone, true, panic, 0),
            DetectionClass::kMisdetected);

  // Fired, undetected.
  EXPECT_EQ(ClassifyDetection(true, Manifestation::kNone, false, panic, -1),
            DetectionClass::kNotApplicable);
  EXPECT_EQ(ClassifyDetection(true, Manifestation::kSdc, false, panic, -1),
            DetectionClass::kSilent);

  // Fired + detected: kind agreement and latency thresholds.
  EXPECT_EQ(ClassifyDetection(true, Manifestation::kImmediatePanic, true,
                              panic, sim::Milliseconds(1)),
            DetectionClass::kPrompt);
  EXPECT_EQ(ClassifyDetection(true, Manifestation::kDelayedPanic, true, panic,
                              sim::Milliseconds(11)),
            DetectionClass::kDetectedLate);
  EXPECT_EQ(ClassifyDetection(true, Manifestation::kHang, true, hang,
                              sim::Milliseconds(400)),
            DetectionClass::kPrompt);
  EXPECT_EQ(ClassifyDetection(true, Manifestation::kHang, true, hang,
                              sim::Milliseconds(600)),
            DetectionClass::kDetectedLate);
  // Wrong detector class, or a manifestation no detector should see.
  EXPECT_EQ(ClassifyDetection(true, Manifestation::kDelayedPanic, true, hang,
                              sim::Milliseconds(1)),
            DetectionClass::kMisdetected);
  EXPECT_EQ(ClassifyDetection(true, Manifestation::kSdc, true, panic, 0),
            DetectionClass::kMisdetected);
}

// --- Profiler ---------------------------------------------------------------

forensics::FlightEvent ProfiledSpan(std::uint64_t seq, std::uint64_t parent,
                                    sim::Time start, sim::Duration dur,
                                    const std::string& detail) {
  return {.seq = seq, .parent = parent, .at = start, .dur = dur,
          .kind = forensics::EventKind::kAuditPass, .detail = detail};
}

TEST(Profiler, CollapsesSpansWithSelfTimeWeights) {
  const std::vector<forensics::FlightEvent> spans = {
      ProfiledSpan(1, 0, 0, 100, "root"),
      ProfiledSpan(2, 1, 10, 20, "child a"),  // space sanitized to '_'
      ProfiledSpan(3, 1, 40, 10, "child;b"),  // ';' sanitized (separator)
  };
  // Self times: root = 100 - (20 + 10) = 70.
  EXPECT_EQ(forensics::CollapsedStackProfile(spans),
            "audit_pass:root 70\n"
            "audit_pass:root;audit_pass:child_a 20\n"
            "audit_pass:root;audit_pass:child_b 10\n");
  EXPECT_EQ(forensics::CollapsedStackProfile({}), "");
}

TEST(Profiler, OrphanParentsAndZeroSelfTimeSpans) {
  const std::vector<forensics::FlightEvent> spans = {
      // Parent not retained: treated as a root.
      ProfiledSpan(5, 99, 0, 10, "lonely"),
      // Covers all of its parent: the parent's self time becomes 0 and is
      // dropped.
      ProfiledSpan(6, 5, 0, 10, "cover"),
  };
  EXPECT_EQ(forensics::CollapsedStackProfile(spans),
            "audit_pass:lonely;audit_pass:cover 10\n");
}

// --- Dossiers + replay determinism -----------------------------------------

TEST(Dossier, WorthinessFollowsFailureClasses) {
  core::RunResult r;
  EXPECT_FALSE(forensics::DossierWorthy(r));  // non-manifested
  r.outcome = core::OutcomeClass::kSdc;
  EXPECT_TRUE(forensics::DossierWorthy(r));
  r = {};
  r.outcome = core::OutcomeClass::kDetected;
  r.detected = true;
  r.success = true;
  EXPECT_FALSE(forensics::DossierWorthy(r));  // clean recovery
  r.success = false;
  EXPECT_TRUE(forensics::DossierWorthy(r));  // failed recovery
  r.success = true;
  r.latent_corruption = true;
  EXPECT_TRUE(forensics::DossierWorthy(r));  // latent corruption
}

TEST(Dossier, ReplayIsByteIdenticalAndParses) {
  core::RunConfig cfg = core::RunConfig::OneAppVm(guest::BenchmarkKind::kUnixBench);
  cfg.fault = inject::FaultType::kFailstop;

  const forensics::ReplayArtifacts a = forensics::ReplayRun(cfg, 7);
  const forensics::ReplayArtifacts b = forensics::ReplayRun(cfg, 7);
  EXPECT_EQ(a.dossier_json, b.dossier_json);  // golden determinism
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.profile, b.profile);

  sim::JsonValue doc;
  ASSERT_TRUE(sim::ParseJson(a.dossier_json, &doc));
  EXPECT_EQ(doc.Find("schema")->str, "nlh-dossier-v1");
  EXPECT_EQ(doc.Find("run_id")->number, 7.0);
  EXPECT_EQ(doc.Find("config")->Find("seed")->number, 7.0);
  ASSERT_NE(doc.Find("result"), nullptr);
  EXPECT_EQ(doc.Find("result")->Find("outcome")->str,
            core::OutcomeClassName(a.result.outcome));
  ASSERT_NE(doc.Find("injection"), nullptr);
  ASSERT_NE(doc.Find("audit_findings"), nullptr);
  ASSERT_TRUE(doc.Find("recorder")->IsObject());
  EXPECT_TRUE(doc.Find("recorder")->Find("per_cpu")->IsArray());
  EXPECT_TRUE(doc.Find("trace")->Find("traceEvents")->IsArray());
  if (a.result.detected) {
    EXPECT_FALSE(doc.Find("detection")->IsNull());
    EXPECT_TRUE(doc.Find("recorder")->Find("detection_snapshot")->IsObject());
  }
}

// --- Campaign detection statistics -----------------------------------------

TEST(CampaignForensics, DetectionSplitAndLatencyAggregatesInJson) {
  core::RunConfig cfg = core::RunConfig::OneAppVm(guest::BenchmarkKind::kUnixBench);
  cfg.fault = inject::FaultType::kRegister;  // mixed manifestations
  core::CampaignOptions opts;
  opts.runs = 24;
  opts.seed0 = 300;
  const core::CampaignResult res = core::RunCampaign(cfg, opts);

  // Every detected run lands in exactly one of prompt/late/misdetected.
  EXPECT_EQ(res.detected_prompt + res.detected_late + res.misdetected,
            res.detected);
  // SDC runs with a fired fault are silent (never detected).
  EXPECT_GE(res.silent, res.sdc);

  sim::JsonValue doc;
  ASSERT_TRUE(sim::ParseJson(res.ToJson(), &doc));
  const sim::JsonValue* det = doc.Find("detection");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->Find("prompt")->number, res.detected_prompt);
  EXPECT_EQ(det->Find("late")->number, res.detected_late);
  EXPECT_EQ(det->Find("misdetected")->number, res.misdetected);
  EXPECT_EQ(det->Find("silent")->number, res.silent);
  const sim::JsonValue* by_class = det->Find("latency_by_class");
  ASSERT_NE(by_class, nullptr);
  int total_samples = 0;
  for (const auto& [fault_class, agg] : by_class->fields) {
    EXPECT_FALSE(fault_class.empty());
    EXPECT_GE(agg.Find("max_ms")->number, agg.Find("p50_ms")->number);
    total_samples += static_cast<int>(agg.Find("samples")->number);
  }
  if (res.detected > 0) {
    EXPECT_GT(total_samples, 0);
  }
}

}  // namespace
