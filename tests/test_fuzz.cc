// Scenario-fuzzing engine tests: serialization round-trips, the
// differential oracle, end-to-end determinism (same master seed ->
// identical scenario stream, coverage map, and shrunk reproducers at any
// thread count), and the seeded self-check — a planted latent corruption
// the fuzzer must expose and shrink to a minimal reproducer.
#include <gtest/gtest.h>

#include "fuzz/engine.h"
#include "fuzz/generator.h"
#include "fuzz/shrinker.h"
#include "sim/rng.h"

namespace {

using namespace nlh;

// --- Scenario serialization -------------------------------------------------

TEST(Scenario, JsonRoundTripsExactlyAcrossGeneratedScenarios) {
  sim::Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const fuzz::Scenario s = fuzz::GenerateScenario(rng);
    const std::string json = s.ToJson();
    sim::JsonValue doc;
    ASSERT_TRUE(sim::ParseJson(json, &doc)) << json;
    fuzz::Scenario back;
    ASSERT_TRUE(fuzz::Scenario::FromJson(doc, &back)) << json;
    EXPECT_EQ(back.ToJson(), json);
    EXPECT_EQ(back.Fingerprint(), s.Fingerprint());
    EXPECT_EQ(back.PlanElementCount(), s.PlanElementCount());
  }
}

TEST(Scenario, FromJsonRejectsWrongSchemaAndMalformedFields) {
  fuzz::Scenario s;
  sim::JsonValue doc;
  fuzz::Scenario out;

  std::string json = s.ToJson();
  ASSERT_TRUE(sim::ParseJson(json, &doc));
  doc.fields[0].second.str = "nlh-scenario-v0";  // schema mismatch
  EXPECT_FALSE(fuzz::Scenario::FromJson(doc, &out));

  ASSERT_TRUE(sim::ParseJson(json, &doc));
  for (auto& [k, v] : doc.fields) {
    if (k == "fault") v.str = "Bogus";
  }
  EXPECT_FALSE(fuzz::Scenario::FromJson(doc, &out));

  ASSERT_TRUE(sim::ParseJson("{\"schema\":\"nlh-repro-v1\"}", &doc));
  EXPECT_FALSE(fuzz::Scenario::FromJson(doc, &out));
}

TEST(Scenario, SeedSurvivesHexRoundTripAboveDoublePrecision) {
  fuzz::Scenario s;
  s.seed = 0xfedcba9876543210ULL;  // not representable as a double
  sim::JsonValue doc;
  ASSERT_TRUE(sim::ParseJson(s.ToJson(), &doc));
  fuzz::Scenario back;
  ASSERT_TRUE(fuzz::Scenario::FromJson(doc, &back));
  EXPECT_EQ(back.seed, 0xfedcba9876543210ULL);
}

TEST(Scenario, PlanElementCountCountsEveryPlanElement) {
  fuzz::Scenario s;  // 1AppVM + fault
  EXPECT_EQ(s.PlanElementCount(), 2);
  s.plants.push_back({inject::CorruptionTarget::kTimerHeapEntry,
                      sim::Milliseconds(200)});
  EXPECT_EQ(s.PlanElementCount(), 3);
  s.setup = core::Setup::k3AppVM;
  s.vm3_at_start = true;
  s.share_cpu = true;
  s.hvm = true;
  s.trigger.kind = inject::TriggerKind::kGrantOp;
  EXPECT_EQ(s.PlanElementCount(), 8);
  s.inject = false;
  EXPECT_EQ(s.PlanElementCount(), 7);
}

// --- Verdict canonicalization ----------------------------------------------

TEST(Oracle, VerdictJsonIsAWriteJsonFixedPoint) {
  const fuzz::Scenario s;  // default failstop scenario
  const fuzz::OracleOutcome o = fuzz::EvaluateScenario(s, 2);
  for (const fuzz::PolicyVerdict& v : o.verdicts) {
    const std::string json = v.ToJson();
    sim::JsonValue doc;
    ASSERT_TRUE(sim::ParseJson(json, &doc)) << json;
    EXPECT_EQ(sim::WriteJson(doc), json);
  }
}

TEST(Oracle, ExecutionIdenticalUntilDetectionAcrossPolicies) {
  // Same seed, same injection plan: the injection record must agree across
  // all three policies (divergence is confined to the recovery path).
  fuzz::Scenario s;
  s.seed = 42;
  const fuzz::OracleOutcome o = fuzz::EvaluateScenario(s, 3);
  const fuzz::PolicyVerdict& nili = o.verdicts[0];
  const fuzz::PolicyVerdict& rehype = o.verdicts[1];
  const fuzz::PolicyVerdict& base = o.verdicts[2];
  EXPECT_EQ(nili.outcome, rehype.outcome);
  EXPECT_EQ(nili.outcome, base.outcome);
  EXPECT_EQ(nili.detected, rehype.detected);
  EXPECT_EQ(nili.detection_latency_ns, rehype.detection_latency_ns);
  // The baseline never recovers.
  EXPECT_EQ(base.recoveries, 0);
  if (base.detected) {
    EXPECT_FALSE(base.success);
  }
}

// --- Seeded self-check ------------------------------------------------------

// A silently planted corruption in reboot-repaired state (the timer heap)
// must split the differential oracle: NiLiHype's microreset preserves the
// damage as latent corruption, ReHype's reboot clears it. This is the
// planted "latent-corruption hook" acceptance check — the oracle must flag
// it, and the shrinker must reduce it to a <=3-element reproducer.
TEST(SelfCheck, PlantedTimerCorruptionSplitsOracleAndShrinksMinimal) {
  fuzz::Scenario s;
  s.seed = 5;
  s.setup = core::Setup::k1AppVM;
  s.inject = true;
  s.fault = inject::FaultType::kFailstop;
  s.inject_at_ns = sim::Milliseconds(400);
  s.plants.push_back({inject::CorruptionTarget::kTimerHeapEntry,
                      sim::Milliseconds(200)});
  ASSERT_EQ(s.PlanElementCount(), 3);

  const fuzz::OracleOutcome o = fuzz::EvaluateScenario(s, 3);
  ASSERT_NE(o.divergence, fuzz::DivergenceKind::kNone);
  // NiLiHype keeps the planted damage across recovery; ReHype reboots it
  // away.
  const fuzz::PolicyVerdict& nili = o.verdicts[0];
  const fuzz::PolicyVerdict& rehype = o.verdicts[1];
  EXPECT_FALSE(nili.audit_clean);
  EXPECT_FALSE(nili.latent_subsystems.empty());
  EXPECT_TRUE(rehype.audit_clean) << "reboot should clear the planted damage";

  const fuzz::ShrinkResult shrunk = fuzz::ShrinkScenario(
      s, o.divergence,
      [](const fuzz::Scenario& c) { return fuzz::EvaluateScenario(c, 3); },
      40);
  EXPECT_LE(shrunk.scenario.PlanElementCount(), 3);
  EXPECT_EQ(fuzz::EvaluateScenario(shrunk.scenario, 3).divergence,
            o.divergence);
}

// --- End-to-end determinism -------------------------------------------------

fuzz::FuzzOptions SmallCampaign(int threads) {
  fuzz::FuzzOptions opt;
  opt.master_seed = 21;
  opt.iterations = 6;
  opt.batch = 3;
  opt.threads = threads;
  opt.max_shrink_evals = 10;
  opt.max_corpus = 2;
  return opt;
}

std::string Digest(const fuzz::FuzzStats& stats) {
  std::string out = std::to_string(stats.scenarios) + "/" +
                    std::to_string(stats.divergent) + "/" +
                    std::to_string(stats.unique_divergent) + "/" +
                    std::to_string(stats.coverage) + "/" +
                    fuzz::HexU64(stats.coverage_hash);
  for (const fuzz::FuzzReproducer& r : stats.reproducers) {
    out += "|" + r.scenario.ToJson() + "@" +
           std::string(fuzz::DivergenceKindName(r.kind));
  }
  return out;
}

TEST(Fuzz, CampaignIsAPureFunctionOfTheMasterSeed) {
  const std::string a = Digest(fuzz::Fuzz(SmallCampaign(2)));
  const std::string b = Digest(fuzz::Fuzz(SmallCampaign(2)));
  EXPECT_EQ(a, b);
}

TEST(Fuzz, CampaignIsThreadCountInvariant) {
  const std::string t1 = Digest(fuzz::Fuzz(SmallCampaign(1)));
  const std::string t4 = Digest(fuzz::Fuzz(SmallCampaign(4)));
  const std::string t8 = Digest(fuzz::Fuzz(SmallCampaign(8)));
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t8);
}

// Satellite of PR 4's RunArena recycling: a shrunk scenario's full
// reproducer bundle — verdicts plus the dossier-compatible replay section —
// must hash identically when its runs execute on 1, 4, or 8 campaign
// threads (worker arenas must leak no state between runs).
TEST(Fuzz, ReproducerBundleHashIsIdenticalAcrossCampaignThreadCounts) {
  fuzz::Scenario s;
  s.seed = 5;
  s.plants.push_back({inject::CorruptionTarget::kTimerHeapEntry,
                      sim::Milliseconds(200)});
  std::uint64_t hashes[3];
  int i = 0;
  for (const int threads : {1, 4, 8}) {
    const std::vector<core::RunConfig> cfgs = fuzz::OracleConfigs(s);
    const std::vector<core::RunResult> results =
        core::RunMany(cfgs, threads);
    const fuzz::OracleOutcome o = fuzz::Judge(s, results.data());
    hashes[i++] = fuzz::FnvMix(fuzz::kFnvOffset,
                               fuzz::ReproducerJson(s, o, results.data()));
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

// --- Corpus I/O -------------------------------------------------------------

TEST(Corpus, WriteLoadRoundTripAndTamperDetection) {
  fuzz::Scenario s;
  s.seed = 5;
  s.plants.push_back({inject::CorruptionTarget::kTimerHeapEntry,
                      sim::Milliseconds(200)});
  const std::vector<core::RunConfig> cfgs = fuzz::OracleConfigs(s);
  const std::vector<core::RunResult> results = core::RunMany(cfgs, 2);
  const fuzz::OracleOutcome o = fuzz::Judge(s, results.data());
  ASSERT_NE(o.divergence, fuzz::DivergenceKind::kNone);

  const std::string dir =
      ::testing::TempDir() + "/nlh_corpus_roundtrip";
  const std::string path =
      fuzz::WriteReproducer(dir, s, o, results.data());
  ASSERT_FALSE(path.empty());

  fuzz::LoadedReproducer rep;
  std::string err;
  ASSERT_TRUE(fuzz::LoadReproducer(path, &rep, &err)) << err;
  EXPECT_EQ(rep.divergence, o.divergence);
  EXPECT_EQ(rep.scenario.ToJson(), s.ToJson());
  ASSERT_EQ(rep.expected.size(), static_cast<std::size_t>(fuzz::kNumPolicies));
  ASSERT_EQ(rep.policies, fuzz::DefaultPolicies());
  EXPECT_EQ(rep.expected, o.verdicts);

  EXPECT_FALSE(fuzz::LoadReproducer(dir + "/missing.json", &rep, &err));
  EXPECT_NE(err.find("unreadable"), std::string::npos);
}

// --- Runtime policy lists ---------------------------------------------------

TEST(Oracle, RegisteredPoliciesAddSnapResAsFourthVariant) {
  const std::vector<core::Mechanism> all = fuzz::RegisteredPolicies();
  const std::vector<core::Mechanism> want = {
      core::Mechanism::kNiLiHype, core::Mechanism::kReHype,
      core::Mechanism::kSnapRes, core::Mechanism::kNone};
  EXPECT_EQ(all, want);
  EXPECT_EQ(fuzz::DefaultPolicies(),
            (std::vector<core::Mechanism>{core::Mechanism::kNiLiHype,
                                          core::Mechanism::kReHype,
                                          core::Mechanism::kNone}));
}

TEST(Oracle, FourVariantEvaluationJudgesEveryMechanism) {
  fuzz::Scenario s;
  s.seed = 7;
  const fuzz::OracleOutcome o =
      fuzz::EvaluateScenario(s, 4, fuzz::RegisteredPolicies());
  ASSERT_EQ(o.verdicts.size(), 4u);
  EXPECT_EQ(o.verdicts[0].mechanism, core::Mechanism::kNiLiHype);
  EXPECT_EQ(o.verdicts[2].mechanism, core::Mechanism::kSnapRes);
  EXPECT_EQ(o.verdicts[3].mechanism, core::Mechanism::kNone);
  // The default-triple judgment is a strict prefix-subset comparison: the
  // same scenario judged on the default list must agree on the shared
  // verdicts byte-for-byte.
  const fuzz::OracleOutcome base = fuzz::EvaluateScenario(s, 4);
  ASSERT_EQ(base.verdicts.size(), 3u);
  EXPECT_EQ(base.verdicts[0].ToJson(), o.verdicts[0].ToJson());
  EXPECT_EQ(base.verdicts[1].ToJson(), o.verdicts[1].ToJson());
  EXPECT_EQ(base.verdicts[2].ToJson(), o.verdicts[3].ToJson());
}

}  // namespace
