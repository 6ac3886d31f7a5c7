// CLI contract of campaign_tool: bad invocations must fail fast, with a
// nonzero exit code and a usage message — a misspelled flag, a flag the
// chosen mode does not read, or a missing corpus path in CI must never
// silently fall through to a default campaign. The bytes --metrics-out
// writes are pinned too. NLH_CAMPAIGN_TOOL is the built binary's path
// (from CMake).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <sys/wait.h>
#include <utility>
#include <vector>

#include "malformed.h"

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult RunTool(const std::string& args) {
  const std::string cmd =
      std::string(NLH_CAMPAIGN_TOOL) + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  CliResult r;
  if (pipe == nullptr) return r;
  char buf[1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

// The whole file, or "" if it cannot be opened.
std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string content;
  char buf[1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

TEST(CampaignToolCli, UnknownFlagExitsNonzeroWithUsage) {
  const CliResult r = RunTool("--bogus-flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag --bogus-flag"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, HelpPrintsTheUsageAndExitsZero) {
  const CliResult r = RunTool("--help");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("usage: campaign_tool"), std::string::npos);
  // The usage text is generated from the flag table, modes included.
  EXPECT_NE(r.output.find("--fleet-horizon=S"), std::string::npos);
  EXPECT_NE(r.output.find("--replay=RUN_ID"), std::string::npos);
}

TEST(CampaignToolCli, FlagValueSyntaxIsChecked) {
  // A switch given a value, a flag without its value, and an empty value:
  // "--trace-out=" used to read as no trace at all and exit 0.
  const std::pair<const char*, const char*> cases[] = {
      {"--verbose=1 --runs=1", "--verbose: takes no value"},
      {"--runs", "--runs: needs a value (--runs=N)"},
      {"--trace-out= --runs=1", "--trace-out: needs a value"},
      {"--proactive= --runs=1", "--proactive: needs a value"},
  };
  for (const auto& [args, message] : cases) {
    const CliResult r = RunTool(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
  }
}

TEST(CampaignToolCli, UnreadableReplayPathExitsNonzeroWithUsage) {
  const CliResult r = RunTool("--replay=/nonexistent/repro.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unreadable"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, MissingCorpusDirExitsNonzeroWithUsage) {
  const CliResult r = RunTool("--corpus=/nonexistent/corpus-dir");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("does not exist"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnreadableShrinkPathExitsNonzeroWithUsage) {
  const CliResult r = RunTool("--shrink=/nonexistent/repro.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnknownMechanismSlugExitsNonzeroListingValid) {
  const CliResult r = RunTool("--mechanism=reboot-everything");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown mechanism 'reboot-everything'"),
            std::string::npos);
  // The error names every valid slug so the fix is copy-pasteable.
  EXPECT_NE(r.output.find("nilihype"), std::string::npos);
  EXPECT_NE(r.output.find("rehype"), std::string::npos);
  EXPECT_NE(r.output.find("snapres"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, RemovedMechFlagIsUnknown) {
  // --mech= was a lenient duplicate of --mechanism= that ran NiLiHype for
  // any slug it did not know, snapres included.
  const CliResult r = RunTool("--mech=snapres --runs=1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag --mech=snapres"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, NonNumericRunsIsRejected) {
  // atoi("abc") used to run a 0-run campaign.
  const CliResult r = RunTool("--runs=abc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'abc'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, RunsWithTrailingGarbageIsRejectedNotTruncated) {
  const CliResult r = RunTool("--runs=2x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'2x'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, InvalidSnapshotPeriodExitsNonzeroWithUsage) {
  const CliResult r = RunTool("--snapshot-period=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, SnapshotPeriodWithUnitSuffixIsRejectedNotTruncated) {
  // "150ms" used to atoi() to 150 and run: accepted-with-unit in appearance,
  // half-ignored in fact. The strict parse must reject any trailing garbage.
  const CliResult r = RunTool("--snapshot-period=150ms");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'150ms'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnknownFaultClassExitsNonzeroListingValid) {
  const CliResult r = RunTool("--fault=gamma-ray");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown fault class 'gamma-ray'"),
            std::string::npos);
  EXPECT_NE(r.output.find("failstop register code memory"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnknownSetupExitsNonzeroListingValid) {
  // Any value other than "1appvm" used to run the 3AppVM setup.
  const CliResult r = RunTool("--setup=2appvm --runs=1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown setup '2appvm'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("valid: 1appvm 3appvm"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnknownBenchmarkExitsNonzeroListingValid) {
  // An unknown value used to run UnixBench.
  const CliResult r = RunTool("--setup=1appvm --bench=gpu --runs=1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown benchmark 'gpu'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("valid: unix blk net"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, PrivVmPlantsOffsetWithUnitSuffixIsRejected) {
  // Same strict-parse contract as --snapshot-period: a trailing unit must
  // be rejected, not truncated into a silently different offset.
  const CliResult r = RunTool("--privvm-plants=2ms");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'2ms'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, ProactiveThresholdWithUnitSuffixIsRejected) {
  // Same strict-parse contract as --snapshot-period: "2drifts" must not
  // atoi() to 2 and run a silently different policy.
  const CliResult r = RunTool("--proactive=2drifts");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'2drifts'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, ProactiveZeroThresholdIsRejected) {
  const CliResult r = RunTool("--proactive=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, IntegrityCampaignRunsEndToEnd) {
  const CliResult r = RunTool("--integrity --fault=memory --runs=3 --threads=3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("integrity:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("drift-flagged injections"), std::string::npos);
}

TEST(CampaignToolCli, ProactiveImpliesIntegrityAndPreservesOneAppVmSetup) {
  // --proactive alone must arm the monitor, and the --setup=1appvm config
  // rebuild must not drop the integrity/proactive flags on the floor.
  const CliResult r = RunTool(
      "--proactive --setup=1appvm --bench=unix --runs=2 --threads=2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("integrity:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("proactive rejuvenations"), std::string::npos)
      << r.output;
}

TEST(CampaignToolCli, IntegrityOutWritesCampaignAndReplaySummary) {
  const std::string path = ::testing::TempDir() + "integrity_cli.json";
  const CliResult r = RunTool("--integrity-out=" + path +
                              " --fault=memory --runs=2 --threads=2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("integrity report written"), std::string::npos)
      << r.output;
  const std::string content = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"integrity\":{"), std::string::npos);
  EXPECT_NE(content.find("\"replay_seed0_integrity\":{"), std::string::npos);
  EXPECT_NE(content.find("\"drift_trail\":"), std::string::npos);
}

TEST(CampaignToolCli, PrivVmPlantsCampaignRunsEndToEnd) {
  const CliResult r = RunTool(
      "--privvm-plants --setup=1appvm --bench=blk --runs=2 --threads=2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("successful recovery rate"), std::string::npos)
      << r.output;
}

TEST(CampaignToolCli, PrivVmRecoveryCampaignRunsEndToEnd) {
  const CliResult r = RunTool(
      "--privvm-recovery --fault=memory --runs=3 --threads=3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("successful recovery rate"), std::string::npos)
      << r.output;
}

TEST(CampaignToolCli, SnapresCampaignRunsEndToEnd) {
  const CliResult r = RunTool(
      "--mechanism=snapres --snapshot-period=150 --runs=3 --threads=3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("campaign: SnapRes"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("successful recovery rate"), std::string::npos);
}

TEST(CampaignToolCli, SnapshotPeriodIsReadOnlyBySnapRes) {
  // RunConfig::snapshot_period is read only by SnapRes: with NiLiHype the
  // flag used to change nothing and exit 0.
  const CliResult r =
      RunTool("--mechanism=nilihype --snapshot-period=7 --runs=2");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find(
                "--snapshot-period has no effect without --mechanism=snapres"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  const CliResult snapres = RunTool(
      "--mechanism=snapres --snapshot-period=7 --runs=2 --threads=2");
  EXPECT_EQ(snapres.exit_code, 0) << snapres.output;
  EXPECT_NE(snapres.output.find("campaign: SnapRes"), std::string::npos)
      << snapres.output;
}

TEST(CampaignToolCli, RemovedWarmForkFlagIsUnknown) {
  // Campaigns fork warm on their own; the switch that chose it is gone.
  const CliResult r = RunTool("--warm-fork --runs=1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag --warm-fork"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, VerboseRunLinesDoNotDependOnThreadCount) {
  // Runs finish in an order that depends on the worker count; --verbose
  // prints their lines in run order once the campaign is done.
  const std::string common = "--mechanism=nilihype --runs=6 --verbose";
  const CliResult one = RunTool(common + " --threads=1");
  const CliResult three = RunTool(common + " --threads=3");
  EXPECT_EQ(one.exit_code, 0) << one.output;
  EXPECT_EQ(three.exit_code, 0) << three.output;
  std::size_t at = 0;
  for (int i = 0; i < 6; ++i) {
    at = one.output.find("  run    " + std::to_string(i) + ": ", at);
    ASSERT_NE(at, std::string::npos) << "run " << i << "\n" << one.output;
  }
  EXPECT_LT(at, one.output.find("\noutcomes:"));
  EXPECT_EQ(three.output, one.output);
}

TEST(CampaignToolCli, FleetHostCountWithSuffixIsRejectedNotTruncated) {
  // Same strict-parse contract as --snapshot-period: "100k" must not
  // atoi() to 100 and silently run a hundredth of the fleet.
  const CliResult r = RunTool("--fleet --hosts=100k");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'100k'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, FleetHostCountOutOfIntRangeIsRejected) {
  // 2^32 + 1 used to pass the digits check and atoi() to 1 host.
  const CliResult r = RunTool("--fleet --hosts=4294967297");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'4294967297'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, FleetZeroTenantsIsRejected) {
  const CliResult r = RunTool("--fleet --tenants=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'0'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, UnknownPlacementPolicyExitsNonzeroListingValid) {
  const CliResult r = RunTool("--fleet --placement=random");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown placement policy 'random'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("least-loaded"), std::string::npos);
  EXPECT_NE(r.output.find("first-fit"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CampaignToolCli, FleetRejectsFlagsItWouldIgnore) {
  // Fleet mode configures its hosts itself; these used to change nothing.
  for (const std::string flag :
       {"--integrity", "--privvm-recovery", "--setup=1appvm",
        "--snapshot-period=150", "--runs=3", "--verbose"}) {
    const CliResult r = RunTool("--fleet --hosts=2 --tenants=1 " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(r.output.find(name + " has no effect with --fleet"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
  }
}

TEST(CampaignToolCli, CampaignRejectsFleetOnlyFlags) {
  // Outside --fleet these used to be parsed and then ignored: same bytes
  // out, no --fleet-out file, exit 0.
  const std::string out = ::testing::TempDir() + "fleet_only_flag.json";
  for (const std::string& flag :
       {std::string("--hosts=5"), std::string("--tenants=2"),
        std::string("--fleet-horizon=9"), std::string("--placement=first-fit"),
        "--fleet-out=" + out}) {
    const CliResult r = RunTool("--runs=2 --threads=1 " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(r.output.find(name + " has no effect without --fleet"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
  }
  EXPECT_TRUE(ReadFile(out).empty());
}

TEST(CampaignToolCli, CorpusCheckRejectsCampaignFlags) {
  // The corpus check used to print "corpus check passed" and never write
  // the --integrity-out file.
  const std::string out = ::testing::TempDir() + "corpus_integrity.json";
  const CliResult r = RunTool(std::string("--corpus=") + NLH_CORPUS_DIR +
                              " --mechanism=rehype --runs=7 --audit"
                              " --integrity-out=" + out);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--mechanism has no effect with --corpus"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("corpus check"), std::string::npos) << r.output;
  EXPECT_TRUE(ReadFile(out).empty());
}

TEST(CampaignToolCli, RunReplayRejectsCampaignOutputs) {
  // A replay writes its dossier and profile only; these used to be
  // accepted and never written.
  const std::string trace = ::testing::TempDir() + "replay_trace.json";
  const std::string metrics = ::testing::TempDir() + "replay_metrics.json";
  const CliResult r = RunTool("--replay=1000 --mechanism=none --trace-out=" +
                              trace + " --metrics-out=" + metrics);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--trace-out has no effect with --replay=RUN_ID"),
            std::string::npos)
      << r.output;
  EXPECT_TRUE(ReadFile(trace).empty());
  EXPECT_TRUE(ReadFile(metrics).empty());
}

TEST(CampaignToolCli, BenchWithoutOneAppVmSetupIsRejected) {
  // --bench picks the 1AppVM workload; without --setup=1appvm it used to
  // run the 3AppVM campaign.
  const CliResult r = RunTool("--bench=blk --runs=1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--bench has no effect without --setup=1appvm"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("3AppVM"), std::string::npos) << r.output;
}

TEST(CampaignToolCli, RunReplayRejectsCampaignAndFuzzFlags) {
  // Each used to be ignored by a replay.
  for (const std::string flag : {"--runs=50", "--fuzz-seed=9",
                                 "--shrink-evals=3"}) {
    const CliResult r = RunTool("--replay=1000 " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(r.output.find(name + " has no effect with --replay=RUN_ID"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
  }
}

TEST(CampaignToolCli, ReplayRejectsScenarioNumbersThatDoNotFitTheirField) {
  // A committed reproducer hand-edited to a value its field cannot hold
  // must not replay (it used to, with exit 0).
  const std::string repro = std::string(NLH_CORPUS_DIR) +
                            "/repro_06605030e73f5fbf.json";
  const std::string text = ReadFile(repro);
  ASSERT_FALSE(text.empty()) << repro;
  const std::string path = ::testing::TempDir() + "replay_bad_number.json";
  const std::pair<const char*, const char*> cases[] = {
      {"netbench_ms", "99999999999999999999"},
      {"unixbench_iterations", "-1"},
      {"unixbench_iterations", "2.5"},
      {"unixbench_iterations", "2147483648"},
  };
  for (const auto& [field, value] : cases) {
    const std::string key = "\"" + std::string(field) + "\":";
    const std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos) << field;
    const std::size_t end = text.find_first_of(",}", at + key.size());
    std::string edited = text;
    edited.replace(at + key.size(), end - at - key.size(), value);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(edited.data(), 1, edited.size(), f);
    std::fclose(f);
    const CliResult r = RunTool("--replay=" + path);
    EXPECT_EQ(r.exit_code, 2) << field << "=" << value << "\n" << r.output;
    EXPECT_NE(r.output.find("malformed scenario"), std::string::npos)
        << r.output;
  }
  std::remove(path.c_str());
}

TEST(CampaignToolCli, ReplayRejectsTruncatedAndRetypedBundles) {
  // test_corpus feeds the loader 65 truncations and every retyped field of
  // each bundle; a sample of them goes through --replay=FILE here, which
  // must exit 2.
  const std::string path = ::testing::TempDir() + "replay_mangled.json";
  for (const auto& entry :
       std::filesystem::directory_iterator(NLH_CORPUS_DIR)) {
    const std::string text = ReadFile(entry.path().string());
    std::vector<nlh::malformed::Mangled> mangled =
        nlh::malformed::Truncations(text, 3);
    const std::vector<nlh::malformed::Mangled> fields =
        nlh::malformed::MangledFields(
            text, nlh::malformed::ReadByReproducerLoader, false);
    for (std::size_t i = 0; i < fields.size(); i += 9) {
      mangled.push_back(fields[i]);
    }
    for (const nlh::malformed::Mangled& m : mangled) {
      ASSERT_TRUE(nlh::malformed::WriteText(path, m.text));
      const CliResult r = RunTool("--replay=" + path);
      EXPECT_EQ(r.exit_code, 2) << entry.path() << ": " << m.what << "\n"
                                << r.output;
      EXPECT_NE(r.output.find("usage:"), std::string::npos);
    }
  }
  std::remove(path.c_str());
}

TEST(CampaignToolCli, MangledExpectedVerdictsExitTwoNamingTheFile) {
  // The loader used to check only each verdict's mechanism: --replay=FILE
  // replayed these with exit 0, and --corpus=DIR reported a MISMATCH.
  const std::string text =
      ReadFile(std::string(NLH_CORPUS_DIR) + "/repro_06605030e73f5fbf.json");
  // The bundle with the value of `key` in expected[verdict] replaced.
  const auto edit = [&text](int verdict, const std::string& key,
                            const std::string& value) {
    std::size_t at = text.find("\"expected\":[");
    for (int i = 0; i <= verdict; ++i) at = text.find("\"" + key + "\":", at);
    const std::size_t from = at + key.size() + 3;
    return text.substr(0, from) + value +
           text.substr(text.find_first_of(",}", from));
  };
  for (const std::string& mangled :
       {edit(0, "outcome", "7"), edit(1, "detected", "\"yes\",\"bogus\":1")}) {
    const std::string dir = ::testing::TempDir() + "mangled_verdict_corpus";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/repro_mangled.json";
    ASSERT_TRUE(nlh::malformed::WriteText(path, mangled));
    const CliResult replay = RunTool("--replay=" + path);
    const CliResult corpus = RunTool("--corpus=" + dir);
    std::filesystem::remove_all(dir);
    for (const CliResult& r : {replay, corpus}) {
      EXPECT_EQ(r.exit_code, 2) << r.output;
      EXPECT_NE(r.output.find("malformed expected verdict: " + path),
                std::string::npos)
          << r.output;
    }
  }
}

TEST(CampaignToolCli, ReplayJudgesAReproducerUnderTheRecordedPolicies) {
  // A bundle fuzzed with --fuzz-all-mechs records four verdicts; its
  // replay used to judge the default three and print no SnapRes line.
  const std::string dir = ::testing::TempDir() + "all_mechs_corpus";
  std::filesystem::remove_all(dir);
  const CliResult fuzz = RunTool(
      "--fuzz=16 --fuzz-seed=7 --fuzz-all-mechs --threads=2 --corpus=" + dir);
  ASSERT_EQ(fuzz.exit_code, 0) << fuzz.output;
  std::vector<std::string> repros;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    repros.push_back(entry.path().string());
  }
  ASSERT_FALSE(repros.empty()) << fuzz.output;
  const CliResult replay = RunTool("--replay=" + repros.front());
  std::filesystem::remove_all(dir);
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("\n  SnapRes "), std::string::npos)
      << replay.output;
}

TEST(CampaignToolCli, FleetRunsEndToEndAndWritesJson) {
  const std::string path = ::testing::TempDir() + "fleet_cli.json";
  const CliResult r = RunTool(
      "--fleet --hosts=6 --tenants=2 --fleet-horizon=300 --threads=4"
      " --fleet-out=" + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("violation-minutes"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("admitted"), std::string::npos) << r.output;
  const std::string content = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"fleet\":{"), std::string::npos);
  EXPECT_NE(content.find("\"violation_minutes\":"), std::string::npos);
}

TEST(CampaignToolCli, ReplayPrintsNarrativeAndWritesTheCampaignsDossier) {
  // Without a mechanism the detected run 1000 dies, so the campaign writes
  // its dossier; replaying that run alone must write the same bytes.
  const std::string a = ::testing::TempDir() + "replay_cli_campaign";
  const std::string b = ::testing::TempDir() + "replay_cli_replay";
  const CliResult campaign = RunTool(
      "--mechanism=none --runs=3 --seed=1000 --dossier-dir=" + a);
  EXPECT_EQ(campaign.exit_code, 0) << campaign.output;
  const CliResult replay =
      RunTool("--mechanism=none --replay=1000 --dossier-dir=" + b);
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  const std::string from_campaign = ReadFile(a + "/run_1000.json");
  const std::string from_replay = ReadFile(b + "/run_1000.json");
  for (const std::string& dir : {a, b}) {
    std::remove((dir + "/run_1000.json").c_str());
    std::remove(dir.c_str());
  }
  ASSERT_FALSE(from_campaign.empty()) << campaign.output;
  EXPECT_EQ(from_replay, from_campaign);
  // The narrative's detection line: time, slug, cpu.
  EXPECT_NE(replay.output.find(" ms] detection "), std::string::npos)
      << replay.output;
}

// NiLiHype's steps in a 3AppVM failstop recovery, in order.
const std::vector<std::string> kNiLiHypePhases = {
    "freeze",           "discard_threads",       "clear_irq_count",
    "release_locks",    "sched_metadata_repair", "retry_setup",
    "frame_table_scan", "reactivate_timers",     "ack_interrupts",
    "reprogram_apic",   "resume"};

// The Chrome trace holds run 1000's recovery: the detection, the
// recovery:NiLiHype root and its 11 phase spans, in order, contiguous,
// inside the root and summing to its 21.791 ms.
void ExpectRecoveryInTrace(const std::string& trace_json) {
  nlh::sim::JsonValue trace;
  ASSERT_TRUE(nlh::sim::ParseJson(trace_json, &trace));
  const nlh::sim::JsonValue* root = nullptr;
  std::vector<const nlh::sim::JsonValue*> phases;
  int detections = 0;
  for (const nlh::sim::JsonValue& ev : trace.Find("traceEvents")->items) {
    const std::string& name = ev.Find("name")->str;
    if (name == "recovery:NiLiHype") root = &ev;
    if (name.rfind("recovery_phase:", 0) == 0) phases.push_back(&ev);
    detections += name.rfind("detection:", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(detections, 1);
  ASSERT_NE(root, nullptr);
  ASSERT_EQ(phases.size(), kNiLiHypePhases.size());
  const double root_seq = root->Find("args")->Find("seq")->number;
  double cursor = root->Find("ts")->number;
  double sum = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(phases[i]->Find("name")->str,
              "recovery_phase:" + kNiLiHypePhases[i]);
    EXPECT_EQ(phases[i]->Find("args")->Find("parent")->number, root_seq);
    EXPECT_NEAR(phases[i]->Find("ts")->number, cursor, 0.002);
    cursor = phases[i]->Find("ts")->number + phases[i]->Find("dur")->number;
    sum += phases[i]->Find("dur")->number;
  }
  EXPECT_NEAR(sum, 21791.0, 0.5);  // microseconds
  EXPECT_NEAR(root->Find("dur")->number, sum, 0.01);
}

TEST(CampaignToolCli, ReplayDossierAndProfileHoldTheRecovery) {
  // The dossier's trace used to be the newest 4096 spans, which started
  // seconds after this run's recovery and held none of it.
  const std::string dir = ::testing::TempDir() + "replay_recovery_dossier";
  const std::string profile = ::testing::TempDir() + "replay_recovery.txt";
  const CliResult r = RunTool("--replay=1000 --dossier-dir=" + dir +
                              " --profile-out=" + profile);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string dossier = ReadFile(dir + "/run_1000.json");
  const std::string folded = ReadFile(profile);
  std::filesystem::remove_all(dir);
  std::remove(profile.c_str());
  nlh::sim::JsonValue doc;
  ASSERT_TRUE(nlh::sim::ParseJson(dossier, &doc));
  ExpectRecoveryInTrace(nlh::sim::WriteJson(*doc.Find("trace")));
  // One profile line per phase, under the recovery frame.
  for (const std::string& phase : kNiLiHypePhases) {
    const std::string frame =
        "\nrecovery:NiLiHype;recovery_phase:" + phase + " ";
    EXPECT_NE(("\n" + folded).find(frame), std::string::npos)
        << phase << "\n" << folded;
  }
}

TEST(CampaignToolCli, CampaignTraceOutHoldsTheRecovery) {
  // seed0's trace used to hold 65,536 hot-path spans and no recovery.
  const std::string trace = ::testing::TempDir() + "campaign_recovery.json";
  const CliResult r =
      RunTool("--runs=1 --threads=1 --trace-out=" + trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string json = ReadFile(trace);
  std::remove(trace.c_str());
  ExpectRecoveryInTrace(json);
}

// `"name":{...}` of a histogram whose samples all equal `v`.
std::string Hist(const std::string& name, int count, const std::string& sum,
                 const std::string& v) {
  return "\"" + name + "\":{\"count\":" + std::to_string(count) +
         ",\"sum\":" + sum + ",\"min\":" + v + ",\"max\":" + v +
         ",\"mean\":" + v + ",\"p50\":" + v + ",\"p99\":" + v + "}";
}

// The replay_seed0_metrics object of a --metrics-out file.
std::string ReplayMetrics(const std::string& args) {
  const std::string path = ::testing::TempDir() + "metrics_cli.json";
  const CliResult r = RunTool(args + " --threads=1 --metrics-out=" + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string content = ReadFile(path);
  std::remove(path.c_str());
  const std::string key = "\"replay_seed0_metrics\":";
  const std::size_t at = content.find(key);
  if (at == std::string::npos || content.back() != '}') return content;
  return content.substr(at + key.size(),
                        content.size() - 1 - at - key.size());
}

TEST(CampaignToolCli, MetricsOutPinsEveryMetricFamily) {
  // One SnapRes recovery with PrivVM plants, audit and the integrity
  // monitor: the hv, audit, integrity, snapres and recovery families, the
  // PrivVM phases and the snapshot capture included.
  EXPECT_EQ(
      ReplayMetrics("--mechanism=snapres --setup=1appvm --bench=blk --runs=2"
                    " --audit --integrity --privvm-plants"),
      "{\"counters\":{\"audit.sweeps\":1,\"hv.detections\":1,"
      "\"hv.events_sent\":36000,\"hv.hypercalls\":104034,"
      "\"hv.idle_polls\":13135,\"hv.interrupts\":17166,"
      "\"hv.recoveries\":1,\"hv.schedules\":85142,"
      "\"hv.syscall_forwards\":16000,\"hv.timer_softirqs\":1166,"
      "\"integrity.drifts\":0,\"integrity.epochs\":397,"
      "\"snapres.captures\":41},\"gauges\":{},\"histograms\":{" +
          Hist("audit.findings_per_sweep", 1, "0.000", "0.000") + "," +
          Hist("audit.sweep_ms", 1, "0.109", "0.109") + "," +
          Hist("recovery.phase_ms.ack_interrupts", 1, "0.020", "0.020") + "," +
          Hist("recovery.phase_ms.discard_threads", 1, "0.040", "0.040") + "," +
          Hist("recovery.phase_ms.frame_table_scan", 1, "21.001", "21.001") +
          "," + Hist("recovery.phase_ms.freeze", 1, "0.120", "0.120") + "," +
          Hist("recovery.phase_ms.privvm_backend_rebuild", 1, "0.220",
               "0.220") +
          "," +
          Hist("recovery.phase_ms.privvm_kernel_reset", 1, "0.140", "0.140") +
          "," +
          Hist("recovery.phase_ms.privvm_ring_repair", 1, "0.080", "0.080") +
          "," +
          Hist("recovery.phase_ms.reactivate_timers", 1, "0.060", "0.060") +
          "," +
          Hist("recovery.phase_ms.replay_in_flight", 1, "0.150", "0.150") +
          "," + Hist("recovery.phase_ms.reprogram_apic", 1, "0.050", "0.050") +
          "," + Hist("recovery.phase_ms.resume", 1, "0.090", "0.090") + "," +
          Hist("recovery.phase_ms.rollback", 1, "2.517", "2.517") + "," +
          Hist("recovery.phase_ms.sched_metadata_repair", 1, "0.180",
               "0.180") +
          "," +
          Hist("recovery.phase_ms.snapshot_capture", 41, "51.590", "1.258") +
          "," + Hist("recovery.total_ms", 1, "24.227", "24.227") + "}}");
  // Without a mechanism the run dies: the death counter names the reason.
  EXPECT_EQ(
      ReplayMetrics("--mechanism=none --setup=1appvm --bench=blk --runs=1"),
      "{\"counters\":{\"hv.dead.no_mechanism\":1,\"hv.detections\":1,"
      "\"hv.events_sent\":25884,\"hv.hypercalls\":74799,"
      "\"hv.idle_polls\":8874,\"hv.interrupts\":11774,"
      "\"hv.recoveries\":0,\"hv.schedules\":60645,"
      "\"hv.syscall_forwards\":11504,\"hv.timer_softirqs\":270},"
      "\"gauges\":{},\"histograms\":{}}");
}

TEST(CampaignToolCli, CorpusCheckPassesOnTheCommittedCorpus) {
  const CliResult r =
      RunTool(std::string("--corpus=") + NLH_CORPUS_DIR + " --threads=4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("corpus check passed"), std::string::npos)
      << r.output;
}

}  // namespace
