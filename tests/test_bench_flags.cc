// Flag contract of the bench binaries beyond the one-argument ctest cases
// in bench/CMakeLists.txt. Above all the malformed-baseline battery of the
// two gating benches: truncations at 41 lengths and every retyped or deleted
// field of the committed BENCH_simcore.json and BENCH_fleet.json exit 2 from
// the --baseline flag, within a second, before anything is measured; a
// baseline is never half-accepted into a gate that skips what it lacks.
// The mangled copies are built here; the committed files stay untouched.
// NLH_BENCH_DIR (the built benches) and NLH_SOURCE_DIR come from CMake.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "malformed.h"
#include "sim/json.h"

namespace {

using namespace nlh;

struct BenchResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
  double seconds = 0;
};

// Runs build/bench/<bench> with `args`; a bench that measures instead of
// failing fast is cut off after 20 s.
BenchResult RunBench(const std::string& bench, const std::string& args) {
  const std::string cmd = "timeout 20 " + std::string(NLH_BENCH_DIR) + "/" +
                          bench + " " + args + " 2>&1";
  const auto t0 = std::chrono::steady_clock::now();
  std::FILE* pipe = popen(cmd.c_str(), "r");
  BenchResult r;
  if (pipe == nullptr) return r;
  char buf[1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

struct GatedBench {
  const char* bench;
  const char* baseline;
};
constexpr GatedBench kGated[] = {
    {"bench_sim_core", NLH_SOURCE_DIR "/BENCH_simcore.json"},
    {"bench_fleet_slo", NLH_SOURCE_DIR "/BENCH_fleet.json"},
};

TEST(BenchBaselines, CommittedBaselinesLoad) {
  // --help after --baseline exits 0 only once the baseline has loaded.
  for (const GatedBench& g : kGated) {
    const BenchResult r =
        RunBench(g.bench, std::string("--baseline=") + g.baseline + " --help");
    EXPECT_EQ(r.exit_code, 0) << g.bench << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
}

TEST(BenchBaselines, MangledBaselinesExitTwoBeforeMeasuring) {
  const std::string path = ::testing::TempDir() + "nlh_mangled_baseline.json";
  for (const GatedBench& g : kGated) {
    const std::string text = malformed::ReadText(g.baseline);
    ASSERT_FALSE(text.empty()) << g.baseline;
    std::vector<malformed::Mangled> mangled = malformed::Truncations(text, 40);
    for (malformed::Mangled& m : malformed::MangledFields(
             text, [](const std::string&) { return true; }, true)) {
      mangled.push_back(std::move(m));
    }
    // The gate divides by calib_mops: zero is as malformed as missing.
    sim::JsonValue doc;
    ASSERT_TRUE(sim::ParseJson(text, &doc));
    for (auto& [key, value] : doc.fields) {
      if (key == "calib_mops") value.number = 0;
    }
    mangled.push_back({"calib_mops zeroed", sim::WriteJson(doc)});

    for (const malformed::Mangled& m : mangled) {
      ASSERT_TRUE(malformed::WriteText(path, m.text));
      const BenchResult r =
          RunBench(g.bench, "--threads=1 --baseline=" + path);
      EXPECT_EQ(r.exit_code, 2) << g.bench << ": " << m.what << "\n"
                                << r.output;
      EXPECT_EQ(r.output.rfind("--baseline: ", 0), 0u) << r.output;
      EXPECT_LT(r.seconds, 1.0) << g.bench << ": " << m.what;
    }
  }
  std::remove(path.c_str());
}

TEST(BenchArgs, FullWithRunsIsRejected) {
  // --runs overrides --full, which used to be accepted and then ignored.
  const BenchResult r =
      RunBench("bench_table1_enhancements", "--full --runs=3");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--full has no effect with --runs"),
            std::string::npos)
      << r.output;
}

TEST(BenchArgs, GatePctWithoutBaselineIsRejected) {
  for (const GatedBench& g : kGated) {
    const BenchResult r = RunBench(g.bench, "--gate-pct=10");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("--gate-pct has no effect without --baseline"),
              std::string::npos)
        << r.output;
  }
}

}  // namespace
