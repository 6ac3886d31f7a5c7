// Corpus regression runner: replays every committed reproducer in
// tests/corpus/ and asserts its recorded outcome byte-for-byte — the
// divergence kind and all three policy verdicts (policy results, audit
// finding slugs, latencies) must match exactly what the bundle recorded
// when it was shrunk. Any behavioral drift in the simulator, the recovery
// mechanisms, or the audit engine that touches a known divergence shows up
// here as a readable diff of canonical JSON.
//
// NLH_CORPUS_DIR is injected by CMake and points at the source-tree corpus.
#include <gtest/gtest.h>

#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <utility>

#include "fuzz/corpus.h"
#include "fuzz/oracle.h"
#include "malformed.h"

namespace {

using namespace nlh;

std::vector<std::string> CorpusPaths() {
  return fuzz::ListCorpus(NLH_CORPUS_DIR);
}

TEST(CorpusShipment, ShipsAtLeastTenReproducers) {
  EXPECT_GE(CorpusPaths().size(), 10u)
      << "committed corpus under " << NLH_CORPUS_DIR << " shrank";
}

TEST(CorpusShipment, SpansAtLeastFourAuditSubsystems) {
  std::set<std::string> subsystems;
  for (const std::string& path : CorpusPaths()) {
    fuzz::LoadedReproducer rep;
    std::string err;
    ASSERT_TRUE(fuzz::LoadReproducer(path, &rep, &err)) << err;
    for (const fuzz::PolicyVerdict& v : rep.expected) {
      subsystems.insert(v.latent_subsystems.begin(),
                        v.latent_subsystems.end());
    }
  }
  EXPECT_GE(subsystems.size(), 4u)
      << "corpus reproducers cover too few audit subsystems";
}

using malformed::ReadText;

TEST(CorpusLoad, RejectsScenarioNumbersThatDoNotFitTheirField) {
  // A hand-edited reproducer must be refused, not replayed with a value
  // the cast made up: 1e20 does not fit an int64 (the cast is undefined),
  // 2.5 is not an integer, 2^31 does not fit the int field, and a count
  // cannot be negative.
  const std::vector<std::string> paths = CorpusPaths();
  ASSERT_FALSE(paths.empty());
  const std::string text = ReadText(paths.front());
  const std::string path = ::testing::TempDir() + "nlh_bad_number.json";
  const std::pair<const char*, const char*> cases[] = {
      {"netbench_ms", "99999999999999999999"},
      {"netbench_ms", "-1"},
      {"unixbench_iterations", "-1"},
      {"unixbench_iterations", "2.5"},
      {"unixbench_iterations", "2147483648"},
      {"blkbench_files", "-1"},
      {"trigger_skip", "-1"},
      {"inject_at_ns", "1e300"},
      {"inject_at_ns", "0.5"},
  };
  for (const auto& [field, value] : cases) {
    SCOPED_TRACE(std::string(field) + "=" + value);
    const std::regex number("\"" + std::string(field) + "\":-?[0-9]+");
    ASSERT_TRUE(std::regex_search(text, number));
    const std::string edited = std::regex_replace(
        text, number, "\"" + std::string(field) + "\":" + value);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(edited.data(), 1, edited.size(), f);
    std::fclose(f);
    fuzz::LoadedReproducer rep;
    std::string err;
    EXPECT_FALSE(fuzz::LoadReproducer(path, &rep, &err));
    EXPECT_NE(err.find("malformed scenario"), std::string::npos) << err;
  }
  std::remove(path.c_str());
}

TEST(CorpusLoad, RejectsTruncatedAndRetypedBundles) {
  // A cut-off download or a hand edit must be refused, never replayed
  // half-read: prefixes at 65 lengths, and every value the loader reads
  // given another JSON type.
  const std::string path = ::testing::TempDir() + "nlh_mangled_repro.json";
  int cases = 0;
  for (const std::string& repro : CorpusPaths()) {
    const std::string text = ReadText(repro);
    std::vector<malformed::Mangled> mangled = malformed::Truncations(text, 64);
    for (malformed::Mangled& m : malformed::MangledFields(
             text, malformed::ReadByReproducerLoader, false)) {
      mangled.push_back(std::move(m));
    }
    for (const malformed::Mangled& m : mangled) {
      ASSERT_TRUE(malformed::WriteText(path, m.text));
      fuzz::LoadedReproducer rep;
      std::string err;
      EXPECT_FALSE(fuzz::LoadReproducer(path, &rep, &err))
          << repro << ": " << m.what;
      ++cases;
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(cases, 1000);
}

TEST(CorpusRegression, EveryReproducerReplaysByteForByte) {
  const std::vector<std::string> paths = CorpusPaths();
  ASSERT_FALSE(paths.empty()) << "no corpus under " << NLH_CORPUS_DIR;
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    fuzz::LoadedReproducer rep;
    std::string err;
    ASSERT_TRUE(fuzz::LoadReproducer(path, &rep, &err)) << err;
    // Committed bundles were shrunk against the historical default triple;
    // the loader must recover exactly that policy list from them.
    ASSERT_EQ(rep.policies, fuzz::DefaultPolicies());

    const fuzz::OracleOutcome o =
        fuzz::EvaluateScenario(rep.scenario, 3, rep.policies);
    EXPECT_EQ(fuzz::DivergenceKindName(o.divergence),
              fuzz::DivergenceKindName(rep.divergence));
    ASSERT_EQ(o.verdicts.size(), rep.expected.size());
    for (std::size_t i = 0; i < o.verdicts.size(); ++i) {
      EXPECT_EQ(o.verdicts[i].ToJson(), rep.expected[i].ToJson())
          << "verdict drift for "
          << core::MechanismName(rep.policies[i]);
    }
  }
}

}  // namespace
