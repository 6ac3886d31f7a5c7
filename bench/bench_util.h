// Shared helpers for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper and
// prints the same rows/series. Each declares the flags it reads in one
// sim::Flag table (BenchArgs for the campaign benches), so an unknown flag,
// a flag the bench does not read or a malformed value exits 2.
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.h"
#include "sim/flags.h"
#include "sim/json.h"

namespace nlh::bench {

struct BenchArgs {
  int runs = 0;       // 0 = per-bench default
  bool full = false;
  int threads = 0;
  std::uint64_t seed = 1000;

  // The campaign benches' flags. A bench that runs single-threaded passes
  // reads_threads = false, and --threads is unknown to it.
  static BenchArgs Parse(int argc, char** argv, bool reads_threads = true) {
    BenchArgs a;
    using enum sim::FlagValue;
    std::vector<sim::Flag> flags = {
        {"--runs", kRequired, "N", "runs per campaign cell (default: reduced)",
         sim::SetInt(&a.runs, 1)},
        {"--full", kNone, "",
         "the paper's injection counts (Section VII-A)", sim::SetTrue(&a.full),
         ~0u, {}, "with --runs", [&a] { return a.runs == 0; }},
        {"--seed", kRequired, "N", "base seed (default 1000)",
         sim::SetInt(&a.seed, 0)},
    };
    if (reads_threads) {
      flags.push_back({"--threads", kRequired, "N",
                       "worker threads (default 0: all cores)",
                       sim::SetInt(&a.threads, 0)});
    }
    sim::ParseFlags(argc, argv, flags);
    return a;
  }

  core::CampaignOptions MakeOptions(int default_runs, int full_runs) const {
    core::CampaignOptions o;
    o.runs = runs > 0 ? runs : (full ? full_runs : default_runs);
    o.threads = threads;
    o.seed0 = seed;
    return o;
  }
};

// Setter of `--gate-pct=P`: the whole value must be a finite, non-negative
// decimal number ("15", "7.5"). "15%" or "abc" is an error, never read as
// 15 or as a 0% gate the way atof() does.
inline sim::FlagSetter SetGatePct(double* out) {
  return [out](std::string_view value) {
    double v = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] =
        std::from_chars(value.data(), end, v, std::chars_format::fixed);
    if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v < 0) {
      return "needs a non-negative decimal number, got '" +
             std::string(value) + "'";
    }
    *out = v;
    return std::string();
  };
}

// The first field of `want` that `got` lacks or holds with another JSON
// type, searching nested objects too; "" when there is none.
inline std::string MismatchedField(const sim::JsonValue& want,
                                   const sim::JsonValue& got) {
  for (const auto& [key, w] : want.fields) {
    const sim::JsonValue* g = got.Find(key);
    if (g == nullptr || g->type != w.type) return key;
    const std::string inner = MismatchedField(w, *g);
    if (!inner.empty()) return key + "." + inner;
  }
  return "";
}

// Reads the file of a --baseline flag into *out, before anything is
// measured. It must hold every field, with the same JSON type, that
// `shape` (the JSON the bench itself writes) holds, so a truncated file or
// a missing or mistyped field is an error rather than a skipped check.
inline std::string LoadBaseline(std::string_view path, const std::string& shape,
                                sim::JsonValue* out) {
  std::ifstream in{std::string(path)};
  if (!in) return "cannot read " + std::string(path);
  std::stringstream text;
  text << in.rdbuf();
  sim::JsonValue want;
  sim::ParseJson(shape, &want);
  if (!sim::ParseJson(text.str(), out) || !out->IsObject()) {
    return std::string(path) + " is not a JSON object";
  }
  const std::string field = MismatchedField(want, *out);
  if (!field.empty()) {
    return std::string(path) + ": field " + field +
           " is missing or of the wrong type";
  }
  return "";
}

// Fixed integer workload used to normalize throughput metrics across
// machines: xorshift64* over a constant iteration count, in Mops.
inline double CalibMops() {
  constexpr std::uint64_t kIters = 1u << 26;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x *= 0x2545f4914f6cdd1dULL;
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  // Keep the final state observable so the loop cannot be elided.
  if (x == 0) std::fprintf(stderr, "calib degenerate\n");
  return static_cast<double>(kIters) / secs / 1e6;
}

inline void PrintHeader(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("(reproduces %s of \"Fast Hypervisor Recovery Without Reboot\","
              " DSN 2018)\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace nlh::bench
