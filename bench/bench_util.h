// Shared helpers for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper and
// prints the same rows/series. Common flags:
//   --runs=N     runs per campaign cell (default: reduced counts; the paper
//                used 1000-5000 per fault type)
//   --full       use the paper's injection counts (Section VII-A)
//   --threads=N  worker threads (default: all cores)
//   --seed=N     base seed
// An unknown flag or a malformed integer value exits 2.
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "core/campaign.h"
#include "sim/int_flag.h"

namespace nlh::bench {

struct BenchArgs {
  int runs = 0;       // 0 = per-bench default
  bool full = false;
  int threads = 0;
  std::uint64_t seed = 1000;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs a;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      bool ok = true;
      if (std::strncmp(arg, "--runs=", 7) == 0) {
        ok = sim::ParseIntFlag("--runs", arg + 7, &a.runs, 1);
      } else if (std::strcmp(arg, "--full") == 0) {
        a.full = true;
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        ok = sim::ParseIntFlag("--threads", arg + 10, &a.threads, 0);
      } else if (std::strncmp(arg, "--seed=", 7) == 0) {
        ok = sim::ParseIntFlag("--seed", arg + 7, &a.seed, 0);
      } else if (std::strcmp(arg, "--help") != 0) {
        std::printf("unknown flag %s\n", arg);
        ok = false;
      }
      if (!ok || std::strcmp(arg, "--help") == 0) {
        std::printf("flags: --runs=N --full --threads=N --seed=N\n");
        std::exit(ok ? 0 : 2);
      }
    }
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

// Strict parse of a `--gate-pct=P` value: the whole value must be a finite,
// non-negative decimal number ("15", "7.5"). "15%" or "abc" prints why and
// returns false, never reads as 15 or as a 0% gate the way atof() does.
inline bool ParseGatePct(std::string_view value, double* out) {
  double v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] =
      std::from_chars(value.data(), end, v, std::chars_format::fixed);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v < 0) {
    std::printf("--gate-pct needs a non-negative decimal number, got '%.*s'\n",
                static_cast<int>(value.size()), value.data());
    return false;
  }
  *out = v;
  return true;
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
