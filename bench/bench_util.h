// Shared helpers for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper and
// prints the same rows/series. Common flags:
//   --runs=N     runs per campaign cell (default: reduced counts; the paper
//                used 1000-5000 per fault type)
//   --full       use the paper's injection counts (Section VII-A)
//   --threads=N  worker threads (default: all cores)
//   --seed=N     base seed
// A malformed integer value exits 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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

inline void PrintHeader(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("(reproduces %s of \"Fast Hypervisor Recovery Without Reboot\","
              " DSN 2018)\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace nlh::bench
