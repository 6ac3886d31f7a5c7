// Google-benchmark microbenchmarks of the hot simulator paths: hypercall
// dispatch with and without undo logging, the scheduler, the frame scan,
// and metadata repair. These bound the wall-clock cost of campaigns and
// quantify the per-operation cost of the recovery-support code.
#include <benchmark/benchmark.h>

#include "hv/hypervisor.h"
#include "recovery/nilihype.h"

using namespace nlh;

namespace {

struct World {
  World() : platform(Cfg(), 1), hv(platform, hv::HvConfig{}) {
    hv.Boot();
    dom = hv.CreateDomainDirect("bench", false, 1, 32);
    hv.StartDomain(dom);
    vcpu = hv.FindDomain(dom)->vcpus.front();
    hv::OpContext ctx(platform, platform.cpu(1), hv.options(),
                      hv::HvContextKind::kSchedule, nullptr, nullptr);
    hv.Schedule(ctx, 1);
  }
  static hw::PlatformConfig Cfg() {
    hw::PlatformConfig cfg;
    cfg.num_cpus = 2;
    cfg.memory_gib = 1;
    return cfg;
  }
  hw::Platform platform;
  hv::Hypervisor hv;
  hv::DomainId dom;
  hv::VcpuId vcpu;
};

void BM_HypercallMmuUpdate(benchmark::State& state) {
  World w;
  w.hv.options().undo_logging = state.range(0) != 0;
  hv::HypercallArgs a;
  bool map = true;
  for (auto _ : state) {
    a.arg0 = 5;
    a.arg1 = map ? 1 : 0;
    benchmark::DoNotOptimize(
        w.hv.Hypercall(w.vcpu, hv::HypercallCode::kMmuUpdate, a));
    map = !map;
  }
}
BENCHMARK(BM_HypercallMmuUpdate)->Arg(0)->Arg(1);

// Flight-recorder cost on the hypercall hot path: Arg(0) recorder off (the
// campaign configuration — one enabled test per hypercall span and per
// NLH_RECORD site), Arg(1) recorder on (the forensic-replay configuration,
// full ring writes).
void BM_HypercallRecorder(benchmark::State& state) {
  World w;
  if (state.range(0) != 0) w.hv.flight_recorder().Enable(w.platform.num_cpus());
  hv::HypercallArgs a;
  bool map = true;
  for (auto _ : state) {
    a.arg0 = 5;
    a.arg1 = map ? 1 : 0;
    benchmark::DoNotOptimize(
        w.hv.Hypercall(w.vcpu, hv::HypercallCode::kMmuUpdate, a));
    map = !map;
  }
}
BENCHMARK(BM_HypercallRecorder)->Arg(0)->Arg(1);

void BM_HypercallMulticall4(benchmark::State& state) {
  World w;
  hv::HypercallArgs a;
  for (int i = 0; i < 4; ++i) {
    hv::MulticallEntry e;
    e.code = hv::HypercallCode::kMmuUpdate;
    e.arg0 = static_cast<std::uint64_t>(i);
    e.arg1 = 1;
    a.batch.push_back(e);
  }
  hv::HypercallArgs un = a;
  for (auto& e : un.batch) e.arg1 = 0;
  bool map = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.hv.Hypercall(w.vcpu, hv::HypercallCode::kMulticall, map ? a : un));
    map = !map;
  }
}
BENCHMARK(BM_HypercallMulticall4);

void BM_Schedule(benchmark::State& state) {
  World w;
  for (auto _ : state) {
    hv::OpContext ctx(w.platform, w.platform.cpu(1), w.hv.options(),
                      hv::HvContextKind::kSchedule, nullptr, nullptr);
    benchmark::DoNotOptimize(w.hv.Schedule(ctx, 1));
  }
}
BENCHMARK(BM_Schedule);

void BM_FrameScan(benchmark::State& state) {
  hv::FrameTable ft(static_cast<std::uint64_t>(state.range(0)));
  ft.Alloc(static_cast<std::uint64_t>(state.range(0)) / 2,
           hv::FrameType::kDomainPage, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ft.ScanAndRepair());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameScan)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_SchedMetadataRepair(benchmark::State& state) {
  hv::PerCpuList pcpus;
  for (int c = 0; c < 8; ++c) pcpus.emplace_back(c);
  std::vector<hv::Vcpu> vcpus;
  for (hv::VcpuId v = 0; v < 16; ++v) {
    hv::Vcpu vc;
    vc.id = v;
    vc.pinned_cpu = v % 8;
    vc.state = hv::VcpuState::kRunnable;
    vcpus.push_back(std::move(vc));
  }
  for (auto _ : state) {
    pcpus[3].curr = 5;  // something to fix every round
    benchmark::DoNotOptimize(hv::RepairSchedMetadata(pcpus, vcpus));
  }
}
BENCHMARK(BM_SchedMetadataRepair);

void BM_NiLiHypeRecoverySteps(benchmark::State& state) {
  // Wall-clock cost of executing the whole microreset step sequence (the
  // *simulated* latency is Table III; this is host time per recovery).
  for (auto _ : state) {
    state.PauseTiming();
    World w;
    recovery::NiLiHype mech(w.hv, recovery::EnhancementSet::Full());
    state.ResumeTiming();
    benchmark::DoNotOptimize(mech.Recover(0, hv::DetectionKind::kPanic));
  }
}
BENCHMARK(BM_NiLiHypeRecoverySteps)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
