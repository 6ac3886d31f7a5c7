#include "hv/static_data.h"

namespace nlh::hv {

std::string_view StaticVarName(StaticVar v) {
  switch (v) {
    case StaticVar::kDomainListHead: return "domain_list";
    case StaticVar::kM2PTableBase: return "m2p_table";
    case StaticVar::kFrameTableBase: return "frame_table";
    case StaticVar::kTscKhz: return "tsc_khz";
    case StaticVar::kIrqDescTable: return "irq_desc";
    case StaticVar::kIoApicRoute: return "io_apic_route";
    case StaticVar::kSchedOpsPtr: return "sched_ops";
    case StaticVar::kTimerSubsysState: return "timer_subsys";
    case StaticVar::kConsoleState: return "console_state";
    case StaticVar::kPerCpuOffsets: return "percpu_offsets";
    case StaticVar::kHeapMetadataPtr: return "heap_metadata";
    case StaticVar::kEvtchnBucketPtr: return "evtchn_buckets";
    case StaticVar::kCount: break;
  }
  return "?";
}

void StaticDataSegment::ThrowCorruptedUse(StaticVar v) const {
  if (entries_[Idx(v)].hangs_on_use) {
    throw HvHang(std::string("corrupted static '") +
                 std::string(StaticVarName(v)) + "' caused livelock");
  }
  throw HvPanic(std::string("fatal fault dereferencing static '") +
                std::string(StaticVarName(v)) + "'");
}

void StaticDataSegment::ResetAll() {
  for (Entry& e : entries_) e = Entry{};

  auto& at = entries_;
  auto idx = [](StaticVar v) { return static_cast<std::size_t>(v); };

  // Preserved across ReHype reboot: state that encodes live-VM information
  // a fresh boot cannot reconstruct (Section III-B: "parts of the preserved
  // static data segments are used to overwrite some of the values
  // initialized earlier in the boot process").
  at[idx(StaticVar::kDomainListHead)].preserved_by_rehype = true;
  at[idx(StaticVar::kEvtchnBucketPtr)].preserved_by_rehype = true;
  at[idx(StaticVar::kHeapMetadataPtr)].preserved_by_rehype = true;
  at[idx(StaticVar::kFrameTableBase)].preserved_by_rehype = true;

  // Re-derived by a fresh boot: TSC calibration, IRQ routing, IO-APIC
  // shadow, scheduler ops, per-CPU offsets, timer subsystem, M2P base.
  // (ReHype repairs corruption here; NiLiHype reuses the corrupt value.)

  // Manifestation style at the use site.
  at[idx(StaticVar::kTscKhz)].hangs_on_use = true;        // bad timer math
  at[idx(StaticVar::kTimerSubsysState)].hangs_on_use = true;
  at[idx(StaticVar::kConsoleState)].benign = true;        // cosmetic only
}

}  // namespace nlh::hv
