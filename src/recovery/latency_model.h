// Recovery-step latency model, calibrated against Tables II and III.
//
// Fixed costs (hardware bring-up waits, IPI round trips) are taken directly
// from the paper's measurements on an 8-core Nehalem host with 8 GB RAM.
// Memory-proportional costs are expressed per frame and charged for every
// frame of the CONFIGURED physical memory (the mechanically simulated frame
// table is a smaller window; see hv/frame_table.h). At the paper's 8 GB
// calibration point the per-frame costs reproduce the paper's milliseconds
// exactly; Table III's "latency is proportional to the size of host memory"
// observation (Section VII-B) then falls out for other sizes.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace nlh::recovery::latency {

// --- Shared -----------------------------------------------------------
// Detection -> all CPUs frozen (IPI delivery + interrupt disable).
inline constexpr sim::Duration kFreeze = sim::Microseconds(120);
// Delay from freeze to the interrupt-ack step. APIC one-shots that fire
// inside this window are consumed by the ack; anything firing after it
// stays latched in the IRR and is redelivered at resume. This window is
// what makes the "Reprogram hardware timer" enhancement matter.
inline constexpr sim::Duration kAckDelay = sim::Microseconds(400);
// Per-descriptor cost of the page-frame consistency scan:
// 21 ms / (8 GiB / 4 KiB frames) ~= 10 ns (Tables II and III).
inline constexpr double kFrameScanNsPerFrame = 10.014;

// --- NiLiHype (Table III: total 22 ms = 21 ms scan + 1 ms others) -------
inline constexpr sim::Duration kNlDiscardThreads = sim::Microseconds(40);
inline constexpr sim::Duration kNlClearIrq = sim::Microseconds(30);
inline constexpr sim::Duration kNlReleaseLocks = sim::Microseconds(90);
inline constexpr sim::Duration kNlSchedRepair = sim::Microseconds(180);
inline constexpr sim::Duration kNlRetrySetup = sim::Microseconds(110);
inline constexpr sim::Duration kNlReactivate = sim::Microseconds(60);
inline constexpr sim::Duration kNlReprogram = sim::Microseconds(50);
inline constexpr sim::Duration kNlResume = sim::Microseconds(90);

// --- ReHype (Table II: total 713 ms at 8 GB) ------------------------------
// Hardware initialization: 412 ms.
inline constexpr sim::Duration kRhEarlyBoot = sim::Milliseconds(12);
inline constexpr sim::Duration kRhCpusOnline = sim::Milliseconds(150);
inline constexpr sim::Duration kRhApicSetup = sim::Milliseconds(200);
inline constexpr sim::Duration kRhTscCalibrate = sim::Milliseconds(50);
// Memory initialization: 266 ms at 8 GB, all memory-proportional.
inline constexpr double kRhRecordHeapNsPerFrame = 10.014;    // 21 ms @ 8 GB
// (frame scan shares kFrameScanNsPerFrame: 21 ms @ 8 GB)
inline constexpr double kRhReinitDescNsPerFrame = 6.199;     // 13 ms @ 8 GB
inline constexpr double kRhRecreateHeapNsPerFrame = 100.62;  // 211 ms @ 8 GB
// Misc: 35 ms.
inline constexpr sim::Duration kRhSmpInit = sim::Milliseconds(20);
inline constexpr sim::Duration kRhRelocate = sim::Milliseconds(2);
inline constexpr sim::Duration kRhMiscOthers = sim::Milliseconds(13);

// --- SnapRes (snapshot/rollback; recovery/snapres.h) --------------------
// Capture copies the hypervisor control state (static segment, heap
// metadata, timer wheels, per-CPU blocks); the heap metadata dominates
// and scales with memory, so both costs are per-frame. Capture is charged
// as runtime overhead at every snapshot epoch.
inline constexpr double kSrCaptureNsPerFrame = 0.6;   // ~1.26 ms @ 8 GB
// Rollback is the bulk copy-back of the same image at recovery time.
inline constexpr double kSrRollbackNsPerFrame = 1.2;  // ~2.5 ms @ 8 GB
// Replaying the undo log and re-arming retries for in-flight requests.
inline constexpr sim::Duration kSrReplayInflight = sim::Microseconds(150);

// --- PrivVM component recovery (recovery/privvm_recovery.h) -------------
// Ring repair walks the shared rings (counter resync + dedup); backend
// rebuild cross-checks surviving frontend driver state and reclaims
// leaked grant mappings; kernel reset is the component microreboot.
// Component-local costs: independent of host memory size.
inline constexpr sim::Duration kPvRingRepair = sim::Microseconds(80);
inline constexpr sim::Duration kPvBackendRebuild = sim::Microseconds(220);
inline constexpr sim::Duration kPvKernelReset = sim::Microseconds(140);

// The page-frame scan over `configured_frames`, split across `parallelism`
// cores (EnhancementSet::frame_scan_parallelism; 1 = the paper's sequential
// scan).
inline sim::Duration FrameScan(std::uint64_t configured_frames,
                               int parallelism) {
  const int par = parallelism > 0 ? parallelism : 1;
  return static_cast<sim::Duration>(kFrameScanNsPerFrame *
                                    static_cast<double>(configured_frames) /
                                    par);
}

inline sim::Duration PerFrame(double ns_per_frame,
                              std::uint64_t configured_frames) {
  return static_cast<sim::Duration>(ns_per_frame *
                                    static_cast<double>(configured_frames));
}

}  // namespace nlh::recovery::latency
