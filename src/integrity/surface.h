// The recovery-critical subsystems, named once. The first kNumSurfaces are
// the integrity surfaces the hash ladder tracks online; all of them are
// StateAuditor sweep subsystems. The slugs are the one key space drift
// reports, audit findings, trace spans and campaign JSON aggregate under.
#pragma once

namespace nlh::integrity {

enum class Subsystem : int {
  // Hashed surfaces (integrity/ladder.h), in ladder order.
  kFrameTable = 0,
  kHeap,
  kTimer,
  kScheduler,
  kLocks,
  kEventChannel,
  kGrantTable,
  kPerCpu,
  kStatics,
  // Audit-only subsystems.
  kDiff,  // differential findings vs the golden snapshot
  // Guest-context subsystems (only audited when the auditor is given the
  // PrivVM/frontend context; see StateAuditor::SetGuestContext).
  kPrivVmBackend,  // backend component + its bookkeeping vs frontend truth
  kIoRing,         // shared-ring counter/window/duplicate invariants
};

// A hashed surface: one of the first kNumSurfaces subsystems.
using Surface = Subsystem;
inline constexpr int kNumSurfaces = static_cast<int>(Subsystem::kDiff);

inline const char* SubsystemName(Subsystem s) {
  switch (s) {
    case Subsystem::kFrameTable: return "frame_table";
    case Subsystem::kHeap: return "heap";
    case Subsystem::kTimer: return "timer";
    case Subsystem::kScheduler: return "scheduler";
    case Subsystem::kLocks: return "locks";
    case Subsystem::kEventChannel: return "event_channel";
    case Subsystem::kGrantTable: return "grant_table";
    case Subsystem::kPerCpu: return "percpu";
    case Subsystem::kStatics: return "statics";
    case Subsystem::kDiff: return "diff";
    case Subsystem::kPrivVmBackend: return "privvm_backend";
    case Subsystem::kIoRing: return "io_ring";
  }
  return "?";
}

}  // namespace nlh::integrity
