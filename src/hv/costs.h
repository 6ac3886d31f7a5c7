// Instruction-cost calibration for hypervisor code paths.
//
// The fault injector's second-level trigger picks a uniformly random point
// in *retired hypervisor instructions* (Section VI-C), so these constants
// determine where faults land: the share of retirement spent in hypercall
// handlers vs. the scheduler vs. the timer-softirq path directly produces
// the increments between rows of Table I. The absolute scale (together
// with hw::kNsPerInstruction) determines the <5% fraction of CPU cycles
// spent in the hypervisor (Section VII-A) and the Figure 3 overhead
// percentages.
#pragma once

#include <cstdint>

namespace nlh::hv::cost {

// --- Entry/exit ------------------------------------------------------------
inline constexpr std::uint64_t kHypercallEntry = 180;   // save regs, dispatch
inline constexpr std::uint64_t kHypercallExit = 340;    // restore context,
    // re-check events/softirqs, sysret — the post-commit window
inline constexpr std::uint64_t kIrqEntry = 220;         // vector, save, ack
inline constexpr std::uint64_t kIrqExit = 160;
inline constexpr std::uint64_t kSyscallForward = 260;   // x86-64 forwarding

// --- Memory management -----------------------------------------------------
inline constexpr std::uint64_t kMmuUpdatePerEntry = 240;
inline constexpr std::uint64_t kPinValidate = 900;      // page-table walk
inline constexpr std::uint64_t kPinCommit = 150;
inline constexpr std::uint64_t kUnpin = 500;
inline constexpr std::uint64_t kUpdateVaMapping = 300;
inline constexpr std::uint64_t kMemoryOpPerFrame = 180;

// --- Grants / events ---------------------------------------------------------
inline constexpr std::uint64_t kGrantMap = 650;
inline constexpr std::uint64_t kGrantUnmap = 420;
inline constexpr std::uint64_t kGrantCopy = 1600;       // data copy included
inline constexpr std::uint64_t kEventSend = 320;
inline constexpr std::uint64_t kEventSetup = 380;

// --- Scheduling --------------------------------------------------------------
inline constexpr std::uint64_t kSchedOp = 200;          // yield/block body
inline constexpr std::uint64_t kSetTimerOp = 220;
inline constexpr std::uint64_t kSchedule = 1100;        // schedule() body
inline constexpr std::uint64_t kContextSwitch = 900;
inline constexpr std::uint64_t kConsoleIo = 150;

// --- Timer softirq -----------------------------------------------------------
inline constexpr std::uint64_t kTimerSoftirqFixed = 260;
inline constexpr std::uint64_t kTimerPerExpiry = 300;
inline constexpr std::uint64_t kApicReprogram = 120;

// --- Toolstack ----------------------------------------------------------------
inline constexpr std::uint64_t kDomctlCreate = 60000;
inline constexpr std::uint64_t kDomctlDestroy = 30000;
inline constexpr std::uint64_t kDomctlSmall = 900;

// --- Idle ---------------------------------------------------------------------
inline constexpr std::uint64_t kIdlePoll = 350;  // per idle-loop wakeup

// --- Recovery-support overhead during NORMAL operation ------------------------
// Per undo-log record (Section IV "lightweight logging"): the source of the
// NiLiHype-vs-NiLiHype* gap in Figure 3.
inline constexpr std::uint64_t kUndoLogRecord = 90;
// Per multicall-component completion log write (Section IV).
inline constexpr std::uint64_t kBatchCompletionLog = 40;
// ReHype-only: shadowing IO-APIC register writes during normal operation.
inline constexpr std::uint64_t kIoApicShadowWrite = 60;

}  // namespace nlh::hv::cost
