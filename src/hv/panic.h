// Simulated fatal-error machinery.
//
// A HvPanic models the events Xen's panic detector catches: fatal hardware
// exceptions (#PF/#GP on a wild pointer, PC=0 fetch) and failed software
// assertions (Section VI-B). It unwinds the current simulated execution
// thread up to the hypervisor entry point, where detection/recovery is
// invoked.
//
// A HvHang models a CPU stuck making no progress (spinning on a lock held
// by an abandoned thread, walking a corrupted circular list). It is caught
// at the entry point too, but instead of triggering recovery directly it
// marks the CPU hung; only the NMI-based watchdog can then detect it, after
// the paper's 3 x 100 ms missed-increment window.
#pragma once

#include <stdexcept>
#include <string>

#include "forensics/record.h"

namespace nlh::hv {

class HvPanic : public std::runtime_error {
 public:
  explicit HvPanic(const std::string& what) : std::runtime_error(what) {
    // The raising CPU is not known here; the entry-path catch that turns
    // this into a DetectionEvent records the CPU-attributed kDetection.
    NLH_RECORD(forensics::EventKind::kPanicRaised, -1, 0, 0, what);
  }
};

class HvHang : public std::runtime_error {
 public:
  explicit HvHang(const std::string& what) : std::runtime_error(what) {
    NLH_RECORD(forensics::EventKind::kPanicRaised, -1, 1, 0, what);
  }
};

// Throws HvPanic(prefix + msg). Out of line and cold, so the checks below
// inline to a test and a branch at every call site.
[[noreturn, gnu::cold, gnu::noinline]] inline void ThrowHvPanic(
    const char* prefix, const char* msg) {
  throw HvPanic(std::string(prefix) + msg);
}

// Xen-style assertion: throws HvPanic (i.e. the panic detector fires).
inline void HvAssert(bool cond, const char* msg) {
  if (!cond) [[unlikely]] ThrowHvPanic("ASSERT failed: ", msg);
}

inline void HvBugOn(bool cond, const char* msg) {
  if (cond) [[unlikely]] ThrowHvPanic("BUG_ON: ", msg);
}

}  // namespace nlh::hv
