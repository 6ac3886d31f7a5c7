// The hypervisor's static data segment, modeled as a set of named globals.
//
// This is the state that distinguishes microreboot from microreset at the
// mechanism level (Section II-B): ReHype's reboot re-initializes the static
// segment and then copies back only a *selected preserved subset* from the
// failed instance, while NiLiHype reuses the whole segment in place. A
// fault that corrupts a non-preserved static variable is therefore repaired
// by ReHype's reboot but survives NiLiHype's microreset — the mechanical
// source of ReHype's small recovery-rate advantage on Register/Code faults
// (Figure 2) and of the paper's observation that failstop faults (which
// corrupt nothing) show identical rates.
//
// Each variable corresponds to real Xen state and is "used" (integrity-
// checked) at the code paths that would dereference it; a corrupted value
// manifests as a panic or hang at its real use site, not at injection time.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "hv/panic.h"

namespace nlh::hv {

enum class StaticVar : int {
  kDomainListHead = 0,  // head of the global domain list
  kM2PTableBase,        // machine-to-physical translation table base
  kFrameTableBase,      // frame_table base pointer
  kTscKhz,              // TSC calibration (recomputed by reboot)
  kIrqDescTable,        // interrupt descriptor/routing table
  kIoApicRoute,         // IO-APIC routing registers' shadow
  kSchedOpsPtr,         // scheduler ops vtable pointer
  kTimerSubsysState,    // timer subsystem bookkeeping
  kConsoleState,        // console ring state (benign)
  kPerCpuOffsets,       // per-CPU area offsets
  kHeapMetadataPtr,     // heap zone descriptors pointer
  kEvtchnBucketPtr,     // event-channel bucket pointer
  kCount,
};

inline constexpr int kNumStaticVars = static_cast<int>(StaticVar::kCount);

std::string_view StaticVarName(StaticVar v);

class StaticDataSegment {
 public:
  StaticDataSegment() { ResetAll(); }

  // Marks a variable corrupted (fault effect). Real value semantics are not
  // needed: what matters mechanically is *whether* the value is wrong and
  // which recovery mechanism can restore it.
  void Corrupt(StaticVar v) { entries_[Idx(v)].corrupted = true; }
  bool corrupted(StaticVar v) const { return entries_[Idx(v)].corrupted; }

  int CorruptedCount() const {
    int n = 0;
    for (const Entry& e : entries_) n += e.corrupted ? 1 : 0;
    return n;
  }

  // A use site: hypervisor code calls this where Xen would dereference the
  // variable. A corrupted pointer-like variable manifests as a fatal page
  // fault (panic); corrupted bookkeeping manifests as a hang.
  // A benign corruption is a wrong value without functional impact.
  void Use(StaticVar v) const {
    const Entry& e = entries_[Idx(v)];
    if (e.corrupted && !e.benign) [[unlikely]] ThrowCorruptedUse(v);
  }

  // ReHype reboot: every variable is re-initialized by the fresh boot; the
  // preserved subset is then overwritten from the failed instance's saved
  // copy (Section III-B). Preserved-and-corrupted variables therefore stay
  // corrupted; the rest are repaired.
  void RebootRestore() {
    for (Entry& e : entries_) {
      if (!e.preserved_by_rehype) e.corrupted = false;
    }
  }

  // Fresh boot (initial bring-up): everything valid.
  void ResetAll();

  // Whether ReHype's reboot would repair a corruption of `v`.
  bool RebootRepairs(StaticVar v) const {
    return !entries_[Idx(v)].preserved_by_rehype;
  }
  bool benign(StaticVar v) const { return entries_[Idx(v)].benign; }

  // Snapshot/restore (sim/state_image.h).
  template <typename V>
  void VisitState(V&& v) {
    v(entries_);
  }

 private:
  struct Entry {
    bool corrupted = false;
    // True if ReHype must carry this state over from the failed instance
    // (it encodes information about live VMs that a fresh boot cannot
    // reconstruct), so the reboot cannot repair it.
    bool preserved_by_rehype = false;
    bool benign = false;        // corruption has no functional consequence
    bool hangs_on_use = false;  // manifests as livelock rather than panic
  };

  static std::size_t Idx(StaticVar v) { return static_cast<std::size_t>(v); }
  // The throw half of Use, kept out of line.
  [[noreturn, gnu::cold, gnu::noinline]] void ThrowCorruptedUse(
      StaticVar v) const;

  std::array<Entry, kNumStaticVars> entries_;
};

}  // namespace nlh::hv
