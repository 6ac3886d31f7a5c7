// The simulated Xen-like hypervisor.
//
// Owns every hypervisor-side structure the paper's recovery mechanisms
// repair (frame table, heap, timer heaps, scheduler metadata, locks, event
// channels, per-CPU data, static segment) and drives execution of the
// hosted guests over the hardware platform. Error detection unwinds to the
// entry paths here and is reported through the registered error handler
// (the detect/ layer), which invokes a recovery mechanism (recovery/).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "hv/domain.h"
#include "hv/failure.h"
#include "hv/frame_table.h"
#include "hv/guest_iface.h"
#include "hv/heap.h"
#include "hv/hypercall_defs.h"
#include "hv/op_context.h"
#include "hv/options.h"
#include "hv/percpu.h"
#include "hv/sched_ops.h"
#include "hv/spinlock.h"
#include "hv/static_data.h"
#include "hv/timer_heap.h"
#include "hv/types.h"
#include "hv/vcpu.h"
#include "hw/platform.h"
#include "forensics/flight_recorder.h"
#include "integrity/mutation_ledger.h"

namespace nlh::hv {

// HVM extension: VM exit reasons handled by the hypervisor.
enum class VmExitReason : int {
  kEptViolation = 0,  // guest touched an unmapped guest-physical page
  kEptReclaim,        // balloon/pressure path unmapping a guest page
  kCpuid,             // trivial emulated instruction
};

// Routing of a hardware interrupt vector to a domain's event port.
// `masked` models IO-APIC masking during a physdev_op rebalance: an
// abandoned rebalance leaves the route masked and the device silent.
struct DeviceBinding {
  DomainId dom = kInvalidDomain;
  EventPort port = kInvalidPort;
  bool masked = false;
};

// The hypervisor's core counters, bumped in place on the paths they name.
// --metrics-out prints them as the hv.* counters.
struct HvStats {
  std::uint64_t hypercalls = 0;
  std::uint64_t syscall_forwards = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t schedules = 0;
  std::uint64_t timer_softirqs = 0;
  std::uint64_t idle_polls = 0;
  std::uint64_t events_sent = 0;
  std::uint64_t detections = 0;
  std::uint64_t recoveries = 0;
};

inline constexpr std::uint64_t kHeapPages = 2048;  // heap size (sim frames)
inline constexpr std::uint64_t kFrameTableFrames = 16384;  // frame-table window
inline constexpr sim::Duration kSchedTickPeriod = sim::Milliseconds(10);
inline constexpr sim::Duration kWatchdogTickPeriod = sim::Milliseconds(100);
inline constexpr sim::Duration kTimeSyncPeriod = sim::Milliseconds(500);
inline constexpr sim::Duration kGuestSliceBudget = sim::Microseconds(500);
inline constexpr int kMaxVcpus = 64;

struct HvConfig {
  RuntimeOptions runtime;
};

class Hypervisor {
 public:
  Hypervisor(hw::Platform& platform, const HvConfig& config);

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  // --- Boot / configuration ----------------------------------------------
  // Fresh bring-up: initializes all state, registers recurring timer
  // events, arms APIC timers and the watchdog NMI source.
  void Boot();

  // Creates a domain directly (boot-time path; the runtime path is the
  // kDomctlCreate hypercall issued by the PrivVM toolstack).
  DomainId CreateDomainDirect(const std::string& name, bool privileged,
                              hw::CpuId pinned_cpu, std::uint64_t frames);
  void AttachGuest(DomainId dom, GuestInterface* guest);
  // Makes the domain's vCPUs runnable and kicks their CPUs.
  void StartDomain(DomainId dom);

  // --- Guest entry points (called from GuestInterface::RunSlice) -----------
  // Executes a hypercall synchronously. May throw (simulated fault) — the
  // guest layer must be a pass-through for exceptions.
  std::uint64_t Hypercall(VcpuId vcpu, HypercallCode code,
                          const HypercallArgs& args);
  // x86-64 forwarded system call (Section IV): charges the forwarding path
  // and tracks it for syscall retry.
  void ForwardedSyscall(VcpuId vcpu, std::uint64_t sysno);

  // HVM extension: handles a hardware VM exit from a fully-virtualized
  // guest. Unlike PV hypercalls, an abandoned VM exit is re-delivered by
  // the hardware when the guest instruction re-executes.
  std::uint64_t VmExit(VcpuId vcpu, VmExitReason reason, std::uint64_t arg);

  // Reads and clears the pending event-channel bitmap of a vCPU (bit 0 is
  // the timer virq; bit N>0 is local port N). Guests call this from
  // RunSlice.
  std::uint64_t ConsumePendingEvents(VcpuId vcpu);

  // --- Device / external interface ------------------------------------------
  // Binds a hardware interrupt vector to (domain, event port).
  void BindDeviceVector(hw::Vector v, DomainId dom, EventPort port);
  void RaiseDeviceIrq(hw::Vector v, hw::CpuId target_cpu);

  // --- Execution ---------------------------------------------------------
  // Ensures a run-slice event is pending for the CPU.
  void KickCpu(hw::CpuId cpu);
  // As KickCpu, but at an absolute time.
  void KickCpuAt(hw::CpuId cpu, sim::Time when);
  // The per-CPU executor; normally invoked from the event queue.
  void RunCpuSlice(hw::CpuId cpu);

  // --- Operation observation (fault injector trigger events) ---------------
  // A lightweight tap on hypervisor operations: hypercall entry, each
  // completed multicall batch component, and timer-softirq entry. The fault
  // injector uses it for trigger-event injection conditions ("fire on the
  // Nth grant op after T") so scenario fuzzing can land faults against
  // in-flight operations instead of only at wall positions.
  enum class OpEventKind { kHypercall, kMulticallComponent, kTimerSoftirq };
  using OpObserver =
      std::function<void(OpEventKind, HypercallCode, hw::CpuId)>;
  void SetOpObserver(OpObserver observer) {
    op_observer_ = std::move(observer);
  }
  void ClearOpObserver() { op_observer_ = nullptr; }

  // --- Error handling -------------------------------------------------------
  // Structured error delivery: the handler receives a DetectionEvent
  // instead of the old (CpuId, DetectionKind, string) triple.
  using ErrorHandler = std::function<void(const DetectionEvent&)>;
  void SetErrorHandler(ErrorHandler handler) { error_handler_ = std::move(handler); }
  // NMI hook (hang detector); invoked on every watchdog NMI.
  void SetNmiHook(std::function<void(hw::CpuId)> hook) { nmi_hook_ = std::move(hook); }
  // Reports a detected error (panic path or hang detector). The event's
  // `when` field is stamped with the current simulated time if unset.
  void ReportError(DetectionEvent event);
  // Convenience for raisers that only know kind + diagnostic text; the
  // failure code is inferred from the kind.
  void ReportError(hw::CpuId cpu, DetectionKind kind, const std::string& what);
  // True once an unrecoverable state was reached (no handler, or the
  // handler gave up): the platform is dead.
  bool dead() const { return dead_; }
  void MarkDead(FailureReason reason, const std::string& detail = "");
  FailureReason death_code() const { return death_code_; }
  const std::string& death_reason() const { return death_reason_; }
  // Reason of the most recent silent CPU hang (diagnostics).
  const std::string& last_hang_reason() const { return last_hang_reason_; }

  // --- Recovery support API (used by recovery/) ------------------------------
  // Freeze: disable interrupts everywhere, deliver the recovery IPI to all
  // other CPUs (incrementing their interrupt nesting level — they were
  // interrupted!), park them in busy-wait.
  void FreezeForRecovery(hw::CpuId detector);
  // Microreset core: discard every execution thread (reset all HV stacks).
  void DiscardAllHvStacks();
  // Resume: schedules un-freeze at `resume_at`, optionally reprogramming
  // every APIC timer from its software timer heap at that moment.
  void ResumeAfterRecovery(sim::Time resume_at, bool reprogram_apics);
  // Acks pending and in-service interrupts on every CPU (recovery step).
  void AckAllInterrupts();
  // Re-registers any missing recurring system timer events (NiLiHype
  // "Reactivate recurring timer events").
  int ReactivateRecurringEvents();
  // Re-inserts armed per-vCPU singleshot timers that are missing from the
  // heaps (from the authoritative Vcpu::vtimer_deadline field).
  void RearmVcpuTimers();
  // Makes sure every recurring system timer exists; used by ReHype reboot
  // (which cleared the heaps).
  void RebuildTimerSubsystem();
  bool frozen() const { return frozen_; }

  // Injected corruption of state the recovery routine itself depends on
  // (Section VII-A failure reason 1).
  void CorruptRecoveryPath() { recovery_path_ok_ = false; }
  bool recovery_path_ok() const { return recovery_path_ok_; }

  // --- State access (recovery, injection, tests, benches) --------------------
  hw::Platform& platform() { return platform_; }
  RuntimeOptions& options() { return config_.runtime; }
  StaticDataSegment& statics() { return statics_; }
  StaticLockRegistry& static_locks() { return static_locks_; }
  FrameTable& frames() { return frames_; }
  HvHeap& heap() { return heap_; }
  PerCpuList& percpu() { return percpu_; }
  PerCpuData& percpu(hw::CpuId c) { return percpu_[static_cast<std::size_t>(c)]; }
  std::vector<Vcpu>& vcpus() { return vcpus_; }
  Vcpu& vcpu(VcpuId v) { return vcpus_[static_cast<std::size_t>(v)]; }
  DomainTable& domains() { return domains_; }
  Domain* FindDomain(DomainId id) { return domains_.Find(id); }
  TimerHeap& timers(hw::CpuId c) { return *timers_[static_cast<std::size_t>(c)]; }
  const HvStats& stats() const { return stats_; }
  // Observability: this host's flight recorder, its one recording channel.
  forensics::FlightRecorder& flight_recorder() { return recorder_; }
  const forensics::FlightRecorder& flight_recorder() const { return recorder_; }
  // First DetectionEvent this host ever reported (survives recovery and
  // later detections; the correlator joins it against injection ground
  // truth). nullptr until a detection happens.
  const DetectionEvent* first_detection() const {
    return stats_.detections > 0 ? &first_detection_ : nullptr;
  }
  std::map<hw::Vector, DeviceBinding>& device_bindings() {
    return device_bindings_;
  }
  sim::Time Now() const { return platform_.queue().Now(); }
  // Whether the lazy per-CPU scheduler tick has been started (audit uses
  // this to know if a missing "sched_tick" heap entry is a lost event).
  bool sched_tick_enabled(hw::CpuId c) const {
    return sched_tick_enabled_[static_cast<std::size_t>(c)];
  }

  // Integrity observability: the mutation ledger all hypervisor structures
  // report legitimate mutations to (integrity/mutation_ledger.h). The epoch
  // monitor (integrity/monitor.h) compares per-surface hash advances
  // against it to flag unexplained drift.
  integrity::MutationLedger& integrity_ledger() { return ledger_; }
  const integrity::MutationLedger& integrity_ledger() const { return ledger_; }

  // Global static locks (registered in the static-lock segment).
  SpinLock& domlist_lock() { return domlist_lock_; }
  SpinLock& evtchn_lock() { return evtchn_lock_; }
  SpinLock& grant_lock() { return grant_lock_; }
  SpinLock& heap_lock() { return heap_lock_; }
  SpinLock& console_lock() { return console_lock_; }

  // --- Internals shared with recovery ----------------------------------------
  // Delivers a pending event port to a domain's notify vCPU and wakes it.
  void SendEventToPort(DomainId dom, EventPort port, OpContext* ctx);
  // Wakes a blocked vCPU (event arrival).
  void WakeVcpu(VcpuId v);
  // Runs the scheduler on `cpu` (softirq context). Returns the chosen vCPU.
  VcpuId Schedule(OpContext& ctx, hw::CpuId cpu);

  // Runtime (hypercall-driven) domain destruction support.
  void DestroyDomainInternal(OpContext& ctx, DomainId id);

  // --- Snapshot/restore (sim/state_image.h) ---------------------------------
  // The hypervisor's *control state*: internal bookkeeping a fault can
  // corrupt and neither NiLiHype's roll-forward repairs nor ReHype's
  // preserved subset can reconstruct — the static segment, lock states,
  // heap metadata, timer heaps, per-CPU blocks, device routing, and the
  // execution bookkeeping. This is what the snapres mechanism snapshots
  // and rolls back; guest-facing state (frame table, vCPUs, domains) is
  // preserved in place across a rollback, ReHype-style, and reconciled by
  // the roll-forward machinery (undo replay, frame scan, sched repair).
  template <typename V>
  void VisitControlState(V&& v) {
    statics_.VisitState(v);
    domlist_lock_.VisitState(v);
    evtchn_lock_.VisitState(v);
    grant_lock_.VisitState(v);
    heap_lock_.VisitState(v);
    console_lock_.VisitState(v);
    heap_.VisitState(v);
    for (PerCpuData& p : percpu_) p.VisitState(v);
    for (auto& t : timers_) t->VisitState(v);
    v(device_bindings_);
    v(recovery_path_ok_);
    v(slice_instructions_);
    v(busy_until_);
    v(need_resched_);
    v(sched_tick_enabled_);
  }

  // Guest-facing state: the frame table, vCPU array, and domain table. A
  // whole-system rewind (warm-fork campaign runner) restores this too; a
  // snapres rollback leaves it live.
  template <typename V>
  void VisitGuestFacingState(V&& v) {
    frames_.VisitState(v);
    // vCPU array: vCPUs are only ever appended (domain creation), so the
    // current array is always at least as long as the captured one. A
    // pruning restore truncates back; a non-pruning restore keeps
    // post-capture vCPUs so VcpuIds held by live guests stay in range.
    if constexpr (std::decay_t<V>::kSave) {
      v(vcpus_);
    } else {
      std::vector<Vcpu> saved;
      v(saved);
      // Assign in place, never swap buffers: vcpus_ was reserved to
      // kMaxVcpus at boot and references into it must stay stable
      // (Hypercall holds a Vcpu& across Dispatch, and a dispatched
      // domain-create appends to this array). Swapping in the loaded
      // vector would shrink capacity to size and make the next append
      // reallocate under that live reference.
      if (v.prune_new || saved.size() >= vcpus_.size()) {
        vcpus_.resize(saved.size());
      }
      std::copy(std::make_move_iterator(saved.begin()),
                std::make_move_iterator(saved.end()), vcpus_.begin());
    }
    domains_.VisitState(v);
  }

  // Full machine state (control + guest-facing), for whole-system images.
  template <typename V>
  void VisitState(V&& v) {
    VisitControlState(v);
    VisitGuestFacingState(v);
  }

  // Run-lifecycle state on top of the machine state: flags and counters a
  // *rollback inside one run* must not touch (a recovery rolling back
  // `dead_` or the detection history would erase the very failure being
  // recovered from), but a *warm-fork restore* (which rewinds the whole
  // run to a pre-injection epoch) must. Includes the counters: RunResult
  // classification reads stats().
  template <typename V>
  void VisitMetaState(V&& v) {
    v(booted_);
    v(frozen_);
    v(dead_);
    v(death_code_);
    v(death_reason_);
    v(last_hang_reason_);
    v(in_error_report_);
    v(first_detection_);
    v(next_domid_);
    v(stats_);
    // Mutation-ledger counters rewind with the whole run (warm fork) but
    // survive an in-run rollback: the epoch monitor rebaselines after every
    // recovery, so monotonicity across a rollback is harmless.
    ledger_.VisitState(v);
  }

 public:
  // --- Hypercall dispatch (exposed for the retry path and white-box tests) --
  std::uint64_t Dispatch(OpContext& ctx, Vcpu& vc, HypercallCode code,
                         const HypercallArgs& args);

 private:
  // --- IRQ / softirq paths ---------------------------------------------------
  sim::Duration HandleOneInterrupt(hw::CpuId cpu);
  void TimerSoftirq(OpContext& ctx, hw::CpuId cpu);
  void DeliverVirqTimer(VcpuId v);
  void IdlePoll(OpContext& ctx, hw::CpuId cpu);
  // Handlers (hypercalls.cc).
  std::uint64_t DoMmuUpdate(OpContext& ctx, Vcpu& vc, const HypercallArgs& a);
  std::uint64_t DoPin(OpContext& ctx, Vcpu& vc, std::uint64_t frame);
  std::uint64_t DoUnpin(OpContext& ctx, Vcpu& vc, std::uint64_t frame);
  std::uint64_t DoUpdateVaMapping(OpContext& ctx, Vcpu& vc, std::uint64_t frame,
                                  bool map);
  std::uint64_t DoMemoryOp(OpContext& ctx, Vcpu& vc, bool increase,
                           std::uint64_t nframes);
  std::uint64_t DoGrantMap(OpContext& ctx, Vcpu& vc, DomainId granter,
                           GrantRef ref);
  std::uint64_t DoGrantUnmap(OpContext& ctx, Vcpu& vc, DomainId granter,
                             GrantRef ref);
  std::uint64_t DoGrantCopy(OpContext& ctx, Vcpu& vc, DomainId granter,
                            GrantRef ref);
  std::uint64_t DoEventSend(OpContext& ctx, Vcpu& vc, EventPort port);
  std::uint64_t DoEventAllocUnbound(OpContext& ctx, Vcpu& vc, DomainId remote);
  std::uint64_t DoEventBind(OpContext& ctx, Vcpu& vc, DomainId remote,
                            EventPort remote_port);
  std::uint64_t DoEventClose(OpContext& ctx, Vcpu& vc, EventPort port);
  std::uint64_t DoSchedOp(OpContext& ctx, Vcpu& vc, HypercallCode code);
  std::uint64_t DoSetTimer(OpContext& ctx, Vcpu& vc, sim::Time deadline);
  std::uint64_t DoConsoleIo(OpContext& ctx, Vcpu& vc);
  std::uint64_t DoDomctlCreate(OpContext& ctx, Vcpu& vc,
                               const HypercallArgs& a);
  std::uint64_t DoDomctlDestroy(OpContext& ctx, Vcpu& vc, DomainId target);
  std::uint64_t DoDomctlUnpause(OpContext& ctx, Vcpu& vc, DomainId target);
  std::uint64_t DoMulticall(OpContext& ctx, Vcpu& vc, const HypercallArgs& a);
  std::uint64_t DoPhysdevOp(OpContext& ctx, Vcpu& vc);
  std::uint64_t DispatchVmExit(OpContext& ctx, Vcpu& vc, VmExitReason reason,
                               std::uint64_t arg);

  // --- Helpers ------------------------------------------------------------
  void RegisterRecurringTimers(hw::CpuId cpu);
  void EnsureRecurring(hw::CpuId cpu, const std::string& name,
                       sim::Duration period, std::function<void()> cb,
                       int* missing);
  void ProgramApicFromHeap(hw::CpuId cpu);
  void ChargeSlice(hw::CpuId cpu, std::uint64_t instructions);
  // Executes a retried request before the guest resumes (recovery set
  // needs_retry); returns instructions charged.
  void ExecuteRetry(hw::CpuId cpu, Vcpu& vc);
  void OnNmi(hw::CpuId cpu);
  void StartSchedTick(hw::CpuId cpu);
  VcpuId VcpuOnCpu(hw::CpuId cpu) const;

  hw::Platform& platform_;
  HvConfig config_;

  StaticDataSegment statics_;
  StaticLockRegistry static_locks_;
  SpinLock domlist_lock_{"domlist_lock"};
  SpinLock evtchn_lock_{"evtchn_lock"};
  SpinLock grant_lock_{"grant_lock"};
  SpinLock heap_lock_{"heap_lock"};
  SpinLock console_lock_{"console_lock"};

  integrity::MutationLedger ledger_;  // must outlive structures wired to it
  FrameTable frames_;
  HvHeap heap_;
  PerCpuList percpu_;
  std::vector<std::unique_ptr<TimerHeap>> timers_;
  std::vector<Vcpu> vcpus_;
  DomainTable domains_;
  DomainId next_domid_ = 0;
  std::map<hw::Vector, DeviceBinding> device_bindings_;

  ErrorHandler error_handler_;
  std::function<void(hw::CpuId)> nmi_hook_;
  OpObserver op_observer_;

  // Observability. The RecorderScope installs this host's flight recorder
  // as the thread-local current one for the lifetime of the Hypervisor
  // (runs are single-threaded; campaigns use one Hypervisor per worker
  // thread).
  forensics::FlightRecorder recorder_;
  forensics::RecorderScope recorder_scope_{&recorder_};
  HvStats stats_;

  bool booted_ = false;
  bool frozen_ = false;
  bool dead_ = false;
  FailureReason death_code_ = FailureReason::kNone;
  std::string death_reason_;
  std::string last_hang_reason_;
  bool recovery_path_ok_ = true;
  bool in_error_report_ = false;
  DetectionEvent first_detection_;  // valid once stats_.detections > 0

  // Cost accumulated by reentrant hypercall execution during a guest slice.
  std::vector<std::uint64_t> slice_instructions_;
  // Architectural busy horizon per CPU: a slice's work occupies simulated
  // time [start, busy_until); wakeups arriving inside that window defer.
  std::vector<sim::Time> busy_until_;
  std::vector<bool> need_resched_;
  std::vector<bool> sched_tick_enabled_;
};

}  // namespace nlh::hv
