// FlightRecorder: fixed-capacity per-CPU ring buffers of typed,
// simulated-time-stamped events — the "black box" a FailureDossier reads
// out after a failed run (ReHype's failure-class analysis reconstructs the
// event sequence leading to the crash; this records it as it happens).
// It is a run's only recording channel: spans (hypercalls, schedules,
// recoveries and their phases, audit sweeps) are events too, and the
// Chrome trace, the collapsed-stack profile and the narrative are all
// printed from what it holds.
//
// Recording sites are woven through hw/, hv/, inject/, detect/, audit/,
// integrity/ and recovery/ behind the NLH_RECORD(...) macro
// (forensics/record.h) or the span calls below. The recorder stamps an
// instant's simulated time itself via an injected clock callback, so
// call-sites never need a time source.
//
// Hardware-layer components (SpinLock, ApicTimer, InterruptController)
// have no back-pointer to the hypervisor that owns the recorder; instead a
// thread-local "current recorder" pointer is installed by RecorderScope,
// which the owning Hypervisor holds for its lifetime. This is safe because
// the simulator is single-threaded within one run (campaigns parallelize
// across runs, each worker thread constructing and destroying its own
// TargetSystem, and therefore its own recorder, on that thread).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace nlh::forensics {

// Event taxonomy. Dossiers carry the slug (EventKindName), never the
// number, so kinds may be reordered, merged or deleted; a slug that was
// written keeps its meaning.
enum class EventKind : std::uint8_t {
  // Spans: one event each, recorded when the span closes (see FlightEvent).
  // They come first: IsSpanKind() tests k <= kAuditPass.
  kHypercall = 0,  // one hypercall (arg0=code, arg1=vCPU, arg2=return value
                   // unless abandoned; detail=name)
  kSchedule,       // one schedule() (arg0=prev+1, arg1=next+1; 0=none)
  kTimerSoftirq,   // one timer softirq
  kRecovery,       // one recovery, detection to resume (detail=mechanism)
  kRecoveryPhase,  // one recovery step (detail=phase slug)
  kAuditSweep,     // one full state-audit sweep
  kAuditPass,      // one subsystem's audit pass (detail=subsystem slug)
  // Instants.
  kSyscallForward,
  kVmExit,
  kIrqRaise,       // vector became pending (IRR set)
  kIrqDeliver,     // vector accepted for handling
  kIrqAck,         // recovery AckAll swept a CPU's IRR/ISR
  kIpi,            // inter-processor interrupt sent
  kNmi,            // watchdog NMI sampled a CPU (arg0=count, arg1=misses)
  kApicFire,       // one-shot APIC timer expired
  kTimerFire,      // software timer popped from the heap
  kSchedRepair,    // scheduler-metadata repair pass (arg0=fixes)
  kLockAcquire,
  kLockRelease,
  kPanicRaised,    // HvPanic constructed (about to unwind)
  kCpuHung,        // CPU marked hung (silent; watchdog must notice)
  kInjectionFired,     // ground truth: the injected fault fired
  kCorruptionApplied,  // ground truth: one corruption action (arg0=target)
  kDetection,      // a detector reported an error (arg0=kind, arg1=code)
  kDeath,          // platform marked dead (arg0=FailureReason)
  kDomainCreate,
  kDomainDestroy,
  kIntegrityEpoch,  // one integrity-ladder epoch (arg0=epoch)
  kIntegrityDrift,  // unexplained drift (arg0=epoch, arg1=surface,
                    // detail=surface slug)
  kCount,
};

const char* EventKindName(EventKind k);
bool IsSpanKind(EventKind k);

// One recorded fact. A span is one event too: `at` is its start, `dur` its
// simulated length, and `parent` links it to the span that encloses it, so
// a profile can rebuild its frame path.
struct FlightEvent {
  std::uint64_t seq = 0;     // order events began, from 1 (a span takes its
                             // seq when it opens: the seq is its id)
  std::uint64_t parent = 0;  // seq of the innermost open span; 0 = none
  sim::Time at = 0;          // simulated time (a span's start)
  sim::Duration dur = 0;     // a span's simulated length; 0 for an instant
  EventKind kind = EventKind::kCount;
  bool abandoned = false;    // a fault unwound the span before it finished
  int cpu = -1;              // -1 = not CPU-local (global ring)
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint64_t arg2 = 0;
  std::string detail;
};

// "kind" or "kind:detail": an event's name in the Chrome trace and the
// profile's frames.
std::string EventName(const FlightEvent& ev);

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  // Allocates one ring per CPU plus one "global" ring for events that are
  // not CPU-local (cpu = -1). Re-enabling clears all rings.
  void Enable(int num_cpus, std::size_t per_cpu_capacity = kDefaultCapacity);
  bool enabled() const { return enabled_; }

  // Injected simulated-time source (the owning hypervisor's Now()).
  void SetClock(std::function<sim::Time()> clock) { clock_ = std::move(clock); }

  // An instant, stamped with the clock.
  void Record(EventKind kind, int cpu, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0, std::string detail = {});
  // `ev` as given (its kind, cpu, time, length and arguments): an instant,
  // or a complete span whose length is known up front (a modeled latency).
  // Either way it sits inside the innermost open span.
  void Record(FlightEvent ev);

  // Spans whose length is known when they close. OpenSpan() opens one
  // inside the innermost open span and returns its id (0 when disabled);
  // CloseSpan() records it once, as `ev`, and closes any span left open
  // inside it unrecorded.
  std::uint64_t OpenSpan();
  void CloseSpan(std::uint64_t id, FlightEvent ev);

  // Ring contents oldest-first. cpu = -1 returns the global ring; an
  // out-of-range cpu returns empty.
  std::vector<FlightEvent> SnapshotCpu(int cpu) const;
  // Every event still held, once: the pinned channel plus what the rings
  // keep, ordered by (at, seq). The Chrome trace and the profile read this.
  std::vector<FlightEvent> Retained() const;

  // Rare, high-value events (injection ground truth, detections, recoveries
  // and their steps, panics, domain lifecycle, death) are also copied to this
  // pinned channel, which never wraps: hours of hot-path chatter cannot
  // displace the handful of events a dossier is actually about. Bounded by
  // kPinnedCapacity (overflow counted in pinned_dropped()).
  static constexpr std::size_t kPinnedCapacity = 1024;
  static bool IsPinnedKind(EventKind kind);
  const std::vector<FlightEvent>& pinned() const { return pinned_; }
  std::uint64_t pinned_dropped() const { return pinned_dropped_; }
  // The run's narrative: one line per pinned event in record order —
  // simulated time, kind slug, cpu and detail (plus the modeled latency of
  // a span). Empty when nothing was pinned.
  std::string PinnedText() const;

  std::uint64_t recorded() const { return recorded_; }
  // Events lost to ring overwrite, across all rings.
  std::uint64_t dropped() const;

  // Register/per-CPU state captured at the first detection of the run
  // (pre-formatted JSON, assembled by Hypervisor::ReportError so the
  // forensics layer stays independent of hw/hv headers). Empty until set;
  // only the first capture sticks.
  void SetDetectionSnapshot(std::string json);
  bool has_detection_snapshot() const { return !detection_snapshot_.empty(); }
  const std::string& detection_snapshot() const { return detection_snapshot_; }

  // {"dropped":N,"pinned_dropped":N,"detection_snapshot":{...}|null,
  //  "pinned":[...],"global":[...],"per_cpu":[[...],...]} — events as
  // {"seq":..,"t_ns":..,"kind":"..","cpu":..,"arg0":..,"arg1":..,
  //  "detail":".."}. All-integer timestamps keep the output byte-stable.
  std::string ToJson() const;

  // Chrome trace_event JSON of Retained(): {"traceEvents":[{"ph":"X",...}]},
  // ts/dur in microseconds of simulated time, tid = cpu, args = seq, parent
  // and the arguments. An instant is a zero-length event.
  std::string ToChromeJson() const;

 private:
  struct Ring {
    std::vector<FlightEvent> slots;  // filled up to capacity, then wraps
    std::size_t next = 0;            // oldest slot once wrapped
    std::uint64_t count = 0;         // total events pushed
  };

  Ring& RingFor(int cpu);
  void Commit(FlightEvent ev);
  static std::vector<FlightEvent> RingSnapshot(const Ring& ring);

  bool enabled_ = false;
  int num_cpus_ = 0;
  std::size_t capacity_ = kDefaultCapacity;
  std::vector<Ring> rings_;  // [0..num_cpus) per-CPU, [num_cpus] global
  std::vector<FlightEvent> pinned_;
  std::uint64_t pinned_dropped_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<std::uint64_t> open_;  // ids of the open spans, innermost last
  std::function<sim::Time()> clock_;
  std::string detection_snapshot_;
};

// --- Thread-local current recorder -----------------------------------------
// Installed by the owning Hypervisor via RecorderScope; read by NLH_RECORD.
inline thread_local FlightRecorder* t_current_recorder = nullptr;

inline FlightRecorder* CurrentRecorder() { return t_current_recorder; }
inline void SetCurrentRecorder(FlightRecorder* r) { t_current_recorder = r; }

// RAII installer. Restores the previous recorder on destruction; tolerant
// of non-LIFO destruction orders (it only uninstalls itself if it is still
// the current one), so overlapping Hypervisor lifetimes in tests are safe.
class RecorderScope {
 public:
  explicit RecorderScope(FlightRecorder* r)
      : mine_(r), prev_(CurrentRecorder()) {
    SetCurrentRecorder(r);
  }
  ~RecorderScope() {
    if (CurrentRecorder() == mine_) SetCurrentRecorder(prev_);
  }

  RecorderScope(const RecorderScope&) = delete;
  RecorderScope& operator=(const RecorderScope&) = delete;

 private:
  FlightRecorder* mine_;
  FlightRecorder* prev_;
};

}  // namespace nlh::forensics
