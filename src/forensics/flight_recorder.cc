#include "forensics/flight_recorder.h"

#include <algorithm>
#include <cstdio>

#include "sim/json.h"

namespace nlh::forensics {

const char* EventKindName(EventKind k) {
  switch (k) {
    case EventKind::kHypercall: return "hypercall";
    case EventKind::kSchedule: return "schedule";
    case EventKind::kTimerSoftirq: return "timer_softirq";
    case EventKind::kRecovery: return "recovery";
    case EventKind::kRecoveryPhase: return "recovery_phase";
    case EventKind::kAuditSweep: return "audit_sweep";
    case EventKind::kAuditPass: return "audit_pass";
    case EventKind::kSyscallForward: return "syscall_forward";
    case EventKind::kVmExit: return "vm_exit";
    case EventKind::kIrqRaise: return "irq_raise";
    case EventKind::kIrqDeliver: return "irq_deliver";
    case EventKind::kIrqAck: return "irq_ack";
    case EventKind::kIpi: return "ipi";
    case EventKind::kNmi: return "nmi";
    case EventKind::kApicFire: return "apic_fire";
    case EventKind::kTimerFire: return "timer_fire";
    case EventKind::kSchedRepair: return "sched_repair";
    case EventKind::kLockAcquire: return "lock_acquire";
    case EventKind::kLockRelease: return "lock_release";
    case EventKind::kPanicRaised: return "panic_raised";
    case EventKind::kCpuHung: return "cpu_hung";
    case EventKind::kInjectionFired: return "injection_fired";
    case EventKind::kCorruptionApplied: return "corruption_applied";
    case EventKind::kDetection: return "detection";
    case EventKind::kDeath: return "death";
    case EventKind::kDomainCreate: return "domain_create";
    case EventKind::kDomainDestroy: return "domain_destroy";
    case EventKind::kIntegrityEpoch: return "integrity_epoch";
    case EventKind::kIntegrityDrift: return "integrity_drift";
    case EventKind::kCount: break;
  }
  return "?";
}

bool IsSpanKind(EventKind k) { return k <= EventKind::kAuditPass; }

std::string EventName(const FlightEvent& ev) {
  std::string name = EventKindName(ev.kind);
  if (!ev.detail.empty()) name += ":" + ev.detail;
  return name;
}

bool FlightRecorder::IsPinnedKind(EventKind kind) {
  switch (kind) {
    case EventKind::kRecovery:
    case EventKind::kRecoveryPhase:
    case EventKind::kSchedRepair:
    case EventKind::kPanicRaised:
    case EventKind::kCpuHung:
    case EventKind::kInjectionFired:
    case EventKind::kCorruptionApplied:
    case EventKind::kDetection:
    case EventKind::kDeath:
    case EventKind::kDomainCreate:
    case EventKind::kDomainDestroy:
      return true;
    default:
      return false;
  }
}

void FlightRecorder::Enable(int num_cpus, std::size_t per_cpu_capacity) {
  num_cpus_ = num_cpus < 0 ? 0 : num_cpus;
  capacity_ = per_cpu_capacity == 0 ? 1 : per_cpu_capacity;
  rings_.assign(static_cast<std::size_t>(num_cpus_) + 1, Ring{});
  pinned_.clear();
  pinned_dropped_ = 0;
  recorded_ = 0;
  seq_ = 0;
  open_.clear();
  detection_snapshot_.clear();
  enabled_ = true;
}

FlightRecorder::Ring& FlightRecorder::RingFor(int cpu) {
  if (cpu < 0 || cpu >= num_cpus_) return rings_.back();  // global ring
  return rings_[static_cast<std::size_t>(cpu)];
}

void FlightRecorder::Record(EventKind kind, int cpu, std::uint64_t arg0,
                            std::uint64_t arg1, std::string detail) {
  if (!enabled_) return;
  Record({.at = clock_ ? clock_() : 0,
          .kind = kind,
          .cpu = cpu,
          .arg0 = arg0,
          .arg1 = arg1,
          .detail = std::move(detail)});
}

void FlightRecorder::Record(FlightEvent ev) {
  if (!enabled_) return;
  ev.seq = ++seq_;
  Commit(std::move(ev));
}

std::uint64_t FlightRecorder::OpenSpan() {
  if (!enabled_) return 0;
  open_.push_back(++seq_);
  return open_.back();
}

void FlightRecorder::CloseSpan(std::uint64_t id, FlightEvent ev) {
  if (!enabled_ || id == 0) return;
  while (!open_.empty() && open_.back() != id) open_.pop_back();
  if (!open_.empty()) open_.pop_back();
  ev.seq = id;
  Commit(std::move(ev));
}

void FlightRecorder::Commit(FlightEvent ev) {
  ev.parent = open_.empty() ? 0 : open_.back();
  if (IsPinnedKind(ev.kind)) {
    if (pinned_.size() < kPinnedCapacity) {
      pinned_.push_back(ev);
    } else {
      ++pinned_dropped_;
    }
  }
  Ring& ring = RingFor(ev.cpu);
  if (ring.slots.size() < capacity_) {
    ring.slots.push_back(std::move(ev));
  } else {
    ring.slots[ring.next] = std::move(ev);
    ring.next = (ring.next + 1) % capacity_;
  }
  ++ring.count;
  ++recorded_;
}

std::vector<FlightEvent> FlightRecorder::RingSnapshot(const Ring& ring) {
  std::vector<FlightEvent> out;
  out.reserve(ring.slots.size());
  // Once wrapped, `next` points at the oldest slot.
  if (ring.count > ring.slots.size()) {
    out.insert(out.end(),
               ring.slots.begin() + static_cast<std::ptrdiff_t>(ring.next),
               ring.slots.end());
    out.insert(out.end(), ring.slots.begin(),
               ring.slots.begin() + static_cast<std::ptrdiff_t>(ring.next));
  } else {
    out = ring.slots;
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::SnapshotCpu(int cpu) const {
  if (rings_.empty() || cpu >= num_cpus_) return {};
  return RingSnapshot(cpu < 0 ? rings_.back()
                              : rings_[static_cast<std::size_t>(cpu)]);
}

std::vector<FlightEvent> FlightRecorder::Retained() const {
  // A pinned event is in its ring too until the ring wraps past it.
  std::vector<FlightEvent> out = pinned_;
  for (const Ring& ring : rings_) {
    for (FlightEvent& ev : RingSnapshot(ring)) out.push_back(std::move(ev));
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.at != b.at ? a.at < b.at : a.seq < b.seq;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const FlightEvent& a, const FlightEvent& b) {
                          return a.seq == b.seq;
                        }),
            out.end());
  return out;
}

std::uint64_t FlightRecorder::dropped() const {
  std::uint64_t d = 0;
  for (const Ring& r : rings_) {
    if (r.count > r.slots.size()) d += r.count - r.slots.size();
  }
  return d;
}

std::string FlightRecorder::PinnedText() const {
  std::string out;
  char buf[64];
  for (const FlightEvent& ev : pinned_) {
    const std::string cpu = ev.cpu < 0 ? "-" : "cpu" + std::to_string(ev.cpu);
    std::snprintf(buf, sizeof(buf), "  [%10.3f ms] %-18s %-5s ",
                  sim::ToMillisF(ev.at), EventKindName(ev.kind), cpu.c_str());
    out += buf;
    out += ev.detail;
    if (IsSpanKind(ev.kind)) {
      std::snprintf(buf, sizeof(buf), " (%.3f ms)", sim::ToMillisF(ev.dur));
      out += buf;
    }
    while (out.back() == ' ') out.pop_back();  // no detail: no padding
    out += '\n';
  }
  return out;
}

void FlightRecorder::SetDetectionSnapshot(std::string json) {
  if (detection_snapshot_.empty()) detection_snapshot_ = std::move(json);
}

namespace {

void AppendEventsJson(std::string& out, const std::vector<FlightEvent>& evs) {
  out += "[";
  bool first = true;
  for (const FlightEvent& ev : evs) {
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":" + std::to_string(ev.seq) +
           ",\"parent\":" + std::to_string(ev.parent) +
           ",\"t_ns\":" + std::to_string(ev.at) +
           ",\"dur_ns\":" + std::to_string(ev.dur) +
           ",\"kind\":" + sim::JsonStr(EventKindName(ev.kind)) +
           ",\"abandoned\":" + (ev.abandoned ? "true" : "false") +
           ",\"cpu\":" + std::to_string(ev.cpu) +
           ",\"arg0\":" + std::to_string(ev.arg0) +
           ",\"arg1\":" + std::to_string(ev.arg1) +
           ",\"arg2\":" + std::to_string(ev.arg2) +
           ",\"detail\":" + sim::JsonStr(ev.detail) + "}";
  }
  out += "]";
}

}  // namespace

std::string FlightRecorder::ToJson() const {
  std::string out = "{\"dropped\":" + std::to_string(dropped()) +
                    ",\"pinned_dropped\":" + std::to_string(pinned_dropped_) +
                    ",\"detection_snapshot\":";
  out += detection_snapshot_.empty() ? "null" : detection_snapshot_;
  out += ",\"pinned\":";
  AppendEventsJson(out, pinned_);
  out += ",\"global\":";
  AppendEventsJson(out, rings_.empty() ? std::vector<FlightEvent>{}
                                       : RingSnapshot(rings_.back()));
  out += ",\"per_cpu\":[";
  for (int c = 0; c < num_cpus_; ++c) {
    if (c) out += ",";
    AppendEventsJson(out, RingSnapshot(rings_[static_cast<std::size_t>(c)]));
  }
  out += "]}";
  return out;
}

std::string FlightRecorder::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  for (const FlightEvent& ev : Retained()) {
    if (out.back() != '[') out += ",";
    out += "{\"name\":" + sim::JsonStr(EventName(ev)) +
           ",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":" +
           sim::JsonNum(static_cast<double>(ev.at) / sim::kMicrosecond) +
           ",\"dur\":" +
           sim::JsonNum(static_cast<double>(ev.dur) / sim::kMicrosecond) +
           ",\"pid\":1,\"tid\":" + std::to_string(ev.cpu) +
           ",\"args\":{\"seq\":" + std::to_string(ev.seq) +
           ",\"parent\":" + std::to_string(ev.parent) +
           ",\"abandoned\":" + (ev.abandoned ? "true" : "false") +
           ",\"arg0\":" + std::to_string(ev.arg0) +
           ",\"arg1\":" + std::to_string(ev.arg1) +
           ",\"arg2\":" + std::to_string(ev.arg2) + "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace nlh::forensics
