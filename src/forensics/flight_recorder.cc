#include "forensics/flight_recorder.h"

#include <cstdio>

#include "sim/json.h"

namespace nlh::forensics {

const char* EventKindName(EventKind k) {
  switch (k) {
    case EventKind::kHypercallEnter: return "hypercall_enter";
    case EventKind::kHypercallExit: return "hypercall_exit";
    case EventKind::kSyscallForward: return "syscall_forward";
    case EventKind::kVmExit: return "vm_exit";
    case EventKind::kIrqRaise: return "irq_raise";
    case EventKind::kIrqDeliver: return "irq_deliver";
    case EventKind::kIrqAck: return "irq_ack";
    case EventKind::kIpi: return "ipi";
    case EventKind::kNmi: return "nmi";
    case EventKind::kApicFire: return "apic_fire";
    case EventKind::kTimerFire: return "timer_fire";
    case EventKind::kSchedule: return "sched_decision";
    case EventKind::kSchedRepair: return "sched_repair";
    case EventKind::kLockAcquire: return "lock_acquire";
    case EventKind::kLockRelease: return "lock_release";
    case EventKind::kPanicRaised: return "panic_raised";
    case EventKind::kCpuHung: return "cpu_hung";
    case EventKind::kInjectionFired: return "injection_fired";
    case EventKind::kCorruptionApplied: return "corruption_applied";
    case EventKind::kDetection: return "detection";
    case EventKind::kRecoveryPhase: return "recovery_phase";
    case EventKind::kDeath: return "death";
    case EventKind::kDomainCreate: return "domain_create";
    case EventKind::kDomainDestroy: return "domain_destroy";
    case EventKind::kCount: break;
  }
  return "?";
}

bool FlightRecorder::IsPinnedKind(EventKind kind) {
  switch (kind) {
    case EventKind::kSchedRepair:
    case EventKind::kPanicRaised:
    case EventKind::kCpuHung:
    case EventKind::kInjectionFired:
    case EventKind::kCorruptionApplied:
    case EventKind::kDetection:
    case EventKind::kRecoveryPhase:
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
  FlightEvent ev;
  ev.seq = seq_++;
  ev.at = clock_ ? clock_() : 0;
  ev.kind = kind;
  ev.cpu = cpu;
  ev.arg0 = arg0;
  ev.arg1 = arg1;
  ev.detail = std::move(detail);
  if (IsPinnedKind(kind)) {
    if (pinned_.size() < kPinnedCapacity) {
      pinned_.push_back(ev);
    } else {
      ++pinned_dropped_;
    }
  }
  Ring& ring = RingFor(cpu);
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
  if (rings_.empty()) return {};
  if (cpu >= num_cpus_) return {};
  const Ring& ring =
      cpu < 0 ? rings_.back() : rings_[static_cast<std::size_t>(cpu)];
  return RingSnapshot(ring);
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
    if (ev.kind == EventKind::kRecoveryPhase) {
      std::snprintf(buf, sizeof(buf), " (%.3f ms)",
                    sim::ToMillisF(static_cast<sim::Duration>(ev.arg1)));
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
           ",\"t_ns\":" + std::to_string(ev.at) +
           ",\"kind\":" + sim::JsonStr(EventKindName(ev.kind)) +
           ",\"cpu\":" + std::to_string(ev.cpu) +
           ",\"arg0\":" + std::to_string(ev.arg0) +
           ",\"arg1\":" + std::to_string(ev.arg1) +
           ",\"detail\":" + sim::JsonStr(ev.detail) + "}";
  }
  out += "]";
}

}  // namespace

void FlightRecorder::AppendRingJson(std::string& out, const Ring& ring) {
  AppendEventsJson(out, RingSnapshot(ring));
}

std::string FlightRecorder::ToJson() const {
  std::string out = "{\"dropped\":" + std::to_string(dropped()) +
                    ",\"pinned_dropped\":" + std::to_string(pinned_dropped_) +
                    ",\"detection_snapshot\":";
  out += detection_snapshot_.empty() ? "null" : detection_snapshot_;
  out += ",\"pinned\":";
  AppendEventsJson(out, pinned_);
  out += ",\"global\":";
  if (rings_.empty()) {
    out += "[]";
  } else {
    AppendRingJson(out, rings_.back());
  }
  out += ",\"per_cpu\":[";
  for (int c = 0; c < num_cpus_; ++c) {
    if (c) out += ",";
    AppendRingJson(out, rings_[static_cast<std::size_t>(c)]);
  }
  out += "]}";
  return out;
}

}  // namespace nlh::forensics
