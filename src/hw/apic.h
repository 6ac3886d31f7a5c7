// Per-CPU local APIC timer, modeled as a one-shot timer.
//
// Xen programs the APIC timer for the deadline of the top node of its
// software timer heap; after the timer fires it stays silent until
// reprogrammed. The window between "fired" and "reprogrammed" is exactly the
// vulnerability that the NiLiHype "Reprogram hardware timer" enhancement
// closes (Section V-A): a fault in that window without the enhancement
// leaves the CPU without timer interrupts forever.
#pragma once

#include <functional>

#include "forensics/record.h"
#include "hw/cpu.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace nlh::hw {

class ApicTimer {
 public:
  // `on_fire` is invoked (from the event queue) when the timer expires;
  // the platform routes it to the interrupt controller as the timer vector.
  ApicTimer(sim::EventQueue& queue, CpuId cpu, std::function<void(CpuId)> on_fire)
      : queue_(queue), cpu_(cpu), on_fire_(std::move(on_fire)) {}

  ApicTimer(const ApicTimer&) = delete;
  ApicTimer& operator=(const ApicTimer&) = delete;

  // One-shot: arms the timer for the absolute simulated time `deadline`.
  // Reprogramming while armed replaces the previous deadline.
  void Program(sim::Time deadline) {
    queue_.Cancel(pending_);
    armed_ = true;
    deadline_ = deadline;
    pending_ = queue_.ScheduleAt(deadline, [this] { Fire(); });
  }

  // Disarms without firing (used during recovery halt).
  void Stop() {
    queue_.Cancel(pending_);
    pending_ = sim::kInvalidEvent;
    armed_ = false;
  }

  bool armed() const { return armed_; }
  sim::Time deadline() const { return deadline_; }

  // Snapshot/restore (sim/state_image.h). Only valid as part of a
  // full-system restore that also restores the event queue: `pending_` is
  // an EventId into the queue, meaningless on any other timeline.
  template <typename V>
  void VisitState(V&& v) {
    v(pending_);
    v(armed_);
    v(deadline_);
  }

 private:
  void Fire() {
    NLH_RECORD(forensics::EventKind::kApicFire, cpu_,
               static_cast<std::uint64_t>(deadline_));
    pending_ = sim::kInvalidEvent;
    armed_ = false;  // one-shot: silent until reprogrammed
    on_fire_(cpu_);
  }

  sim::EventQueue& queue_;
  CpuId cpu_;
  std::function<void(CpuId)> on_fire_;
  sim::EventId pending_ = sim::kInvalidEvent;
  bool armed_ = false;
  sim::Time deadline_ = 0;
};

}  // namespace nlh::hw
