// Virtual hardware devices hosted by the PrivVM, and the external network
// peer used by NetBench.
//
// Devices are "hardware": they live on the event queue, raise interrupt
// vectors, and keep running while the hypervisor is frozen (completions and
// packets latch or drop, exactly like a real NIC during the recovery
// window). The NetPeer runs on a separate physical host (Section VI-A), so
// it also measures the service interruption the paper uses for its
// recovery-latency numbers (Section VII-B).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "hw/interrupt_controller.h"
#include "hw/platform.h"
#include "sim/time.h"

namespace nlh::guest {

// A disk with fixed access latency. The backend submits an operation and
// gets an interrupt when it completes.
class VirtualDisk {
 public:
  VirtualDisk(hw::Platform& platform, hw::CpuId irq_cpu,
              sim::Duration access_latency = sim::Microseconds(80))
      : platform_(platform), irq_cpu_(irq_cpu), latency_(access_latency) {}

  // Submits the operation identified by `tag`; after the access latency the
  // tag is placed on the completion queue and the block IRQ is raised.
  void Submit(std::uint64_t tag) {
    ++in_flight_;
    platform_.queue().ScheduleAfter(latency_, [this, tag] {
      --in_flight_;
      completed_.push_back(tag);
      platform_.intc().Raise(irq_cpu_, hw::vec::kBlk);
      ArmReassert();
    });
  }

  bool PopCompletion(std::uint64_t* tag) {
    if (completed_.empty()) return false;
    *tag = completed_.front();
    completed_.pop_front();
    return true;
  }

  // The interrupt line is level-triggered: while completions sit unserviced
  // the device keeps asserting, so an interrupt "acknowledged away" during
  // hypervisor recovery is re-raised rather than lost.
  void ArmReassert() {
    if (reassert_armed_) return;
    reassert_armed_ = true;
    platform_.queue().ScheduleAfter(sim::Milliseconds(1), [this] {
      reassert_armed_ = false;
      if (!completed_.empty()) {
        platform_.intc().Raise(irq_cpu_, hw::vec::kBlk);
        ArmReassert();
      }
    });
  }

  int in_flight() const { return in_flight_; }
  sim::Duration latency() const { return latency_; }

  // Snapshot/restore (sim/state_image.h); in-flight completion events live
  // in the event queue, restored alongside.
  template <typename V>
  void VisitState(V&& v) {
    v(completed_);
    v(in_flight_);
    v(reassert_armed_);
  }

 private:
  hw::Platform& platform_;
  hw::CpuId irq_cpu_;
  sim::Duration latency_;
  std::deque<std::uint64_t> completed_;
  int in_flight_ = 0;
  bool reassert_armed_ = false;
};

// The NIC: receives frames from the external peer into a bounded RX queue
// (overflow drops, as on real hardware) and transmits frames back onto the
// wire with a fixed propagation delay.
class VirtualNic {
 public:
  VirtualNic(hw::Platform& platform, hw::CpuId irq_cpu,
             sim::Duration wire_latency = sim::Microseconds(50))
      : platform_(platform), irq_cpu_(irq_cpu), wire_latency_(wire_latency) {}

  void SetPeerReceive(std::function<void(std::uint64_t seq, sim::Time sent_at)> fn) {
    peer_receive_ = std::move(fn);
  }

  // Wire -> host.
  void DeliverFromWire(std::uint64_t seq, sim::Time sent_at) {
    if (rx_queue_.size() >= kRxDepth) {
      ++rx_dropped_;
      return;
    }
    rx_queue_.push_back({seq, sent_at});
    platform_.intc().Raise(irq_cpu_, hw::vec::kNet);
    ArmReassert();
  }

  // Level-triggered semantics (see VirtualDisk::ArmReassert).
  void ArmReassert() {
    if (reassert_armed_) return;
    reassert_armed_ = true;
    platform_.queue().ScheduleAfter(sim::Milliseconds(1), [this] {
      reassert_armed_ = false;
      if (!rx_queue_.empty()) {
        platform_.intc().Raise(irq_cpu_, hw::vec::kNet);
        ArmReassert();
      }
    });
  }

  bool PopRx(std::uint64_t* seq, sim::Time* sent_at) {
    if (rx_queue_.empty()) return false;
    *seq = rx_queue_.front().first;
    *sent_at = rx_queue_.front().second;
    rx_queue_.pop_front();
    return true;
  }

  // Host -> wire.
  void Transmit(std::uint64_t seq, sim::Time sent_at) {
    platform_.queue().ScheduleAfter(wire_latency_, [this, seq, sent_at] {
      if (peer_receive_) peer_receive_(seq, sent_at);
    });
  }

  std::uint64_t rx_dropped() const { return rx_dropped_; }

  template <typename V>
  void VisitState(V&& v) {
    v(rx_queue_);
    v(rx_dropped_);
    v(reassert_armed_);
  }

 private:
  static constexpr std::size_t kRxDepth = 256;
  hw::Platform& platform_;
  hw::CpuId irq_cpu_;
  sim::Duration wire_latency_;
  std::deque<std::pair<std::uint64_t, sim::Time>> rx_queue_;
  std::function<void(std::uint64_t, sim::Time)> peer_receive_;
  std::uint64_t rx_dropped_ = 0;
  bool reassert_armed_ = false;
};

// The NetBench sender on a separate physical host (Section VI-A): sends a
// UDP packet every millisecond and records when the reply to each arrives.
class NetPeer {
 public:
  NetPeer(hw::Platform& platform, VirtualNic& nic,
          sim::Duration period = sim::Milliseconds(1))
      : platform_(platform), nic_(nic), period_(period) {
    nic_.SetPeerReceive([this](std::uint64_t seq, sim::Time sent_at) {
      OnReply(seq, sent_at);
    });
  }

  void Start(sim::Time until) {
    stop_at_ = until;
    SendNext();
  }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }
  sim::Duration period() const { return period_; }

  // Longest interval between consecutive replies — the paper's
  // service-interruption measurement (Section VII-B).
  sim::Duration MaxGap() const {
    sim::Duration max_gap = 0;
    for (std::size_t i = 1; i < reply_times_.size(); ++i) {
      max_gap = std::max(max_gap, reply_times_[i] - reply_times_[i - 1]);
    }
    return max_gap;
  }

  // NetBench failure criterion (Section VI-A): the reception rate in some
  // one-second window dropped more than 10% below the nominal rate.
  // `exclude_from`/`exclude_to` optionally excludes the recovery window
  // (service interruption is reported separately as latency).
  bool RateDropped(double threshold = 0.10, sim::Time exclude_from = -1,
                   sim::Time exclude_to = -1) const;

  template <typename V>
  void VisitState(V&& v) {
    v(stop_at_);
    v(sent_);
    v(received_);
    v(reply_times_);
  }

 private:
  void SendNext() {
    if (platform_.Now() >= stop_at_) return;
    ++sent_;
    nic_.DeliverFromWire(sent_, platform_.Now());
    platform_.queue().ScheduleAfter(period_, [this] { SendNext(); });
  }

  void OnReply(std::uint64_t seq, sim::Time sent_at) {
    (void)seq;
    (void)sent_at;
    ++received_;
    reply_times_.push_back(platform_.Now());
  }

  hw::Platform& platform_;
  VirtualNic& nic_;
  sim::Duration period_;
  sim::Time stop_at_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::vector<sim::Time> reply_times_;
};

}  // namespace nlh::guest
