// The privileged VM (Dom0): PV block/net backends and the toolstack.
//
// The PrivVM hosts the device drivers (Section III-A): it maps frontend
// grants, drives the virtual disk and NIC, and pushes responses back
// through the shared rings. It also runs the toolstack, which creates new
// domains via domctl hypercalls — the post-recovery VM-creation check of
// the 3AppVM setup goes through this exact path.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "guest/devices.h"
#include "guest/guest_kernel.h"
#include "guest/io_rings.h"

namespace nlh::guest {

class PrivVmKernel : public GuestKernel {
 public:
  PrivVmKernel(hv::Hypervisor& hv, std::uint64_t seed)
      : GuestKernel(hv, "PrivVM", seed) {}

  void AttachDisk(VirtualDisk* disk) { disk_ = disk; }
  void AttachNic(VirtualNic* nic) { nic_ = nic; }

  // Connects a frontend's block ring. `notify_port` is the PrivVM-local
  // event port used to kick the frontend with responses.
  void ConnectBlkFrontend(hv::DomainId frontend, BlkRing* ring,
                          hv::EventPort notify_port);
  // `rx_gref`/`tx_gref` are the frontend's pre-granted packet buffers the
  // backend grant-copies through.
  void ConnectNetFrontend(hv::DomainId frontend, NetRxRing* rx, NetTxRing* tx,
                          hv::EventPort notify_port, hv::GrantRef rx_gref,
                          hv::GrantRef tx_gref);

  // --- Toolstack -----------------------------------------------------------
  // Factory invoked after domctl_create returns, to build and attach the
  // new VM's guest kernel (owned by the caller/core layer).
  using VmFactory = std::function<void(hv::DomainId)>;
  void SetVmFactory(VmFactory factory) { vm_factory_ = std::move(factory); }
  // Asks the toolstack to create a VM; `done` fires after unpause.
  void RequestCreateVm(hw::CpuId pin_cpu, std::uint64_t frames,
                       std::function<void(hv::DomainId)> done);

  // --- Fault-injection surface ---------------------------------------------
  // A wild hypervisor write into PrivVM state crashes the PrivVM kernel the
  // next time it runs.
  void CorruptKernelState() { kernel_state_corrupted_ = true; }
  // Backend-queue corruption: the in-flight backend op is silently dropped
  // (the popped request never gets a response — a lost response from the
  // frontend's point of view). Returns whether an op was actually dropped.
  bool CorruptBackendQueue(sim::Rng& rng);
  // Ring-pointer desync: a wild write lands in the shared ring page and
  // knocks one of the producer/consumer indices away from the live entry
  // window. Returns whether a ring was hit.
  bool CorruptRingCounters(sim::Rng& rng);
  // Duplicate grant ref: a corrupted ring entry re-surfaces an already
  // queued (or in-flight) request, so the backend serves the same grant
  // twice. Returns whether a duplicate was planted.
  bool InjectDuplicateRingRequest(sim::Rng& rng);

  // --- PrivVM recovery surface ---------------------------------------------
  // Microreboot (recovery::PrivVmRecovery): clears the crash/corruption
  // state and abandons every in-flight backend pipeline op, leaving the
  // connection tables and served-I/O counters in place. Ring repair and
  // grant reclamation happen in the recovery mechanism, which sees the
  // surviving frontend state; this only resets the component itself.
  void ResetForRecovery();
  bool kernel_state_corrupted() const { return kernel_state_corrupted_; }

  std::uint64_t ios_served() const { return ios_served_; }
  std::uint64_t packets_forwarded() const { return packets_forwarded_; }

  // Snapshot/restore (sim/state_image.h). Connection tables are included:
  // they grow when the toolstack attaches a newly created VM's frontend,
  // which a rewind must undo. The embedded std::functions (CreateOp::done)
  // capture pointers into objects that outlive restores.
  template <typename V>
  void VisitState(V&& v) {
    GuestKernel::VisitState(v);
    v(blk_conns_);
    v(net_conns_);
    v(blk_op_);
    v(net_rx_op_);
    v(net_tx_op_);
    v(create_);
    v(next_disk_tag_);
    v(ios_served_);
    v(packets_forwarded_);
    v(ops_since_rebalance_);
    v(rebalance_pending_);
    v(kernel_state_corrupted_);
  }

  struct BlkConn {
    hv::DomainId frontend = hv::kInvalidDomain;
    BlkRing* ring = nullptr;
    hv::EventPort notify_port = hv::kInvalidPort;
  };
  // One in-flight backend operation (sequential pipeline).
  struct BlkOp {
    bool active = false;
    int conn = -1;
    BlkRequest req;
    int phase = 0;  // 0 map, 1 wait disk, 2 copy, 3 unmap, 4 respond, 5 kick
    std::uint64_t disk_tag = 0;
    bool disk_done = false;
  };

  // Read access for the PrivVM recovery path and the backend auditor.
  const std::vector<BlkConn>& blk_conns() const { return blk_conns_; }
  const BlkOp& blk_op() const { return blk_op_; }

 protected:
  void OnRun(sim::Duration budget) override;
  void OnEvents(std::uint64_t bits) override;

 private:
  struct NetConn {
    hv::DomainId frontend = hv::kInvalidDomain;
    NetRxRing* rx = nullptr;
    NetTxRing* tx = nullptr;
    hv::EventPort notify_port = hv::kInvalidPort;
    hv::GrantRef rx_gref = hv::kInvalidGrant;
    hv::GrantRef tx_gref = hv::kInvalidGrant;
  };

  // Independent RX and TX pipelines, as in real netback: RX backpressure
  // must not stop TX draining (the frontend may be blocked on exactly that).
  struct NetOp {
    bool active = false;
    int conn = -1;
    NetPacket pkt;
    int phase = 0;  // rx: 0 copy, 1 push, 2 kick; tx: 0 copy, 1 transmit
  };
  struct CreateOp {
    bool active = false;
    int phase = 0;  // 0 create, 1 attach, 2 unpause, 3 done
    hw::CpuId pin_cpu = 0;
    std::uint64_t frames = 64;
    hv::DomainId created = hv::kInvalidDomain;
    std::function<void(hv::DomainId)> done;
  };

  bool AdvanceBlkOp();   // returns false when it must back off (trap pending)
  bool AdvanceNetRxOp();
  bool AdvanceNetTxOp();
  bool AdvanceCreateOp();
  bool PickWork();

  VirtualDisk* disk_ = nullptr;
  VirtualNic* nic_ = nullptr;
  std::vector<BlkConn> blk_conns_;
  std::vector<NetConn> net_conns_;
  VmFactory vm_factory_;

  BlkOp blk_op_;
  NetOp net_rx_op_;
  NetOp net_tx_op_;
  CreateOp create_;
  std::uint64_t next_disk_tag_ = 1;
  std::uint64_t ios_served_ = 0;
  std::uint64_t packets_forwarded_ = 0;
  std::uint64_t ops_since_rebalance_ = 0;
  bool rebalance_pending_ = false;
  bool kernel_state_corrupted_ = false;
};

}  // namespace nlh::guest
