#include "guest/privvm.h"

namespace nlh::guest {

void PrivVmKernel::ConnectBlkFrontend(hv::DomainId frontend, BlkRing* ring,
                                      hv::EventPort notify_port) {
  blk_conns_.push_back(BlkConn{frontend, ring, notify_port});
}

void PrivVmKernel::ConnectNetFrontend(hv::DomainId frontend, NetRxRing* rx,
                                      NetTxRing* tx, hv::EventPort notify_port,
                                      hv::GrantRef rx_gref,
                                      hv::GrantRef tx_gref) {
  net_conns_.push_back(NetConn{frontend, rx, tx, notify_port, rx_gref, tx_gref});
}

void PrivVmKernel::RequestCreateVm(hw::CpuId pin_cpu, std::uint64_t frames,
                                   std::function<void(hv::DomainId)> done) {
  create_.active = true;
  create_.phase = 0;
  create_.pin_cpu = pin_cpu;
  create_.frames = frames;
  create_.done = std::move(done);
  hv_.KickCpu(hv_.vcpu(vcpu_id()).pinned_cpu);
  hv_.WakeVcpu(vcpu_id());
}

void PrivVmKernel::OnEvents(std::uint64_t bits) {
  (void)bits;  // work is polled from the rings/devices in OnRun
}

// ---------------------------------------------------------------------------
// Fault-injection surface
// ---------------------------------------------------------------------------

bool PrivVmKernel::CorruptBackendQueue(sim::Rng& rng) {
  (void)rng;
  if (!blk_op_.active) return false;
  // The backend silently forgets the request it popped. If the grant was
  // already mapped (phase 1..3), the mapping leaks with it — exactly the
  // map_count imbalance the backend auditor flags and recovery reclaims.
  blk_op_ = BlkOp{};
  return true;
}

bool PrivVmKernel::CorruptRingCounters(sim::Rng& rng) {
  if (blk_conns_.empty()) return false;
  BlkConn& conn = blk_conns_[rng.Index(blk_conns_.size())];
  if (conn.ring == nullptr) return false;
  const std::uint64_t bump =
      1 + static_cast<std::uint64_t>(rng.Range(0, 6));
  switch (rng.Index(4)) {
    case 0: conn.ring->req_produced += bump; break;
    case 1: conn.ring->req_consumed += bump; break;
    case 2: conn.ring->resp_produced += bump; break;
    default: conn.ring->resp_consumed += bump; break;
  }
  return true;
}

bool PrivVmKernel::InjectDuplicateRingRequest(sim::Rng& rng) {
  (void)rng;
  // Re-surface a request the backend is already serving (or the oldest
  // queued one): the same id/gref now sits in the ring twice.
  if (blk_op_.active && blk_op_.conn >= 0 &&
      static_cast<std::size_t>(blk_op_.conn) < blk_conns_.size()) {
    BlkRing* ring = blk_conns_[static_cast<std::size_t>(blk_op_.conn)].ring;
    if (ring != nullptr) {
      ring->requests.push_back(blk_op_.req);
      ++ring->req_produced;
      return true;
    }
  }
  for (BlkConn& conn : blk_conns_) {
    if (conn.ring != nullptr && !conn.ring->requests.empty()) {
      conn.ring->requests.push_back(conn.ring->requests.front());
      ++conn.ring->req_produced;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Recovery surface
// ---------------------------------------------------------------------------

void PrivVmKernel::ResetForRecovery() {
  ResetKernelForRecovery();
  kernel_state_corrupted_ = false;
  blk_op_ = BlkOp{};
  net_rx_op_ = NetOp{};
  net_tx_op_ = NetOp{};
  create_ = CreateOp{};
  rebalance_pending_ = false;
}

// ---------------------------------------------------------------------------

bool PrivVmKernel::AdvanceBlkOp() {
  BlkOp& op = blk_op_;
  const BlkConn& conn = blk_conns_[static_cast<std::size_t>(op.conn)];
  switch (op.phase) {
    case 0:  // map the frontend's grant
      if (!Hcall2(hv::HypercallCode::kGrantMap,
                  static_cast<std::uint64_t>(conn.frontend),
                  static_cast<std::uint64_t>(op.req.gref))) {
        return false;
      }
      op.disk_tag = next_disk_tag_++;
      op.disk_done = false;
      if (disk_ != nullptr) disk_->Submit(op.disk_tag);
      op.phase = 1;
      return true;
    case 1: {  // wait for the disk
      std::uint64_t tag;
      while (disk_ != nullptr && disk_->PopCompletion(&tag)) {
        if (tag == op.disk_tag) op.disk_done = true;
      }
      if (!op.disk_done) return true;  // keep waiting (block upstream)
      op.phase = 2;
      return true;
    }
    case 2:  // move the data (hypervisor-mediated copy)
      if (!Hcall2(hv::HypercallCode::kGrantCopy,
                  static_cast<std::uint64_t>(conn.frontend),
                  static_cast<std::uint64_t>(op.req.gref))) {
        return false;
      }
      Compute(sim::Microseconds(3));
      op.phase = 3;
      return true;
    case 3:  // unmap
      if (!Hcall2(hv::HypercallCode::kGrantUnmap,
                  static_cast<std::uint64_t>(conn.frontend),
                  static_cast<std::uint64_t>(op.req.gref))) {
        return false;
      }
      op.phase = 4;
      return true;
    case 4: {  // push the response
      BlkResponse resp;
      resp.id = op.req.id;
      resp.ok = true;
      if (!conn.ring->PushResponse(resp)) return true;  // retry later
      op.phase = 5;
      return true;
    }
    case 5:  // kick the frontend
      if (!Hcall1(hv::HypercallCode::kEventChannelSend,
                  static_cast<std::uint64_t>(conn.notify_port))) {
        return false;
      }
      ++ios_served_;
      ++ops_since_rebalance_;
      op.active = false;
      return true;
    default:
      op.active = false;
      return true;
  }
}

bool PrivVmKernel::AdvanceNetRxOp() {
  NetOp& op = net_rx_op_;
  const NetConn& conn = net_conns_[static_cast<std::size_t>(op.conn)];
  switch (op.phase) {
    case 0:  // copy into the frontend's pre-granted RX buffer
      if (!Hcall2(hv::HypercallCode::kGrantCopy,
                  static_cast<std::uint64_t>(conn.frontend),
                  static_cast<std::uint64_t>(conn.rx_gref))) {
        return false;
      }
      op.phase = 1;
      return true;
    case 1:
      if (!conn.rx->PushRequest(op.pkt)) {
        // Frontend RX ring full: hold the packet and retry when the
        // frontend drains (its reply kicks wake us). Sustained
        // backpressure eventually overflows the NIC queue instead —
        // exactly where a real netback pushes the loss.
        return true;  // op stays active at this phase
      }
      op.phase = 2;
      return true;
    case 2:
      if (!Hcall1(hv::HypercallCode::kEventChannelSend,
                  static_cast<std::uint64_t>(conn.notify_port))) {
        return false;
      }
      ++packets_forwarded_;
      ++ops_since_rebalance_;
      op.active = false;
      return true;
    default:
      op.active = false;
      return true;
  }
}

bool PrivVmKernel::AdvanceNetTxOp() {
  NetOp& op = net_tx_op_;
  const NetConn& conn = net_conns_[static_cast<std::size_t>(op.conn)];
  switch (op.phase) {
    case 0:
      if (!Hcall2(hv::HypercallCode::kGrantCopy,
                  static_cast<std::uint64_t>(conn.frontend),
                  static_cast<std::uint64_t>(conn.tx_gref))) {
        return false;
      }
      op.phase = 1;
      return true;
    case 1:
      if (nic_ != nullptr) nic_->Transmit(op.pkt.seq, op.pkt.sent_at);
      ++packets_forwarded_;
      op.active = false;
      return true;
    default:
      op.active = false;
      return true;
  }
}

bool PrivVmKernel::AdvanceCreateOp() {
  CreateOp& op = create_;
  switch (op.phase) {
    case 0: {
      std::uint64_t domid = 0;
      if (!Hcall2(hv::HypercallCode::kDomctlCreate,
                  static_cast<std::uint64_t>(op.pin_cpu), op.frames, &domid)) {
        return false;
      }
      op.created = static_cast<hv::DomainId>(domid);
      Compute(sim::Microseconds(200));  // toolstack user-space work
      op.phase = 1;
      return true;
    }
    case 1:
      if (vm_factory_) vm_factory_(op.created);
      op.phase = 2;
      return true;
    case 2:
      if (!Hcall1(hv::HypercallCode::kDomctlUnpause,
                  static_cast<std::uint64_t>(op.created))) {
        return false;
      }
      op.phase = 3;
      return true;
    case 3:
      op.active = false;
      if (op.done) op.done(op.created);
      return true;
    default:
      op.active = false;
      return true;
  }
}

bool PrivVmKernel::PickWork() {
  // Starts new work if a pipeline slot is free; returns whether anything
  // new was started. Disk completions are consumed by the in-flight blk op.
  if (!blk_op_.active) {
    for (std::size_t i = 0; i < blk_conns_.size(); ++i) {
      BlkRequest req;
      if (blk_conns_[i].ring != nullptr && blk_conns_[i].ring->PopRequest(&req)) {
        blk_op_.active = true;
        blk_op_.conn = static_cast<int>(i);
        blk_op_.req = req;
        blk_op_.phase = 0;
        return true;
      }
    }
  }
  bool started = false;
  if (!net_tx_op_.active) {
    // TX from frontends.
    for (std::size_t i = 0; i < net_conns_.size(); ++i) {
      NetPacket pkt;
      if (net_conns_[i].tx != nullptr && net_conns_[i].tx->PopRequest(&pkt)) {
        net_tx_op_.active = true;
        net_tx_op_.conn = static_cast<int>(i);
        net_tx_op_.pkt = pkt;
        net_tx_op_.phase = 0;
        started = true;
        break;
      }
    }
  }
  if (!net_rx_op_.active && nic_ != nullptr && !net_conns_.empty()) {
    // RX from the NIC (deliver to the first net frontend).
    std::uint64_t seq;
    sim::Time sent_at;
    if (nic_->PopRx(&seq, &sent_at)) {
      net_rx_op_.active = true;
      net_rx_op_.conn = 0;
      net_rx_op_.pkt = NetPacket{seq, sent_at};
      net_rx_op_.phase = 0;
      started = true;
    }
  }
  return started;
}

void PrivVmKernel::OnRun(sim::Duration budget) {
  (void)budget;
  if (kernel_state_corrupted_) {
    // The wild write hit something the PrivVM kernel dereferences early in
    // its event loop: Dom0 crashes (Section VII-A failure reason 2).
    CrashKernel("PrivVM kernel state corrupted by wild hypervisor write");
    return;
  }
  int guard = 256;
  while (BudgetLeft() && guard-- > 0 && !crashed()) {
    // Occasional IRQ rebalance (the rarely-used non-enhanced physdev path).
    if (ops_since_rebalance_ >= 512) {
      ops_since_rebalance_ = 0;
      rebalance_pending_ = true;
    }
    if (rebalance_pending_) {
      if (!Hcall0(hv::HypercallCode::kPhysdevOp)) return;
      rebalance_pending_ = false;
      continue;
    }
    if (create_.active) {
      if (!AdvanceCreateOp()) return;
      continue;
    }

    bool progress = false;
    if (blk_op_.active) {
      const int before_phase = blk_op_.phase;
      if (!AdvanceBlkOp()) return;
      progress |= !blk_op_.active || blk_op_.phase != before_phase;
    }
    if (net_tx_op_.active) {
      const int before_phase = net_tx_op_.phase;
      if (!AdvanceNetTxOp()) return;
      progress |= !net_tx_op_.active || net_tx_op_.phase != before_phase;
    }
    if (net_rx_op_.active) {
      const int before_phase = net_rx_op_.phase;
      if (!AdvanceNetRxOp()) return;
      progress |= !net_rx_op_.active || net_rx_op_.phase != before_phase;
    }
    progress |= PickWork();
    if (!progress) {
      // Nothing to do (or only waiting on the disk): block until an event.
      if (Block()) return;
      return;  // events already pending; yield and re-run
    }
    Compute(sim::Microseconds(2));
  }
}

}  // namespace nlh::guest
