// AppVM guest kernels running the paper's synthetic benchmarks
// (Section VI-A):
//
//   UnixBench — hypercall-heavy programs stressing virtual-memory
//     management: multicall-batched mmu_updates, page-table pin/unpin,
//     forwarded syscalls.
//   BlkBench  — creates/copies/reads/removes files through the PV block
//     frontend with guest caching off, so every operation reaches the
//     PrivVM backend (grants + event channels + disk).
//   NetBench  — a user-level UDP ping receiver; an external sender
//     (guest/devices.h NetPeer) sends a packet every 1 ms and measures the
//     reply stream.
//
// Benchmarks are fixed-work: they complete a configured number of
// iterations and then report done (the runner checks completion against a
// deadline and output integrity against the golden copy).
#pragma once

#include <deque>
#include <vector>

#include "guest/guest_kernel.h"
#include "guest/io_rings.h"

namespace nlh::guest {

enum class BenchmarkKind { kUnixBench, kBlkBench, kNetBench };

// Virtualization mode of an AppVM. PV guests issue explicit hypercalls
// (and their x86-64 syscalls are forwarded through the hypervisor);
// HVM guests run under hardware virtualization and enter the hypervisor
// through VM exits instead (Section VI-A notes that injection results with
// HVM AppVMs closely match PV ones).
enum class VirtMode { kPV, kHVM };

const char* BenchmarkName(BenchmarkKind k);

class AppVmKernel : public GuestKernel {
 public:
  AppVmKernel(hv::Hypervisor& hv, std::string name, std::uint64_t seed,
              BenchmarkKind kind, int iterations,
              VirtMode mode = VirtMode::kPV)
      : GuestKernel(hv, std::move(name), seed),
        kind_(kind),
        mode_(mode),
        iterations_target_(iterations) {}

  // Wires the PV block frontend: the shared ring, and the local event port
  // this frontend kicks the backend through.
  void ConnectBlk(BlkRing* ring, hv::EventPort kick_port) {
    blk_ring_ = ring;
    blk_kick_port_ = kick_port;
  }
  // Wires the PV net frontend.
  void ConnectNet(NetRxRing* rx, NetTxRing* tx, hv::EventPort kick_port) {
    net_rx_ = rx;
    net_tx_ = tx;
    net_kick_port_ = kick_port;
  }

  BenchmarkKind kind() const { return kind_; }
  VirtMode mode() const { return mode_; }
  bool BenchmarkDone() const { return iterations_done_ >= iterations_target_; }
  int iterations_done() const { return iterations_done_; }
  int iterations_target() const { return iterations_target_; }
  std::uint64_t packets_handled() const { return packets_handled_; }

  // Surviving frontend driver state (PrivVM recovery reconstructs the
  // backend's request view from this; the backend auditor cross-checks the
  // ring contents against it).
  struct OutstandingIo {
    std::uint64_t id;
    hv::GrantRef gref;
  };
  const std::vector<OutstandingIo>& blk_outstanding() const {
    return blk_outstanding_;
  }

  // Snapshot/restore (sim/state_image.h). Ring pointers are wiring (the
  // rings are owned by the core layer and captured there); everything that
  // advances during a run is here.
  template <typename V>
  void VisitState(V&& v) {
    GuestKernel::VisitState(v);
    v(iterations_done_);
    v(phase_);
    v(sub_);
    v(pinned_);
    v(map_cursor_);
    v(pin_cursor_);
    v(blk_outstanding_);
    v(next_io_id_);
    v(blk_frame_cursor_);
    v(packets_handled_);
    v(net_reply_pending_);
    v(net_reply_);
  }

 protected:
  void OnRun(sim::Duration budget) override;
  void OnEvents(std::uint64_t bits) override;

 private:
  void RunUnixBench();
  // Issues one 4-entry multicall of mmu_updates over the current map window
  // (map or unmap). Same contract as Hcall.
  bool MmuUpdateBatch(bool map);
  void RunUnixBenchHvm();
  void RunBlkBench();
  void RunNetBench();
  void DrainBlkResponses();
  bool SubmitBlkIo(bool write);

  BenchmarkKind kind_;
  VirtMode mode_ = VirtMode::kPV;
  int iterations_target_;
  int iterations_done_ = 0;
  int phase_ = 0;
  int sub_ = 0;  // sub-step within a phase (e.g. I/O index within a file)

  // UnixBench state.
  std::deque<std::uint64_t> pinned_;
  std::uint64_t map_cursor_ = 0;
  std::uint64_t pin_cursor_ = 32;
  // MmuUpdateBatch's argument buffer: refilled before every issue, so it
  // holds no run state (not visited), and reusing it keeps multicalls
  // allocation-free.
  hv::HypercallArgs mmu_batch_;

  // BlkBench state.
  BlkRing* blk_ring_ = nullptr;
  hv::EventPort blk_kick_port_ = hv::kInvalidPort;
  std::vector<OutstandingIo> blk_outstanding_;
  std::uint64_t next_io_id_ = 1;
  std::uint64_t blk_frame_cursor_ = 0;

  // NetBench state.
  NetRxRing* net_rx_ = nullptr;
  NetTxRing* net_tx_ = nullptr;
  hv::EventPort net_kick_port_ = hv::kInvalidPort;
  std::uint64_t packets_handled_ = 0;
  bool net_reply_pending_ = false;
  NetPacket net_reply_{};
};

}  // namespace nlh::guest
