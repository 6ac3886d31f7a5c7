#include "guest/appvm.h"

namespace nlh::guest {

namespace {
// Fake syscall numbers (the forwarding path only needs distinct values).
constexpr std::uint64_t kSysMmap = 9;
constexpr std::uint64_t kSysMunmap = 11;
constexpr std::uint64_t kSysFork = 57;
constexpr std::uint64_t kSysWrite = 1;
constexpr std::uint64_t kSysRead = 0;

constexpr int kBlkIosPerFile = 4;        // write burst per file
constexpr std::uint64_t kMapRegion = 32;  // frames used for map/unmap churn
constexpr std::uint64_t kPinRegion = 16;  // frames used for pin/unpin churn
constexpr std::size_t kMaxPinned = 6;
}  // namespace

const char* BenchmarkName(BenchmarkKind k) {
  switch (k) {
    case BenchmarkKind::kUnixBench: return "UnixBench";
    case BenchmarkKind::kBlkBench: return "BlkBench";
    case BenchmarkKind::kNetBench: return "NetBench";
  }
  return "?";
}

void AppVmKernel::OnRun(sim::Duration budget) {
  (void)budget;
  if (BenchmarkDone()) {
    // Finished: the guest sits blocked in its idle loop from here on.
    Block();
    return;
  }
  switch (kind_) {
    case BenchmarkKind::kUnixBench:
      if (mode_ == VirtMode::kHVM) {
        RunUnixBenchHvm();
      } else {
        RunUnixBench();
      }
      return;
    case BenchmarkKind::kBlkBench:
      RunBlkBench();
      return;
    case BenchmarkKind::kNetBench:
      RunNetBench();
      return;
  }
}

void AppVmKernel::OnEvents(std::uint64_t bits) {
  (void)bits;
  // Work is picked up by polling the rings in OnRun; events only wake us.
}

// ---------------------------------------------------------------------------
// UnixBench
// ---------------------------------------------------------------------------

void AppVmKernel::RunUnixBench() {
  while (BudgetLeft() && !BenchmarkDone() && !crashed()) {
    switch (phase_) {
      case 0:
        Compute(sim::Microseconds(32));
        phase_ = 1;
        break;
      case 1:
        if (!Syscall(kSysMmap)) return;
        phase_ = 2;
        break;
      case 2:
        // mmap backing: batched PTE installs.
        if (!MmuUpdateBatch(/*map=*/true)) return;
        phase_ = 3;
        break;
      case 3:
        Compute(sim::Microseconds(16));
        if (!Syscall(kSysFork)) return;
        phase_ = 13;
        break;
      case 13:
        // fork/exec churn makes the guest yield back to the hypervisor
        // scheduler regularly.
        if (iterations_done_ % 3 == 1) {
          if (!Hcall0(hv::HypercallCode::kSchedOpYield)) return;
        }
        phase_ = 4;
        break;
      case 4: {
        // New process page tables: pin a fresh page-table page.
        const std::uint64_t frame =
            kMapRegion + (pin_cursor_ % kPinRegion);
        if (!Hcall1(hv::HypercallCode::kPageTablePin, frame)) return;
        pinned_.push_back(frame);
        ++pin_cursor_;
        phase_ = 5;
        break;
      }
      case 5:
        if (pinned_.size() > kMaxPinned) {
          const std::uint64_t frame = pinned_.front();
          if (!Hcall1(hv::HypercallCode::kPageTableUnpin, frame)) return;
          pinned_.pop_front();
        }
        phase_ = 6;
        break;
      case 6:
        Compute(sim::Microseconds(16));
        if (!Syscall(kSysMunmap)) return;
        phase_ = 7;
        break;
      case 7:
        // munmap: batched PTE removals, balancing phase 2.
        if (!MmuUpdateBatch(/*map=*/false)) return;
        map_cursor_ += 4;
        phase_ = 8;
        break;
      case 8:
        // Occasional lighter calls.
        if (iterations_done_ % 16 == 5) {
          if (!Hcall2(hv::HypercallCode::kUpdateVaMapping,
                      map_cursor_ % kMapRegion, 1)) {
            return;
          }
          phase_ = 9;
          break;
        }
        phase_ = 10;
        break;
      case 9:
        if (!Hcall2(hv::HypercallCode::kUpdateVaMapping,
                    map_cursor_ % kMapRegion, 0)) {
          return;
        }
        phase_ = 10;
        break;
      case 10:
        if (iterations_done_ % 32 == 11) {
          if (!Hcall1(hv::HypercallCode::kMemoryOpIncrease, 2)) return;
          phase_ = 11;
          break;
        }
        phase_ = 12;
        break;
      case 11:
        if (!Hcall1(hv::HypercallCode::kMemoryOpDecrease, 2)) return;
        phase_ = 12;
        break;
      case 12:
        if (iterations_done_ % 64 == 23) {
          if (!Hcall0(hv::HypercallCode::kConsoleIo)) return;
        }
        phase_ = 14;
        break;
      case 14:
        // Pipe/IPC-style blocking: arm a short timer and sleep on it. This
        // is where UnixBench's scheduler pressure comes from.
        if (iterations_done_ % 4 == 2) {
          if (!Hcall1(hv::HypercallCode::kSetTimerOp,
                      static_cast<std::uint64_t>(
                          hv_.Now() + sim::Microseconds(200)))) {
            return;
          }
          phase_ = 15;
          break;
        }
        phase_ = 16;
        break;
      case 15:
        if (Block()) {
          phase_ = 16;
          return;
        }
        phase_ = 16;
        break;
      case 16:
        ++iterations_done_;
        phase_ = 0;
        break;
      default:
        phase_ = 0;
        break;
    }
  }
}

bool AppVmKernel::MmuUpdateBatch(bool map) {
  mmu_batch_.batch.clear();
  for (int k = 0; k < 4; ++k) {
    hv::MulticallEntry e;
    e.code = hv::HypercallCode::kMmuUpdate;
    e.arg0 = (map_cursor_ + static_cast<std::uint64_t>(k)) % kMapRegion;
    e.arg1 = map ? 1 : 0;
    mmu_batch_.batch.push_back(e);
  }
  return Hcall(hv::HypercallCode::kMulticall, mmu_batch_);
}

// ---------------------------------------------------------------------------
// UnixBench, HVM variant
// ---------------------------------------------------------------------------
//
// Same workload shape, but the guest runs under hardware virtualization:
// system calls stay inside the guest (no forwarding), and memory management
// reaches the hypervisor as EPT violations / reclaims instead of PV
// hypercalls. Event channels, timers and scheduling still use the PV-driver
// interfaces, as in a real HVM-with-PV-drivers guest.

void AppVmKernel::RunUnixBenchHvm() {
  while (BudgetLeft() && !BenchmarkDone() && !crashed()) {
    switch (phase_) {
      case 0:
        // Syscalls are handled inside the guest kernel: pure guest time.
        Compute(sim::Microseconds(36));
        sub_ = 0;
        phase_ = 1;
        break;
      case 1:
        // mmap backing: the first touches of the new pages fault into the
        // hypervisor as EPT violations.
        if (sub_ < 4) {
          if (!TakeVmExit(hv::VmExitReason::kEptViolation,
                          (map_cursor_ + static_cast<std::uint64_t>(sub_)) %
                              kMapRegion)) {
            return;
          }
          ++sub_;
          break;
        }
        phase_ = 2;
        break;
      case 2:
        Compute(sim::Microseconds(18));
        if (iterations_done_ % 3 == 1) {
          if (!Hcall0(hv::HypercallCode::kSchedOpYield)) return;
        }
        phase_ = 3;
        break;
      case 3: {
        // Fresh process address space: fault in a page, reclaim the oldest
        // once the working set exceeds its bound (balances refcounts).
        const std::uint64_t frame = kMapRegion + (pin_cursor_ % kPinRegion);
        if (!TakeVmExit(hv::VmExitReason::kEptViolation, frame)) return;
        pinned_.push_back(frame);
        ++pin_cursor_;
        phase_ = 4;
        break;
      }
      case 4:
        if (pinned_.size() > kMaxPinned) {
          if (!TakeVmExit(hv::VmExitReason::kEptReclaim, pinned_.front())) {
            return;
          }
          pinned_.pop_front();
        }
        phase_ = 5;
        break;
      case 5:
        Compute(sim::Microseconds(18));
        sub_ = 0;
        phase_ = 6;
        break;
      case 6:
        // munmap: the pages are reclaimed from the EPT.
        if (sub_ < 4) {
          if (!TakeVmExit(hv::VmExitReason::kEptReclaim,
                          (map_cursor_ + static_cast<std::uint64_t>(sub_)) %
                              kMapRegion)) {
            return;
          }
          ++sub_;
          break;
        }
        map_cursor_ += 4;
        phase_ = 7;
        break;
      case 7:
        // Occasional emulated instructions and PV-driver calls.
        if (iterations_done_ % 16 == 5) {
          if (!TakeVmExit(hv::VmExitReason::kCpuid, 0)) return;
        }
        if (iterations_done_ % 32 == 11) {
          if (!Hcall1(hv::HypercallCode::kMemoryOpIncrease, 2)) return;
          phase_ = 8;
          break;
        }
        phase_ = 9;
        break;
      case 8:
        if (!Hcall1(hv::HypercallCode::kMemoryOpDecrease, 2)) return;
        phase_ = 9;
        break;
      case 9:
        // Pipe/IPC-style blocking through the PV event interface.
        if (iterations_done_ % 4 == 2) {
          if (!Hcall1(hv::HypercallCode::kSetTimerOp,
                      static_cast<std::uint64_t>(
                          hv_.Now() + sim::Microseconds(200)))) {
            return;
          }
          phase_ = 10;
          break;
        }
        phase_ = 11;
        break;
      case 10:
        if (Block()) {
          phase_ = 11;
          return;
        }
        phase_ = 11;
        break;
      case 11:
        ++iterations_done_;
        phase_ = 0;
        break;
      default:
        phase_ = 0;
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// BlkBench
// ---------------------------------------------------------------------------

bool AppVmKernel::SubmitBlkIo(bool write) {
  // Grant a data frame to the backend and push a ring request.
  const std::uint64_t frame_index =
      kMapRegion + kPinRegion + (blk_frame_cursor_++ % 8);
  hv::Domain& d = dom();
  const hv::FrameNumber frame = d.first_frame + (frame_index % d.num_frames);
  const hv::GrantRef gref = d.grants.TryGrant(hv::kPrivVmId, frame);
  if (gref == hv::kInvalidGrant) {
    // Grant table exhausted (leaked entries): the frontend driver BUG()s.
    CrashKernel("grant table exhausted");
    return false;
  }
  BlkRequest req;
  req.id = next_io_id_++;
  req.write = write;
  req.gref = gref;
  req.frame_index = frame_index;
  if (!blk_ring_->PushRequest(req)) {
    d.grants.Revoke(gref);
    return false;  // ring full; try again later
  }
  blk_outstanding_.push_back({req.id, gref});
  return true;
}

void AppVmKernel::DrainBlkResponses() {
  BlkResponse resp;
  while (blk_ring_ != nullptr && blk_ring_->PopResponse(&resp)) {
    for (std::size_t i = 0; i < blk_outstanding_.size(); ++i) {
      if (blk_outstanding_[i].id != resp.id) continue;
      const hv::GrantRef gref = blk_outstanding_[i].gref;
      hv::GrantEntry& e = dom().grants.At(gref);
      if (!resp.ok) {
        RecordIoError();
      } else if (e.xfer_count != 1) {
        // Duplicated (or missing) transfer through this grant: a retried
        // non-enhanced grant_copy re-ran against our buffer.
        RecordIoError();
      }
      if (e.map_count == 0) {
        dom().grants.Revoke(gref);
      }
      // else: backend still holds a mapping (leak); skip the revoke.
      blk_outstanding_.erase(blk_outstanding_.begin() +
                             static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

void AppVmKernel::RunBlkBench() {
  while (BudgetLeft() && !BenchmarkDone() && !crashed()) {
    DrainBlkResponses();
    switch (phase_) {
      case 0:  // generate 1 MB of file content
        Compute(sim::Microseconds(45));
        sub_ = 0;
        phase_ = 1;
        break;
      case 1:  // write burst
        if (sub_ < kBlkIosPerFile) {
          if (!Syscall(kSysWrite)) return;
          if (!SubmitBlkIo(/*write=*/true)) {
            if (crashed()) return;
            // ring full: kick backend and wait
            phase_ = 2;
            break;
          }
          ++sub_;
          break;
        }
        phase_ = 2;
        break;
      case 2:  // kick the backend
        if (!Hcall1(hv::HypercallCode::kEventChannelSend,
                    static_cast<std::uint64_t>(blk_kick_port_))) {
          return;
        }
        phase_ = 3;
        break;
      case 3:  // wait for the write burst to complete
        DrainBlkResponses();
        if (!blk_outstanding_.empty()) {
          if (Block()) return;
          break;
        }
        sub_ = 0;
        phase_ = 4;
        break;
      case 4:  // read back & verify against the golden copy
        if (sub_ < kBlkIosPerFile) {
          if (!Syscall(kSysRead)) return;
          if (!SubmitBlkIo(/*write=*/false)) {
            if (crashed()) return;
            phase_ = 5;
            break;
          }
          ++sub_;
          break;
        }
        phase_ = 5;
        break;
      case 5:
        if (!Hcall1(hv::HypercallCode::kEventChannelSend,
                    static_cast<std::uint64_t>(blk_kick_port_))) {
          return;
        }
        phase_ = 6;
        break;
      case 6:
        DrainBlkResponses();
        if (!blk_outstanding_.empty()) {
          if (Block()) return;
          break;
        }
        // Golden-copy comparison of the read-back data (memory corruption
        // or I/O errors recorded along the way fail it).
        Compute(sim::Microseconds(45));
        ++iterations_done_;
        phase_ = 0;
        break;
      default:
        phase_ = 0;
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// NetBench
// ---------------------------------------------------------------------------

void AppVmKernel::RunNetBench() {
  while (BudgetLeft() && !crashed()) {
    if (net_reply_pending_) {
      // Finish sending the reply (kick may have been abandoned/retried).
      if (!net_tx_->PushRequest(net_reply_)) {
        if (Block()) return;  // TX ring full; wait for backend drain
        continue;
      }
      net_reply_pending_ = false;
      if (!Hcall1(hv::HypercallCode::kEventChannelSend,
                  static_cast<std::uint64_t>(net_kick_port_))) {
        return;
      }
      continue;
    }
    NetPacket pkt;
    if (net_rx_ != nullptr && net_rx_->PopRequest(&pkt)) {
      Compute(sim::Microseconds(5));  // user-level receive + reply
      ++packets_handled_;
      net_reply_ = pkt;
      net_reply_pending_ = true;
      continue;
    }
    if (Block()) return;
    return;  // events pending; give the slice back and re-run
  }
}

}  // namespace nlh::guest
