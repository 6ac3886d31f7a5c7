#include "integrity/ladder.h"

#include "hv/domain.h"
#include "hv/event_channel.h"
#include "hv/grant_table.h"
#include "hv/hypervisor.h"
#include "hv/percpu.h"
#include "hv/spinlock.h"
#include "hv/static_data.h"
#include "hv/timer_heap.h"
#include "hv/vcpu.h"

namespace nlh::integrity {

namespace {

std::uint64_t HashFrameTable(hv::Hypervisor& hv) {
  StateHasher h;
  hv.frames().HashInto(h);
  return h.value();
}

std::uint64_t HashHeap(hv::Hypervisor& hv) {
  StateHasher h;
  hv.heap().HashInto(h);
  return h.value();
}

std::uint64_t HashTimers(hv::Hypervisor& hv) {
  StateHasher h;
  const int cpus = static_cast<int>(hv.percpu().size());
  for (int c = 0; c < cpus; ++c) {
    const hv::TimerHeap& th = hv.timers(c);
    h.Mix(static_cast<std::uint64_t>(th.entries().size()));
    for (const hv::SoftTimer& t : th.entries()) {
      // id is the timer's identity (names are fixed at arm time and paired
      // 1:1 with ids), so the name contributes only its length — hashing
      // string contents every epoch costs more than the rest of this
      // surface combined and detects nothing the id does not.
      h.MixWord(t.id);
      h.MixWord(static_cast<std::uint64_t>(t.name.size()));
      h.MixWord(static_cast<std::uint64_t>(t.deadline));
      h.MixWord(static_cast<std::uint64_t>(t.period) |
                (static_cast<std::uint64_t>(t.is_system_recurring) << 63));
      // t.callback: behavior, not state — skipped.
    }
  }
  // Armed per-vCPU singleshot deadlines ride the timer surface: they are
  // the authoritative source RearmVcpuTimers rebuilds the heaps from.
  for (const hv::Vcpu& vc : hv.vcpus()) {
    h.Mix(static_cast<std::int64_t>(vc.vtimer_deadline));
  }
  return h.value();
}

std::uint64_t HashScheduler(hv::Hypervisor& hv) {
  StateHasher h;
  for (const hv::PerCpuData& pc : hv.percpu()) {
    h.Mix(static_cast<std::int32_t>(pc.curr));
    h.Mix(static_cast<std::int32_t>(pc.rq_head));
    h.Mix(static_cast<std::int32_t>(pc.rq_tail));
    h.Mix(pc.rq_len);
    // curr_ran is slice-churn (flips without a scheduling decision).
  }
  h.Mix(static_cast<std::uint64_t>(hv.vcpus().size()));
  for (const hv::Vcpu& vc : hv.vcpus()) {
    h.Mix(static_cast<std::uint64_t>(vc.state));
    h.Mix(static_cast<std::int32_t>(vc.running_on));
    h.Mix(vc.is_current);
    h.Mix(static_cast<std::int32_t>(vc.rq_prev));
    h.Mix(static_cast<std::int32_t>(vc.rq_next));
    h.Mix(vc.rq_queued);
    h.Mix(static_cast<std::int32_t>(vc.pinned_cpu));
    h.Mix(vc.struct_corrupted);
  }
  h.Mix(static_cast<std::uint64_t>(hv.domains().size()));
  for (const hv::Domain& d : hv.domains()) {
    h.Mix(static_cast<std::int32_t>(d.id));
    h.Mix(static_cast<std::uint64_t>(d.lifecycle));
    h.Mix(d.struct_corrupted);
  }
  return h.value();
}

std::uint64_t HashLocks(hv::Hypervisor& hv) {
  StateHasher h;
  const auto& locks = hv.static_locks().locks();
  h.Mix(static_cast<std::uint64_t>(locks.size()));
  for (const hv::SpinLock* lock : locks) {
    // Holder only: handler executions are serialized, so at an epoch
    // boundary every lock is released in a healthy run — a held lock IS
    // the anomaly, with no ledger note needed. acquisitions_ is a
    // monotonic activity counter, not protected state.
    h.Mix(static_cast<std::int32_t>(lock->holder()));
  }
  return h.value();
}

std::uint64_t HashEventChannels(hv::Hypervisor& hv) {
  StateHasher h;
  for (const hv::Domain& d : hv.domains()) {
    h.Mix(static_cast<std::int32_t>(d.id));
    d.evtchn.HashInto(h);
  }
  // Pending upcall bitmaps are delivery state of this surface.
  for (const hv::Vcpu& vc : hv.vcpus()) h.Mix(vc.pending_events);
  return h.value();
}

std::uint64_t HashGrantTables(hv::Hypervisor& hv) {
  StateHasher h;
  for (const hv::Domain& d : hv.domains()) {
    h.Mix(static_cast<std::int32_t>(d.id));
    d.grants.HashInto(h);
  }
  return h.value();
}

std::uint64_t HashPerCpu(hv::Hypervisor& hv) {
  StateHasher h;
  for (const hv::PerCpuData& pc : hv.percpu()) {
    // Balanced at event boundaries except across freeze (which notes).
    h.Mix(pc.local_irq_count);
    h.Mix(pc.watchdog_soft_count);
    h.Mix(pc.saved_fs);
    h.Mix(pc.saved_gs);
    h.Mix(pc.fs_gs_saved);
  }
  return h.value();
}

std::uint64_t HashStatics(hv::Hypervisor& hv) {
  StateHasher h;
  for (int i = 0; i < hv::kNumStaticVars; ++i) {
    h.Mix(hv.statics().corrupted(static_cast<hv::StaticVar>(i)));
  }
  // The recovery-path flag is static-segment state for recovery purposes.
  h.Mix(hv.recovery_path_ok());
  return h.value();
}

}  // namespace

LadderSnapshot ComputeLadder(hv::Hypervisor& hv) {
  LadderSnapshot snap;
  snap.surface[static_cast<std::size_t>(Surface::kFrameTable)] =
      HashFrameTable(hv);
  snap.surface[static_cast<std::size_t>(Surface::kHeap)] = HashHeap(hv);
  snap.surface[static_cast<std::size_t>(Surface::kTimer)] = HashTimers(hv);
  snap.surface[static_cast<std::size_t>(Surface::kScheduler)] =
      HashScheduler(hv);
  snap.surface[static_cast<std::size_t>(Surface::kLocks)] = HashLocks(hv);
  snap.surface[static_cast<std::size_t>(Surface::kEventChannel)] =
      HashEventChannels(hv);
  snap.surface[static_cast<std::size_t>(Surface::kGrantTable)] =
      HashGrantTables(hv);
  snap.surface[static_cast<std::size_t>(Surface::kPerCpu)] = HashPerCpu(hv);
  snap.surface[static_cast<std::size_t>(Surface::kStatics)] = HashStatics(hv);
  return snap;
}

}  // namespace nlh::integrity
