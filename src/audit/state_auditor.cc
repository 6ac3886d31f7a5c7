#include "audit/state_auditor.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <vector>

namespace nlh::audit {

namespace {

// Modeled per-entry sweep costs. The frame-table charge matches the order
// of magnitude of the recovery scan's per-descriptor cost; the rest are
// pointer-chasing walks over much smaller structures.
constexpr sim::Duration kFrameCost = 6;        // per frame descriptor
constexpr sim::Duration kHeapObjectCost = 40;  // per heap object / chunk
constexpr sim::Duration kTimerCost = 25;       // per timer-heap entry
constexpr sim::Duration kVcpuCost = 30;        // per vCPU
constexpr sim::Duration kPortCost = 15;        // per event channel port
constexpr sim::Duration kGrantCost = 15;       // per grant entry
constexpr sim::Duration kLockCost = 10;        // per registered lock
constexpr sim::Duration kStaticCost = 50;      // per static variable

// A software timer deadline further out than this is considered pushed out
// of reach: every legitimate timer in the simulator (recurring system
// events <= 500 ms, vCPU one-shots, APIC slices) fires well inside it.
constexpr sim::Duration kDeadlineHorizon = sim::Seconds(3600);

// Parses a per-vCPU one-shot timer name "vtimer:<id>"; returns -1 if the
// name has a different shape.
hv::VcpuId ParseVtimerName(const std::string& name) {
  constexpr const char* kPrefix = "vtimer:";
  if (name.rfind(kPrefix, 0) != 0) return -1;
  return static_cast<hv::VcpuId>(std::atoll(name.c_str() + 7));
}

}  // namespace

void StateAuditor::Emit(AuditReport& r, AuditSubsystem subsystem,
                        const char* invariant, AuditSeverity severity,
                        std::string detail) {
  AuditFinding f;
  f.subsystem = subsystem;
  f.invariant = invariant;
  f.severity = severity;
  f.detail = std::move(detail);
  r.findings.push_back(std::move(f));
}

// --- Frame table -----------------------------------------------------------

void StateAuditor::AuditFrameTable(AuditReport& r) {
  hv::FrameTable& frames = hv_.frames();
  const std::uint64_t n = frames.size();
  r.modeled_cost += static_cast<sim::Duration>(n) * kFrameCost;

  // Reference census: how many references to each frame actually exist in
  // guest page tables (pte_present) and grant entries (map_count). The
  // baseline reference from allocation itself is 1.
  std::map<hv::FrameNumber, std::int64_t> refs;
  for (hv::Domain& dom : hv_.domains()) {
    for (std::size_t s = 0; s < dom.pte_present.size(); ++s) {
      if (dom.pte_present[s]) {
        ++refs[dom.first_frame + static_cast<hv::FrameNumber>(s)];
      }
    }
    for (hv::GrantRef g = 0; g < hv::kGrantTableSize; ++g) {
      const hv::GrantEntry& e = dom.grants.At(g);
      if (e.map_count > 0 && e.frame < static_cast<hv::FrameNumber>(n)) {
        refs[e.frame] += e.map_count;
      }
    }
  }

  std::uint64_t populated = 0;
  for (hv::FrameNumber f = 0; f < static_cast<hv::FrameNumber>(n); ++f) {
    const hv::PageFrameDescriptor& d = frames.desc(f);
    if (d.type != hv::FrameType::kFree) ++populated;

    if (!hv::FrameTable::Consistent(d)) {
      Emit(r, AuditSubsystem::kFrameTable, "frame.descriptor_consistent",
           AuditSeverity::kFatal,
           "frame " + std::to_string(f) + ": type=" +
               std::to_string(static_cast<int>(d.type)) +
               " validated=" + std::to_string(d.validated) +
               " use_count=" + std::to_string(d.use_count));
      continue;  // referential checks assume internal consistency
    }
    if (d.type == hv::FrameType::kFree) continue;

    const bool guest_frame = d.type == hv::FrameType::kDomainPage ||
                             d.type == hv::FrameType::kPageTable;
    if (guest_frame && hv_.FindDomain(d.owner) == nullptr) {
      Emit(r, AuditSubsystem::kFrameTable, "frame.orphaned_owner",
           AuditSeverity::kLatent,
           "frame " + std::to_string(f) + " owned by unknown domain " +
               std::to_string(d.owner));
      continue;
    }

    // Referential use-count check. The expected count is a range, not a
    // point: the recovery scan repairs a validated descriptor to
    // use_count >= 1 without knowing whether the pin itself still holds a
    // reference, so the validation bit contributes only to the upper bound.
    auto it = refs.find(f);
    const std::int64_t external = (it == refs.end()) ? 0 : it->second;
    const std::int64_t expected_min = 1 + external;
    const std::int64_t expected_max = expected_min + (d.validated ? 1 : 0);
    if (d.use_count < expected_min || d.use_count > expected_max) {
      Emit(r, AuditSubsystem::kFrameTable, "frame.use_count_referential",
           AuditSeverity::kLatent,
           "frame " + std::to_string(f) + ": use_count=" +
               std::to_string(d.use_count) + " but references present=[" +
               std::to_string(expected_min) + "," +
               std::to_string(expected_max) + "]");
    }
  }

  if (populated != frames.allocated_frames()) {
    Emit(r, AuditSubsystem::kFrameTable, "frame.alloc_accounting",
         AuditSeverity::kLatent,
         "allocated counter says " +
             std::to_string(frames.allocated_frames()) + " frames, census " +
             "found " + std::to_string(populated));
  }
}

// --- Heap ------------------------------------------------------------------

void StateAuditor::AuditHeap(AuditReport& r) {
  hv::HvHeap& heap = hv_.heap();
  r.modeled_cost +=
      static_cast<sim::Duration>(heap.num_objects() + 1) * kHeapObjectCost;

  const bool free_list_ok = heap.CheckFreeListIntegrity();
  if (!free_list_ok) {
    Emit(r, AuditSubsystem::kHeap, "heap.free_list", AuditSeverity::kFatal,
         "free-list linkage corrupt (wild pointer, cycle, or page-count "
         "mismatch): next allocation walk panics or hangs");
  }

  // Extent map: every live object plus (when walkable) every free chunk.
  // No two extents may overlap, and all must lie inside the heap range.
  struct Extent {
    hv::FrameNumber first;
    std::uint64_t pages;
    std::string what;
  };
  std::vector<Extent> extents;
  std::uint64_t object_pages = 0;
  for (const hv::HeapObject& obj : heap.objects()) {
    extents.push_back({obj.first_frame, obj.pages, "object '" + obj.tag + "'"});
    object_pages += obj.pages;
  }
  if (free_list_ok) {
    for (const auto& [first, pages] : heap.FreeChunkExtents()) {
      extents.push_back({first, pages, "free chunk"});
    }
  }
  r.modeled_cost +=
      static_cast<sim::Duration>(extents.size()) * kHeapObjectCost;

  const hv::FrameNumber base = heap.heap_base();
  const hv::FrameNumber end =
      base + static_cast<hv::FrameNumber>(heap.total_pages());
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < extents.size(); ++i) {
    const Extent& e = extents[i];
    if (e.first < base ||
        e.first + static_cast<hv::FrameNumber>(e.pages) > end) {
      Emit(r, AuditSubsystem::kHeap, "heap.extent_bounds",
           AuditSeverity::kLatent,
           e.what + " at frame " + std::to_string(e.first) + "+" +
               std::to_string(e.pages) + " outside heap [" +
               std::to_string(base) + "," + std::to_string(end) + ")");
    }
    if (i > 0) {
      const Extent& p = extents[i - 1];
      if (p.first + static_cast<hv::FrameNumber>(p.pages) > e.first) {
        Emit(r, AuditSubsystem::kHeap, "heap.double_ownership",
             AuditSeverity::kLatent,
             p.what + " and " + e.what + " both own frame " +
                 std::to_string(e.first));
      }
    }
  }

  // Page accounting must close: allocated + free == total, and the live
  // objects must account for exactly the allocated pages.
  if (heap.allocated_pages() + heap.free_pages() != heap.total_pages() ||
      object_pages != heap.allocated_pages()) {
    Emit(r, AuditSubsystem::kHeap, "heap.accounting", AuditSeverity::kLatent,
         "allocated=" + std::to_string(heap.allocated_pages()) +
             " free=" + std::to_string(heap.free_pages()) +
             " total=" + std::to_string(heap.total_pages()) +
             " object_pages=" + std::to_string(object_pages));
  }

  // Every frame backing the heap must still be typed kXenHeap.
  hv::FrameTable& frames = hv_.frames();
  for (hv::FrameNumber f = base;
       f < end && f < static_cast<hv::FrameNumber>(frames.size()); ++f) {
    if (frames.desc(f).type != hv::FrameType::kXenHeap) {
      Emit(r, AuditSubsystem::kHeap, "heap.frame_type", AuditSeverity::kLatent,
           "heap frame " + std::to_string(f) + " retyped to " +
               std::to_string(static_cast<int>(frames.desc(f).type)));
    }
  }

  // Leak census (closed world): every heap object created on behalf of a
  // domain carries a "domain:"/"gnttab:"/"evtchn:" tag and must be
  // referenced by some domain's struct_obj/grant_obj/evtchn_obj handle —
  // dead domains included (teardown is lazy). An unreferenced one is a
  // leaked allocation no recovery mechanism will ever free.
  for (const hv::HeapObject& obj : heap.objects()) {
    const bool domain_tagged = obj.tag.rfind("domain:", 0) == 0 ||
                               obj.tag.rfind("gnttab:", 0) == 0 ||
                               obj.tag.rfind("evtchn:", 0) == 0;
    if (!domain_tagged) continue;
    bool referenced = false;
    for (hv::Domain& dom : hv_.domains()) {
      if (dom.struct_obj == obj.id || dom.grant_obj == obj.id ||
          dom.evtchn_obj == obj.id) {
        referenced = true;
        break;
      }
    }
    if (!referenced) {
      Emit(r, AuditSubsystem::kHeap, "heap.leaked_object",
           AuditSeverity::kLatent,
           "object '" + obj.tag + "' (" + std::to_string(obj.pages) +
               " pages) referenced by no domain");
    }
  }
}

// --- Timers ----------------------------------------------------------------

void StateAuditor::AuditTimers(AuditReport& r) {
  const sim::Time now = hv_.Now();
  for (int c = 0; c < hv_.platform().num_cpus(); ++c) {
    hv::TimerHeap& th = hv_.timers(c);
    const std::vector<hv::SoftTimer>& entries = th.entries();
    r.modeled_cost +=
        static_cast<sim::Duration>(entries.size() + 1) * kTimerCost;

    for (std::size_t i = 0; i < entries.size(); ++i) {
      const hv::SoftTimer& t = entries[i];
      if (t.deadline < 0) {
        Emit(r, AuditSubsystem::kTimer, "timer.deadline_negative",
             AuditSeverity::kFatal,
             "cpu" + std::to_string(c) + " timer '" + t.name +
                 "' deadline underflowed: pop asserts");
      } else if (t.deadline > now + kDeadlineHorizon) {
        Emit(r, AuditSubsystem::kTimer, "timer.deadline_horizon",
             AuditSeverity::kLatent,
             "cpu" + std::to_string(c) + " timer '" + t.name +
                 "' pushed beyond the horizon: event silently lost");
      }
      if (i > 0 && entries[(i - 1) / 2].deadline > entries[i].deadline) {
        Emit(r, AuditSubsystem::kTimer, "timer.heap_order",
             AuditSeverity::kFatal,
             "cpu" + std::to_string(c) + " heap-order violation at index " +
                 std::to_string(i) + " ('" + t.name + "')");
      }
      if (t.is_system_recurring && t.period <= 0) {
        Emit(r, AuditSubsystem::kTimer, "timer.recurring_period",
             AuditSeverity::kLatent,
             "cpu" + std::to_string(c) + " recurring timer '" + t.name +
                 "' has no period: fires once and vanishes");
      }
      const hv::VcpuId v = ParseVtimerName(t.name);
      if (v >= 0) {
        const bool valid =
            v < static_cast<hv::VcpuId>(hv_.vcpus().size()) &&
            hv_.FindDomain(hv_.vcpu(v).domain) != nullptr;
        if (!valid) {
          Emit(r, AuditSubsystem::kTimer, "timer.dangling_vcpu",
               AuditSeverity::kLatent,
               "cpu" + std::to_string(c) + " timer '" + t.name +
                   "' targets a nonexistent vCPU");
        }
      }
    }

    // Recurring-event liveness: the known recurring set must be present.
    // The sched tick is checked only where the hypervisor believes it is
    // running (it is started lazily per CPU).
    const char* required[] = {"watchdog_tick", "time_sync"};
    for (const char* name : required) {
      if (!th.ContainsName(name)) {
        Emit(r, AuditSubsystem::kTimer, "timer.recurring_missing",
             AuditSeverity::kLatent,
             "cpu" + std::to_string(c) + " lost recurring event '" +
                 std::string(name) + "'");
      }
    }
    if (hv_.sched_tick_enabled(c) && !th.ContainsName("sched_tick")) {
      Emit(r, AuditSubsystem::kTimer, "timer.recurring_missing",
           AuditSeverity::kLatent,
           "cpu" + std::to_string(c) +
               " sched tick enabled but absent from the heap");
    }
  }
}

// --- Scheduler -------------------------------------------------------------

void StateAuditor::AuditScheduler(AuditReport& r) {
  hv::PerCpuList& pcpus = hv_.percpu();
  std::vector<hv::Vcpu>& vcpus = hv_.vcpus();
  r.modeled_cost += static_cast<sim::Duration>(vcpus.size() + pcpus.size()) *
                    kVcpuCost;

  // Which vCPUs are reachable by walking each runqueue. Only walked when
  // the linkage validates — a corrupt queue is reported once, as fatal.
  std::vector<bool> reachable(vcpus.size(), false);
  for (std::size_t c = 0; c < pcpus.size(); ++c) {
    if (!hv::RunqueueValid(pcpus[c], vcpus)) {
      Emit(r, AuditSubsystem::kScheduler, "sched.runqueue_links",
           AuditSeverity::kFatal,
           "cpu" + std::to_string(c) +
               " runqueue linkage corrupt (head/tail/prev/next/len)");
      continue;
    }
    hv::VcpuId cur = pcpus[c].rq_head;
    int walked = 0;
    while (cur != hv::kInvalidVcpu &&
           walked <= static_cast<int>(vcpus.size())) {
      reachable[static_cast<std::size_t>(cur)] = true;
      cur = vcpus[static_cast<std::size_t>(cur)].rq_next;
      ++walked;
    }
  }

  if (!hv::SchedMetadataConsistent(pcpus, vcpus)) {
    Emit(r, AuditSubsystem::kScheduler, "sched.metadata",
         AuditSeverity::kLatent,
         "redundant scheduling metadata disagrees (per-CPU curr vs "
         "running_on/is_current/state)");
  }

  for (const hv::Vcpu& vc : vcpus) {
    if (vc.state != hv::VcpuState::kRunnable || vc.is_current) continue;
    const hv::Domain* dom = hv_.FindDomain(vc.domain);
    if (dom == nullptr || !dom->alive()) continue;
    if (!vc.rq_queued || !reachable[static_cast<std::size_t>(vc.id)]) {
      Emit(r, AuditSubsystem::kScheduler, "sched.runnable_unreachable",
           AuditSeverity::kLatent,
           "vCPU " + std::to_string(vc.id) + " (domain " +
               std::to_string(vc.domain) +
               ") runnable but on no runqueue: never scheduled again");
    }
  }
}

// --- Locks -----------------------------------------------------------------

void StateAuditor::AuditLocks(AuditReport& r) {
  // At a quiescent point no lock may be held; during recovery freeze the
  // detector CPU legitimately owns state, so the check is skipped.
  if (hv_.frozen()) return;
  const hv::StaticLockRegistry& reg = hv_.static_locks();
  r.modeled_cost += static_cast<sim::Duration>(reg.size()) * kLockCost;
  for (const hv::SpinLock* lock : reg.locks()) {
    if (lock->held()) {
      Emit(r, AuditSubsystem::kLocks, "lock.static_held",
           AuditSeverity::kFatal,
           "static lock '" + lock->name() + "' held by CPU" +
               std::to_string(lock->holder()) +
               " with no thread to release it");
    }
  }
  for (const hv::HeapObject& obj : hv_.heap().objects()) {
    r.modeled_cost += kLockCost;
    if (obj.lock && obj.lock->held()) {
      Emit(r, AuditSubsystem::kLocks, "lock.heap_held", AuditSeverity::kFatal,
           "heap lock '" + obj.lock->name() + "' held by CPU" +
               std::to_string(obj.lock->holder()) +
               " with no thread to release it");
    }
  }
}

// --- Event channels --------------------------------------------------------

void StateAuditor::AuditEventChannels(AuditReport& r) {
  for (hv::Domain& dom : hv_.domains()) {
    r.modeled_cost += static_cast<sim::Duration>(hv::kMaxEventPorts) *
                      kPortCost;
    for (hv::EventPort p = 0; p < hv::kMaxEventPorts; ++p) {
      const hv::EventChannel& ch = dom.evtchn.At(p);
      if (ch.state == hv::ChannelState::kClosed) continue;

      if (ch.state == hv::ChannelState::kInterdomain) {
        hv::Domain* remote = hv_.FindDomain(ch.remote_domain);
        if (remote == nullptr) {
          Emit(r, AuditSubsystem::kEventChannel, "evtchn.closure",
               AuditSeverity::kLatent,
               "domain " + std::to_string(dom.id) + " port " + std::to_string(p) +
                   " connected to nonexistent domain " +
                   std::to_string(ch.remote_domain));
        } else if (remote->alive()) {
          // Both ends of a live interdomain channel must point back at
          // each other (half-open channels drop notifications).
          bool closed = ch.remote_port < 0 ||
                        ch.remote_port >= hv::kMaxEventPorts;
          if (!closed) {
            const hv::EventChannel& rch = remote->evtchn.At(ch.remote_port);
            closed = rch.state != hv::ChannelState::kInterdomain ||
                     rch.remote_domain != dom.id || rch.remote_port != p;
          }
          if (closed) {
            Emit(r, AuditSubsystem::kEventChannel, "evtchn.closure",
                 AuditSeverity::kLatent,
                 "domain " + std::to_string(dom.id) + " port " +
                     std::to_string(p) + " -> domain " +
                     std::to_string(ch.remote_domain) + " port " +
                     std::to_string(ch.remote_port) +
                     " does not point back");
          }
        }
      }

      if (ch.state == hv::ChannelState::kInterdomain ||
          ch.state == hv::ChannelState::kVirq) {
        const bool notify_ok =
            ch.notify_vcpu >= 0 &&
            ch.notify_vcpu < static_cast<hv::VcpuId>(hv_.vcpus().size()) &&
            hv_.vcpu(ch.notify_vcpu).domain == dom.id;
        if (!notify_ok) {
          Emit(r, AuditSubsystem::kEventChannel, "evtchn.notify_vcpu",
               AuditSeverity::kLatent,
               "domain " + std::to_string(dom.id) + " port " + std::to_string(p) +
                   " notifies vCPU " + std::to_string(ch.notify_vcpu) +
                   " which is not one of its vCPUs");
        }
      }
    }

    // Pending bits must reference open ports (bit 0 is the timer virq).
    if (!dom.alive()) continue;
    for (hv::VcpuId v : dom.vcpus) {
      const hv::Vcpu& vc = hv_.vcpu(v);
      for (int bit = 1; bit < hv::kMaxEventPorts; ++bit) {
        if ((vc.pending_events >> bit) & 1ULL) {
          if (dom.evtchn.At(bit).state == hv::ChannelState::kClosed) {
            Emit(r, AuditSubsystem::kEventChannel, "evtchn.pending_closed",
                 AuditSeverity::kLatent,
                 "vCPU " + std::to_string(v) + " has a pending event on " +
                     "closed port " + std::to_string(bit));
          }
        }
      }
    }
  }
}

// --- Grant tables ----------------------------------------------------------

void StateAuditor::AuditGrantTables(AuditReport& r) {
  hv::FrameTable& frames = hv_.frames();
  for (hv::Domain& dom : hv_.domains()) {
    r.modeled_cost += static_cast<sim::Duration>(hv::kGrantTableSize) *
                      kGrantCost;
    for (hv::GrantRef g = 0; g < hv::kGrantTableSize; ++g) {
      const hv::GrantEntry& e = dom.grants.At(g);
      if (e.map_count < 0 || (e.map_count > 0 && !e.in_use)) {
        Emit(r, AuditSubsystem::kGrantTable, "grant.map_count",
             AuditSeverity::kLatent,
             "domain " + std::to_string(dom.id) + " grant " + std::to_string(g) +
                 ": map_count=" + std::to_string(e.map_count) +
                 " in_use=" + std::to_string(e.in_use));
      }
      if (!e.in_use) continue;
      if (hv_.FindDomain(e.grantee) == nullptr) {
        Emit(r, AuditSubsystem::kGrantTable, "grant.grantee_exists",
             AuditSeverity::kLatent,
             "domain " + std::to_string(dom.id) + " grant " + std::to_string(g) +
                 " granted to nonexistent domain " +
                 std::to_string(e.grantee));
      }
      const bool frame_ok =
          e.frame < static_cast<hv::FrameNumber>(frames.size()) &&
          frames.desc(e.frame).type != hv::FrameType::kFree &&
          frames.desc(e.frame).owner == dom.id;
      if (!frame_ok) {
        Emit(r, AuditSubsystem::kGrantTable, "grant.frame_owner",
             AuditSeverity::kLatent,
             "domain " + std::to_string(dom.id) + " grant " + std::to_string(g) +
                 " covers frame " + std::to_string(e.frame) +
                 " it does not own");
      }
    }
  }
}

// --- Per-CPU ---------------------------------------------------------------

void StateAuditor::AuditPerCpu(AuditReport& r) {
  if (hv_.frozen()) return;
  hv::PerCpuList& pcpus = hv_.percpu();
  r.modeled_cost += static_cast<sim::Duration>(pcpus.size()) * kLockCost;
  for (std::size_t c = 0; c < pcpus.size(); ++c) {
    if (pcpus[c].local_irq_count != 0) {
      Emit(r, AuditSubsystem::kPerCpu, "percpu.irq_count",
           AuditSeverity::kFatal,
           "cpu" + std::to_string(c) + " local_irq_count=" +
               std::to_string(pcpus[c].local_irq_count) +
               " at a quiescent point: ASSERT(!in_irq()) panics on the "
               "next schedule");
    }
  }
}

// --- Statics ---------------------------------------------------------------

void StateAuditor::AuditStatics(AuditReport& r) {
  const hv::StaticDataSegment& statics = hv_.statics();
  r.modeled_cost += static_cast<sim::Duration>(hv::kNumStaticVars) *
                    kStaticCost;
  for (int i = 0; i < hv::kNumStaticVars; ++i) {
    const auto v = static_cast<hv::StaticVar>(i);
    if (!statics.corrupted(v)) continue;
    const AuditSeverity sev =
        statics.benign(v) ? AuditSeverity::kInfo : AuditSeverity::kFatal;
    Emit(r, AuditSubsystem::kStatics, "static.corrupted", sev,
         "static '" + std::string(hv::StaticVarName(v)) + "' corrupted" +
             (statics.benign(v) ? " (benign)"
                                : ": panics or hangs at its use site"));
  }
}

// --- PrivVM backend --------------------------------------------------------

void StateAuditor::AuditPrivVmBackend(AuditReport& r) {
  if (privvm_ == nullptr) return;
  r.modeled_cost += static_cast<sim::Duration>(
                        privvm_->blk_conns().size() * hv::kGrantTableSize + 1) *
                    kGrantCost;

  if (privvm_->crashed() || privvm_->kernel_state_corrupted()) {
    Emit(r, AuditSubsystem::kPrivVmBackend, "privvm.kernel_alive",
         AuditSeverity::kFatal,
         privvm_->crashed()
             ? "backend kernel crashed: " + privvm_->crash_reason()
             : "backend kernel state corrupted: crashes on next slice");
  }

  const guest::PrivVmKernel::BlkOp& op = privvm_->blk_op();
  if (op.active &&
      (op.conn < 0 ||
       static_cast<std::size_t>(op.conn) >= privvm_->blk_conns().size() ||
       privvm_->blk_conns()[static_cast<std::size_t>(op.conn)].ring ==
           nullptr)) {
    Emit(r, AuditSubsystem::kPrivVmBackend, "privvm.op_conn_valid",
         AuditSeverity::kFatal,
         "in-flight backend op references connection " +
             std::to_string(op.conn) + " which does not exist");
  }

  // Backend mapping census: the sequential pipeline holds at most one
  // mapping — of the in-flight op's grant, and only in its map..unmap
  // window. Anything else is a leaked mapping that blocks the frontend's
  // revoke forever.
  for (const guest::PrivVmKernel::BlkConn& conn : privvm_->blk_conns()) {
    const hv::Domain* dom = hv_.FindDomain(conn.frontend);
    if (dom == nullptr) continue;
    for (hv::GrantRef g = 0; g < hv::kGrantTableSize; ++g) {
      const hv::GrantEntry& e = dom->grants.At(g);
      if (!e.in_use || e.grantee != hv::kPrivVmId || e.map_count <= 0) {
        continue;
      }
      const bool held_by_op = op.active && op.req.gref == g &&
                              op.conn >= 0 &&
                              static_cast<std::size_t>(op.conn) <
                                  privvm_->blk_conns().size() &&
                              privvm_->blk_conns()[static_cast<std::size_t>(
                                                       op.conn)]
                                      .frontend == conn.frontend;
      const int allowed = held_by_op ? 1 : 0;
      if (e.map_count > allowed) {
        Emit(r, AuditSubsystem::kPrivVmBackend, "privvm.backend_grant_leak",
             AuditSeverity::kLatent,
             "domain " + std::to_string(dom->id) + " grant " +
                 std::to_string(g) + " mapped " + std::to_string(e.map_count) +
                 "x by the backend with no op holding it: revoke wedges");
      }
    }
  }

  // Lost-response census: every id a frontend still waits on must exist
  // somewhere — queued on the ring, in flight in the backend, or answered.
  for (const guest::AppVmKernel* fe : frontends_) {
    if (fe == nullptr) continue;
    const guest::BlkRing* ring = nullptr;
    for (const guest::PrivVmKernel::BlkConn& conn : privvm_->blk_conns()) {
      if (conn.frontend == fe->domain()) {
        ring = conn.ring;
        break;
      }
    }
    if (ring == nullptr) continue;
    r.modeled_cost +=
        static_cast<sim::Duration>(fe->blk_outstanding().size() + 1) *
        kGrantCost;
    for (const guest::AppVmKernel::OutstandingIo& io : fe->blk_outstanding()) {
      bool known = op.active && op.req.id == io.id;
      for (const guest::BlkRequest& q : ring->requests) {
        known = known || q.id == io.id;
      }
      for (const guest::BlkResponse& q : ring->responses) {
        known = known || q.id == io.id;
      }
      if (!known) {
        Emit(r, AuditSubsystem::kPrivVmBackend, "privvm.lost_response",
             AuditSeverity::kLatent,
             "frontend domain " + std::to_string(fe->domain()) +
                 " waits on request " + std::to_string(io.id) +
                 " which exists nowhere in the backend: frontend wedges");
      }
    }
  }
}

// --- I/O rings -------------------------------------------------------------

void StateAuditor::AuditIoRings(AuditReport& r) {
  if (privvm_ == nullptr) return;
  for (const guest::PrivVmKernel::BlkConn& conn : privvm_->blk_conns()) {
    if (conn.ring == nullptr) continue;
    r.modeled_cost += static_cast<sim::Duration>(conn.ring->requests.size() +
                                                 conn.ring->responses.size() +
                                                 1) *
                      kGrantCost;

    if (!conn.ring->CountersConsistent()) {
      Emit(r, AuditSubsystem::kIoRing, "io_ring.counters",
           AuditSeverity::kLatent,
           "ring for domain " + std::to_string(conn.frontend) +
               ": producer/consumer indices disagree with the live window "
               "(req " +
               std::to_string(conn.ring->req_produced) + "/" +
               std::to_string(conn.ring->req_consumed) + " resp " +
               std::to_string(conn.ring->resp_produced) + "/" +
               std::to_string(conn.ring->resp_consumed) + ")");
    }

    const auto check_dups = [&](const auto& dq, const char* side) {
      for (auto it = dq.begin(); it != dq.end(); ++it) {
        for (auto jt = std::next(it); jt != dq.end(); ++jt) {
          if (it->id == jt->id) {
            Emit(r, AuditSubsystem::kIoRing, "io_ring.duplicate_id",
                 AuditSeverity::kLatent,
                 "ring for domain " + std::to_string(conn.frontend) +
                     ": duplicate " + side + " id " + std::to_string(it->id) +
                     " (same grant served twice)");
            return;  // one finding per side per ring
          }
        }
      }
    };
    check_dups(conn.ring->requests, "request");
    check_dups(conn.ring->responses, "response");
  }

  // Responses no frontend asked for (the other face of a duplicated serve:
  // the frontend drains the first copy and the orphan lingers).
  for (const guest::AppVmKernel* fe : frontends_) {
    if (fe == nullptr) continue;
    const guest::BlkRing* ring = nullptr;
    for (const guest::PrivVmKernel::BlkConn& conn : privvm_->blk_conns()) {
      if (conn.frontend == fe->domain()) {
        ring = conn.ring;
        break;
      }
    }
    if (ring == nullptr) continue;
    for (const guest::BlkResponse& resp : ring->responses) {
      bool expected = false;
      for (const guest::AppVmKernel::OutstandingIo& io :
           fe->blk_outstanding()) {
        expected = expected || io.id == resp.id;
      }
      if (!expected) {
        Emit(r, AuditSubsystem::kIoRing, "io_ring.response_unmatched",
             AuditSeverity::kLatent,
             "ring for domain " + std::to_string(fe->domain()) +
                 ": response " + std::to_string(resp.id) +
                 " matches no outstanding request");
      }
    }
  }
}

// --- Differential ----------------------------------------------------------

void StateAuditor::AuditDiff(AuditReport& r, const GoldenSnapshot& snap) {
  if (!snap.captured) return;
  const GoldenSnapshot now = GoldenSnapshot::Capture(hv_);
  r.modeled_cost += static_cast<sim::Duration>(now.heap_objects + 8) *
                    kHeapObjectCost;

  if (now.frames_allocated != snap.frames_allocated) {
    Emit(r, AuditSubsystem::kDiff, "diff.frame_population",
         AuditSeverity::kInfo,
         "allocated frames " + std::to_string(snap.frames_allocated) +
             " -> " + std::to_string(now.frames_allocated));
  }

  std::uint64_t created = 0, vanished = 0;
  for (hv::HeapObjectId id : now.heap_object_ids) {
    if (snap.heap_object_ids.count(id) == 0) ++created;
  }
  for (hv::HeapObjectId id : snap.heap_object_ids) {
    if (now.heap_object_ids.count(id) == 0) ++vanished;
  }
  if (created != 0 || vanished != 0) {
    Emit(r, AuditSubsystem::kDiff, "diff.heap_objects", AuditSeverity::kInfo,
         "heap objects since snapshot: +" + std::to_string(created) + " -" +
             std::to_string(vanished) + " (pages " +
             std::to_string(snap.heap_allocated_pages) + " -> " +
             std::to_string(now.heap_allocated_pages) + ")");
  }

  for (const auto& [cpu, count] : snap.recurring_timers_by_cpu) {
    auto it = now.recurring_timers_by_cpu.find(cpu);
    const int live = (it == now.recurring_timers_by_cpu.end()) ? 0 : it->second;
    if (live < count) {
      Emit(r, AuditSubsystem::kDiff, "diff.recurring_timers",
           AuditSeverity::kInfo,
           "cpu" + std::to_string(cpu) + " recurring timers " +
               std::to_string(count) + " -> " + std::to_string(live));
    }
  }

  if (now.open_event_ports < snap.open_event_ports) {
    Emit(r, AuditSubsystem::kDiff, "diff.event_ports", AuditSeverity::kInfo,
         "open event ports " + std::to_string(snap.open_event_ports) +
             " -> " + std::to_string(now.open_event_ports));
  }

  for (hv::DomainId id : snap.domains) {
    if (hv_.domains().count(id) == 0) {
      Emit(r, AuditSubsystem::kDiff, "diff.domain_vanished",
           AuditSeverity::kInfo,
           "domain " + std::to_string(id) +
               " present at snapshot time no longer exists");
    }
  }
}

// --- Orchestration ---------------------------------------------------------

void StateAuditor::RunPass(AuditSubsystem subsystem, AuditReport& r,
                           const GoldenSnapshot* snapshot) {
  switch (subsystem) {
    case AuditSubsystem::kFrameTable: AuditFrameTable(r); break;
    case AuditSubsystem::kHeap: AuditHeap(r); break;
    case AuditSubsystem::kTimer: AuditTimers(r); break;
    case AuditSubsystem::kScheduler: AuditScheduler(r); break;
    case AuditSubsystem::kLocks: AuditLocks(r); break;
    case AuditSubsystem::kEventChannel: AuditEventChannels(r); break;
    case AuditSubsystem::kGrantTable: AuditGrantTables(r); break;
    case AuditSubsystem::kPerCpu: AuditPerCpu(r); break;
    case AuditSubsystem::kStatics: AuditStatics(r); break;
    case AuditSubsystem::kDiff:
      if (snapshot != nullptr) AuditDiff(r, *snapshot);
      break;
    case AuditSubsystem::kPrivVmBackend: AuditPrivVmBackend(r); break;
    case AuditSubsystem::kIoRing: AuditIoRings(r); break;
  }
}

AuditReport StateAuditor::Run(const GoldenSnapshot* snapshot) {
  AuditReport r;
  const sim::Time start = hv_.Now();
  sim::Time cursor = start;
  forensics::FlightRecorder& recorder = hv_.flight_recorder();
  const std::uint64_t sweep = recorder.OpenSpan();  // 0 when recording off

  const auto run_pass = [&](AuditSubsystem subsystem) {
    const sim::Duration before = r.modeled_cost;
    RunPass(subsystem, r, snapshot);
    const sim::Duration cost = r.modeled_cost - before;
    if (sweep != 0) {
      recorder.Record({.at = cursor,
                       .dur = cost,
                       .kind = forensics::EventKind::kAuditPass,
                       .detail = integrity::SubsystemName(subsystem)});
    }
    cursor += cost;
  };

  for (int i = 0; i < integrity::kNumSurfaces; ++i) {
    run_pass(static_cast<AuditSubsystem>(i));
  }
  if (privvm_ != nullptr) {
    run_pass(AuditSubsystem::kPrivVmBackend);
    run_pass(AuditSubsystem::kIoRing);
  }
  if (snapshot != nullptr) run_pass(AuditSubsystem::kDiff);

  recorder.CloseSpan(sweep, {.at = start,
                            .dur = r.modeled_cost,
                            .kind = forensics::EventKind::kAuditSweep,
                            .detail = {}});
  return r;
}

AuditReport StateAuditor::Audit() { return Run(nullptr); }

AuditReport StateAuditor::Audit(const GoldenSnapshot& snapshot) {
  return Run(&snapshot);
}

}  // namespace nlh::audit
