// Hypercall handlers.
//
// Handlers are sequences of OpContext::Step calls interleaved with real
// mutations of hypervisor structures. Fault injection fires between steps,
// so abandonment leaves genuine partial state. Mutations of critical
// variables are guarded by write-ahead undo records (ctx.LogUndo) in the
// handlers the paper's Section IV enhancement covered; grant_copy, the
// domctl family and physdev_op deliberately lack coverage ("there are
// likely to be several infrequently-used non-idempotent hypercall handlers
// that we have not properly enhanced").
#include "forensics/record.h"
#include "hv/hypervisor.h"
#include "hv/panic.h"

namespace nlh::hv {

std::uint64_t Hypervisor::Dispatch(OpContext& ctx, Vcpu& vc,
                                   HypercallCode code,
                                   const HypercallArgs& args) {
  if (TraitsOf(code).priv_only) {
    Domain* d = FindDomain(vc.domain);
    HvAssert(d != nullptr && d->is_privileged,
             "privileged hypercall from unprivileged domain");
  }
  switch (code) {
    case HypercallCode::kMmuUpdate:
      return DoMmuUpdate(ctx, vc, args);
    case HypercallCode::kPageTablePin:
      return DoPin(ctx, vc, args.arg0);
    case HypercallCode::kPageTableUnpin:
      return DoUnpin(ctx, vc, args.arg0);
    case HypercallCode::kUpdateVaMapping:
      return DoUpdateVaMapping(ctx, vc, args.arg0, args.arg1 != 0);
    case HypercallCode::kMemoryOpIncrease:
      return DoMemoryOp(ctx, vc, true, args.arg0);
    case HypercallCode::kMemoryOpDecrease:
      return DoMemoryOp(ctx, vc, false, args.arg0);
    case HypercallCode::kGrantMap:
      return DoGrantMap(ctx, vc, static_cast<DomainId>(args.arg0),
                        static_cast<GrantRef>(args.arg1));
    case HypercallCode::kGrantUnmap:
      return DoGrantUnmap(ctx, vc, static_cast<DomainId>(args.arg0),
                          static_cast<GrantRef>(args.arg1));
    case HypercallCode::kGrantCopy:
      return DoGrantCopy(ctx, vc, static_cast<DomainId>(args.arg0),
                         static_cast<GrantRef>(args.arg1));
    case HypercallCode::kEventChannelSend:
      return DoEventSend(ctx, vc, static_cast<EventPort>(args.arg0));
    case HypercallCode::kEventChannelAllocUnbound:
      return DoEventAllocUnbound(ctx, vc, static_cast<DomainId>(args.arg0));
    case HypercallCode::kEventChannelBindInterdomain:
      return DoEventBind(ctx, vc, static_cast<DomainId>(args.arg0),
                         static_cast<EventPort>(args.arg1));
    case HypercallCode::kEventChannelClose:
      return DoEventClose(ctx, vc, static_cast<EventPort>(args.arg0));
    case HypercallCode::kSchedOpYield:
    case HypercallCode::kSchedOpBlock:
    case HypercallCode::kSchedOpShutdown:
      return DoSchedOp(ctx, vc, code);
    case HypercallCode::kSetTimerOp:
      return DoSetTimer(ctx, vc, static_cast<sim::Time>(args.arg0));
    case HypercallCode::kConsoleIo:
      return DoConsoleIo(ctx, vc);
    case HypercallCode::kDomctlCreate:
      return DoDomctlCreate(ctx, vc, args);
    case HypercallCode::kDomctlDestroy:
      return DoDomctlDestroy(ctx, vc, static_cast<DomainId>(args.arg0));
    case HypercallCode::kDomctlUnpause:
      return DoDomctlUnpause(ctx, vc, static_cast<DomainId>(args.arg0));
    case HypercallCode::kVcpuOpUp:
      ctx.Step(cost::kDomctlSmall, "vcpu-up");
      return 0;
    case HypercallCode::kXenVersion:
      ctx.Step(50, "xen-version");
      return 40002;  // "4.2"-ish
    case HypercallCode::kMulticall:
      return DoMulticall(ctx, vc, args);
    case HypercallCode::kPhysdevOp:
      return DoPhysdevOp(ctx, vc);
    case HypercallCode::kCount:
      break;
  }
  throw HvPanic("unknown hypercall");
}

// ---------------------------------------------------------------------------
// Memory management
// ---------------------------------------------------------------------------

namespace {
// Resolves a guest-relative frame index to a physical frame of the domain.
// Guests almost always pass an in-range index; only others pay the divide.
FrameNumber GuestFrame(const Domain& dom, std::uint64_t index) {
  HvAssert(dom.num_frames > 0, "domain has no memory");
  return dom.first_frame +
         (index < dom.num_frames ? index : index % dom.num_frames);
}
}  // namespace

std::uint64_t Hypervisor::DoMmuUpdate(OpContext& ctx, Vcpu& vc,
                                      const HypercallArgs& a) {
  Domain* dom = FindDomain(vc.domain);
  HvAssert(dom != nullptr, "mmu_update from unknown domain");
  HvBugOn(dom->struct_corrupted, "corrupted domain struct in mmu_update");
  statics_.Use(StaticVar::kM2PTableBase);
  statics_.Use(StaticVar::kFrameTableBase);

  SpinLock* dlock = heap_.LockOf(dom->struct_obj);
  HvAssert(dlock != nullptr, "domain lock missing");
  ctx.Lock(*dlock);

  const FrameNumber f = GuestFrame(*dom, a.arg0);
  const std::size_t slot = static_cast<std::size_t>(f - dom->first_frame);
  const bool map = (a.arg1 != 0);
  ctx.Step(cost::kMmuUpdatePerEntry, "pte-walk");

  PageFrameDescriptor& d = frames_.mutable_desc(f);
  const std::int32_t old = d.use_count;
  const bool old_present = dom->pte_present[slot];
  if (map) {
    // Installing over a present PTE is a validation error (the hazard a
    // double-applied retry trips).
    HvAssert(!old_present, "mmu_update: PTE already present");
    frames_.GetPage(f);
    dom->pte_present[slot] = true;
  } else {
    HvAssert(old_present, "mmu_update: clearing a non-present PTE");
    frames_.PutPage(f);
    dom->pte_present[slot] = false;
  }
  const DomainId domid = dom->id;
  ctx.LogUndo([this, f, old, old_present, domid, slot] {
    frames_.mutable_desc(f).use_count = old;
    Domain* d2 = FindDomain(domid);
    if (d2 != nullptr && slot < d2->pte_present.size()) {
      d2->pte_present[slot] = old_present;
    }
  });
  ctx.Step(90, "pte-commit");
  // TLB shootdown + flush sync after the PTE write: a wide window in which
  // the critical mutation is done but the hypercall has not completed.
  ctx.Step(260, "tlb-shootdown");
  ctx.Unlock(*dlock);
  return 0;
}

std::uint64_t Hypervisor::DoPin(OpContext& ctx, Vcpu& vc, std::uint64_t idx) {
  Domain* dom = FindDomain(vc.domain);
  HvAssert(dom != nullptr, "pin from unknown domain");
  HvBugOn(dom->struct_corrupted, "corrupted domain struct in pt_pin");
  statics_.Use(StaticVar::kM2PTableBase);
  statics_.Use(StaticVar::kFrameTableBase);

  SpinLock* dlock = heap_.LockOf(dom->struct_obj);
  HvAssert(dlock != nullptr, "domain lock missing");
  ctx.Lock(*dlock);

  const FrameNumber f = GuestFrame(*dom, idx);
  // Long validation walk before any mutation — a large harmless-abandonment
  // window once retry is in place.
  ctx.Step(cost::kPinValidate, "pin-validate");

  PageFrameDescriptor& d = frames_.mutable_desc(f);
  {
    const std::int32_t old_count = d.use_count;
    const bool old_valid = d.validated;
    const FrameType old_type = d.type;
    frames_.GetPage(f);
    frames_.ValidatePageTable(f);
    ctx.LogUndo([this, f, old_count, old_valid, old_type] {
      PageFrameDescriptor& pd = frames_.mutable_desc(f);
      pd.use_count = old_count;
      pd.validated = old_valid;
      pd.type = old_type;
    });
  }
  ctx.Step(cost::kPinCommit, "pin-commit");
  // Flush stale translations of the now-pinned table (wide dirty window).
  ctx.Step(420, "pin-tlb-flush");
  ctx.Unlock(*dlock);
  return 0;
}

std::uint64_t Hypervisor::DoUnpin(OpContext& ctx, Vcpu& vc, std::uint64_t idx) {
  Domain* dom = FindDomain(vc.domain);
  HvAssert(dom != nullptr, "unpin from unknown domain");
  HvBugOn(dom->struct_corrupted, "corrupted domain struct in pt_unpin");
  statics_.Use(StaticVar::kFrameTableBase);

  SpinLock* dlock = heap_.LockOf(dom->struct_obj);
  HvAssert(dlock != nullptr, "domain lock missing");
  ctx.Lock(*dlock);

  const FrameNumber f = GuestFrame(*dom, idx);
  ctx.Step(cost::kUnpin, "unpin-walk");
  PageFrameDescriptor& d = frames_.mutable_desc(f);
  {
    const std::int32_t old_count = d.use_count;
    const bool old_valid = d.validated;
    const FrameType old_type = d.type;
    frames_.InvalidatePageTable(f);
    frames_.PutPage(f);
    ctx.LogUndo([this, f, old_count, old_valid, old_type] {
      PageFrameDescriptor& pd = frames_.mutable_desc(f);
      pd.use_count = old_count;
      pd.validated = old_valid;
      pd.type = old_type;
    });
  }
  ctx.Step(60, "unpin-commit");
  ctx.Step(380, "unpin-tlb-flush");
  ctx.Unlock(*dlock);
  return 0;
}

std::uint64_t Hypervisor::DoUpdateVaMapping(OpContext& ctx, Vcpu& vc,
                                            std::uint64_t idx, bool map) {
  HypercallArgs a;
  a.arg0 = idx;
  a.arg1 = map ? 1 : 0;
  // Same core operation as a single-entry mmu_update, lighter path.
  ctx.Step(cost::kUpdateVaMapping - cost::kMmuUpdatePerEntry > 0
               ? cost::kUpdateVaMapping - cost::kMmuUpdatePerEntry
               : 60,
           "va-fastpath");
  return DoMmuUpdate(ctx, vc, a);
}

std::uint64_t Hypervisor::DoMemoryOp(OpContext& ctx, Vcpu& vc, bool increase,
                                     std::uint64_t nframes) {
  Domain* dom = FindDomain(vc.domain);
  HvAssert(dom != nullptr, "memory_op from unknown domain");
  statics_.Use(StaticVar::kFrameTableBase);
  ctx.Lock(heap_lock_);
  if (nframes == 0) nframes = 1;
  if (nframes > 8) nframes = 8;
  for (std::uint64_t i = 0; i < nframes; ++i) {
    ctx.Step(cost::kMemoryOpPerFrame, "memory-op-frame");
    if (increase) {
      const FrameNumber f = frames_.Alloc(1, FrameType::kDomainPage, dom->id);
      dom->extra_frames.push_back(f);
      const DomainId id = dom->id;
      ctx.LogUndo([this, id, f] {
        Domain* d2 = FindDomain(id);
        if (d2 != nullptr && !d2->extra_frames.empty() &&
            d2->extra_frames.back() == f) {
          d2->extra_frames.pop_back();
        }
        if (frames_.desc(f).type != FrameType::kFree) frames_.FreeOne(f);
      });
    } else {
      if (dom->extra_frames.empty()) break;
      const FrameNumber f = dom->extra_frames.back();
      dom->extra_frames.pop_back();
      const DomainId id = dom->id;
      frames_.FreeOne(f);
      ctx.LogUndo([this, id, f] {
        if (frames_.desc(f).type == FrameType::kFree) {
          // Undo of a free: re-allocate the same frame to the domain. The
          // free-list order makes this approximate; the frame scan cleans
          // up any residue.
          Domain* d2 = FindDomain(id);
          const FrameNumber nf =
              frames_.Alloc(1, FrameType::kDomainPage, id);
          if (d2 != nullptr) d2->extra_frames.push_back(nf);
        }
      });
    }
  }
  ctx.Unlock(heap_lock_);
  return nframes;
}

// ---------------------------------------------------------------------------
// Grants
// ---------------------------------------------------------------------------

std::uint64_t Hypervisor::DoGrantMap(OpContext& ctx, Vcpu& vc, DomainId granter,
                                     GrantRef ref) {
  (void)vc;
  Domain* g = FindDomain(granter);
  HvAssert(g != nullptr, "grant_map: unknown granter");
  HvBugOn(g->struct_corrupted, "corrupted domain struct in grant_map");
  statics_.Use(StaticVar::kFrameTableBase);
  SpinLock* glock = heap_.LockOf(g->grant_obj);
  HvAssert(glock != nullptr, "grant table lock missing");
  ctx.Lock(*glock);
  GrantEntry& e = g->grants.At(ref);
  HvAssert(e.in_use, "grant_map: mapping an unused grant");
  ctx.Step(cost::kGrantMap, "grant-map");
  {
    const int old_map = e.map_count;
    const std::int32_t old_count = frames_.desc(e.frame).use_count;
    ++e.map_count;
    NLH_INTEGRITY_NOTE(g->grants.ledger(), integrity::Surface::kGrantTable);
    frames_.GetPage(e.frame);
    GrantEntry* ep = &e;
    ctx.LogUndo([this, ep, old_map, old_count] {
      ep->map_count = old_map;
      frames_.mutable_desc(ep->frame).use_count = old_count;
    });
  }
  ctx.Step(90, "grant-map-commit");
  ctx.Step(240, "grant-map-sync");
  ctx.Unlock(*glock);
  return 0;
}

std::uint64_t Hypervisor::DoGrantUnmap(OpContext& ctx, Vcpu& vc,
                                       DomainId granter, GrantRef ref) {
  (void)vc;
  Domain* g = FindDomain(granter);
  HvAssert(g != nullptr, "grant_unmap: unknown granter");
  statics_.Use(StaticVar::kFrameTableBase);
  SpinLock* glock = heap_.LockOf(g->grant_obj);
  HvAssert(glock != nullptr, "grant table lock missing");
  ctx.Lock(*glock);
  GrantEntry& e = g->grants.At(ref);
  HvAssert(e.map_count > 0, "grant_unmap: entry not mapped");
  ctx.Step(cost::kGrantUnmap, "grant-unmap");
  {
    const int old_map = e.map_count;
    const std::int32_t old_count = frames_.desc(e.frame).use_count;
    --e.map_count;
    NLH_INTEGRITY_NOTE(g->grants.ledger(), integrity::Surface::kGrantTable);
    frames_.PutPage(e.frame);
    GrantEntry* ep = &e;
    ctx.LogUndo([this, ep, old_map, old_count] {
      ep->map_count = old_map;
      frames_.mutable_desc(ep->frame).use_count = old_count;
    });
  }
  ctx.Step(70, "grant-unmap-commit");
  ctx.Step(220, "grant-unmap-tlb");
  ctx.Unlock(*glock);
  return 0;
}

std::uint64_t Hypervisor::DoGrantCopy(OpContext& ctx, Vcpu& vc,
                                      DomainId granter, GrantRef ref) {
  (void)vc;
  // NOT retry-enhanced (Section IV): no undo records. A retried grant_copy
  // re-executes its mutations; the frontend detects the duplicated transfer
  // through xfer_count and surfaces an I/O error.
  Domain* g = FindDomain(granter);
  HvAssert(g != nullptr, "grant_copy: unknown granter");
  statics_.Use(StaticVar::kFrameTableBase);
  SpinLock* glock = heap_.LockOf(g->grant_obj);
  HvAssert(glock != nullptr, "grant table lock missing");
  ctx.Lock(*glock);
  GrantEntry& e = g->grants.At(ref);
  HvAssert(e.in_use, "grant_copy: unused grant");
  ++e.map_count;  // transfer in progress (pins the frame)
  NLH_INTEGRITY_NOTE(g->grants.ledger(), integrity::Surface::kGrantTable);
  frames_.GetPage(e.frame);
  ctx.Step(cost::kGrantCopy / 2, "grant-copy-first-half");
  ++e.xfer_count;  // the non-idempotent critical mutation, uncovered
  NLH_INTEGRITY_NOTE(g->grants.ledger(), integrity::Surface::kGrantTable);
  ctx.Step(cost::kGrantCopy - cost::kGrantCopy / 2, "grant-copy-second-half");
  frames_.PutPage(e.frame);
  --e.map_count;
  NLH_INTEGRITY_NOTE(g->grants.ledger(), integrity::Surface::kGrantTable);
  ctx.Step(40, "grant-copy-done");
  ctx.Unlock(*glock);
  return 0;
}

// ---------------------------------------------------------------------------
// Event channels
// ---------------------------------------------------------------------------

std::uint64_t Hypervisor::DoEventSend(OpContext& ctx, Vcpu& vc,
                                      EventPort port) {
  Domain* dom = FindDomain(vc.domain);
  HvAssert(dom != nullptr, "evtchn_send from unknown domain");
  statics_.Use(StaticVar::kEvtchnBucketPtr);
  SpinLock* elock = heap_.LockOf(dom->evtchn_obj);
  HvAssert(elock != nullptr, "evtchn lock missing");
  ctx.Lock(*elock);
  ctx.Step(cost::kEventSend, "evtchn-send");
  const EventChannel& ch = dom->evtchn.At(port);
  HvAssert(ch.state == ChannelState::kInterdomain,
           "evtchn_send on an unbound port");
  SendEventToPort(ch.remote_domain, ch.remote_port, &ctx);
  ctx.Unlock(*elock);
  return 0;
}

std::uint64_t Hypervisor::DoEventAllocUnbound(OpContext& ctx, Vcpu& vc,
                                              DomainId remote) {
  Domain* dom = FindDomain(vc.domain);
  HvAssert(dom != nullptr, "evtchn_alloc from unknown domain");
  statics_.Use(StaticVar::kEvtchnBucketPtr);
  SpinLock* elock = heap_.LockOf(dom->evtchn_obj);
  HvAssert(elock != nullptr, "evtchn lock missing");
  ctx.Lock(*elock);
  ctx.Step(cost::kEventSetup, "evtchn-alloc");
  const EventPort p = dom->evtchn.AllocUnbound(remote, dom->vcpus.front());
  ctx.Unlock(*elock);
  return static_cast<std::uint64_t>(p);
}

std::uint64_t Hypervisor::DoEventBind(OpContext& ctx, Vcpu& vc,
                                      DomainId remote, EventPort remote_port) {
  Domain* dom = FindDomain(vc.domain);
  Domain* rdom = FindDomain(remote);
  HvAssert(dom != nullptr && rdom != nullptr, "evtchn_bind: unknown domain");
  statics_.Use(StaticVar::kEvtchnBucketPtr);
  ctx.Lock(evtchn_lock_);
  ctx.Step(cost::kEventSetup, "evtchn-bind");
  // Allocate a local port bound to the remote's unbound port, then flip the
  // remote end to interdomain as well.
  const EventPort local = dom->evtchn.AllocUnbound(remote, dom->vcpus.front());
  dom->evtchn.BindInterdomain(local, remote, remote_port);
  rdom->evtchn.BindInterdomain(remote_port, dom->id, local);
  ctx.Step(80, "evtchn-bind-commit");
  ctx.Unlock(evtchn_lock_);
  return static_cast<std::uint64_t>(local);
}

std::uint64_t Hypervisor::DoEventClose(OpContext& ctx, Vcpu& vc,
                                       EventPort port) {
  Domain* dom = FindDomain(vc.domain);
  HvAssert(dom != nullptr, "evtchn_close from unknown domain");
  ctx.Lock(evtchn_lock_);
  ctx.Step(cost::kEventSetup / 2, "evtchn-close");
  dom->evtchn.Close(port);
  ctx.Unlock(evtchn_lock_);
  return 0;
}

// ---------------------------------------------------------------------------
// Scheduling / timers / console
// ---------------------------------------------------------------------------

std::uint64_t Hypervisor::DoSchedOp(OpContext& ctx, Vcpu& vc,
                                    HypercallCode code) {
  ctx.Step(cost::kSchedOp, "sched-op");
  switch (code) {
    case HypercallCode::kSchedOpYield:
      need_resched_[static_cast<std::size_t>(vc.pinned_cpu)] = true;
      return 0;
    case HypercallCode::kSchedOpBlock:
      if (vc.has_pending_events()) return 1;  // events pending: do not block
      ctx.Step(60, "block-commit");
      vc.state = VcpuState::kBlocked;
      NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kScheduler);
      return 0;
    case HypercallCode::kSchedOpShutdown: {
      Domain* dom = FindDomain(vc.domain);
      if (dom != nullptr) dom->lifecycle = DomainLifecycle::kShutdown;
      vc.state = VcpuState::kBlocked;
      NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kScheduler);
      return 0;
    }
    default:
      throw HvPanic("bad sched_op");
  }
}

std::uint64_t Hypervisor::DoSetTimer(OpContext& ctx, Vcpu& vc,
                                     sim::Time deadline) {
  statics_.Use(StaticVar::kTimerSubsysState);
  ctx.Step(cost::kSetTimerOp, "set-timer");
  TimerHeap& th = timers(vc.pinned_cpu);
  std::string name = "vtimer:" + std::to_string(vc.id);
  th.RemoveByName(name);
  vc.vtimer_deadline = deadline > 0 ? deadline : 0;
  NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kTimer);
  if (deadline > 0) {
    SoftTimer t;
    t.name = std::move(name);
    t.deadline = deadline;
    t.period = 0;
    const VcpuId v = vc.id;
    t.callback = [this, v] { DeliverVirqTimer(v); };
    th.Insert(std::move(t));
    ProgramApicFromHeap(vc.pinned_cpu);
    ctx.Step(cost::kApicReprogram, "set-timer-reprogram");
  }
  return 0;
}

std::uint64_t Hypervisor::DoConsoleIo(OpContext& ctx, Vcpu& vc) {
  (void)vc;
  statics_.Use(StaticVar::kConsoleState);  // benign if corrupted
  ctx.Lock(console_lock_);
  ctx.Step(cost::kConsoleIo, "console-io");
  ctx.Unlock(console_lock_);
  return 0;
}

// ---------------------------------------------------------------------------
// Toolstack (PrivVM only)
// ---------------------------------------------------------------------------

std::uint64_t Hypervisor::DoDomctlCreate(OpContext& ctx, Vcpu& vc,
                                         const HypercallArgs& a) {
  (void)vc;
  // NOT retry-enhanced: the multi-step creation has no undo coverage.
  statics_.Use(StaticVar::kDomainListHead);
  ctx.Lock(domlist_lock_);
  ctx.Step(cost::kDomctlCreate / 4, "create-alloc");
  const hw::CpuId pin = static_cast<hw::CpuId>(a.arg0);
  const std::uint64_t nframes = (a.arg1 > 0) ? a.arg1 : 64;
  ctx.Step(cost::kDomctlCreate / 4, "create-memory");
  const DomainId id =
      CreateDomainDirect("dom" + std::to_string(next_domid_), false, pin,
                         nframes);
  ctx.Step(cost::kDomctlCreate / 4, "create-vcpus");
  ctx.Step(cost::kDomctlCreate / 4, "create-link");
  ctx.Unlock(domlist_lock_);
  NLH_RECORD(forensics::EventKind::kDomainCreate, -1,
             static_cast<std::uint64_t>(id), nframes);
  return static_cast<std::uint64_t>(id);
}

std::uint64_t Hypervisor::DoDomctlDestroy(OpContext& ctx, Vcpu& vc,
                                          DomainId target) {
  (void)vc;
  statics_.Use(StaticVar::kDomainListHead);
  ctx.Lock(domlist_lock_);
  ctx.Step(cost::kDomctlDestroy / 2, "destroy-teardown");
  DestroyDomainInternal(ctx, target);
  ctx.Step(cost::kDomctlDestroy / 2, "destroy-free");
  ctx.Unlock(domlist_lock_);
  NLH_RECORD(forensics::EventKind::kDomainDestroy, -1,
             static_cast<std::uint64_t>(target));
  return 0;
}

std::uint64_t Hypervisor::DoDomctlUnpause(OpContext& ctx, Vcpu& vc,
                                          DomainId target) {
  (void)vc;
  statics_.Use(StaticVar::kDomainListHead);
  ctx.Step(cost::kDomctlSmall, "unpause");
  StartDomain(target);
  return 0;
}

void Hypervisor::DestroyDomainInternal(OpContext& ctx, DomainId id) {
  Domain* dom = FindDomain(id);
  HvAssert(dom != nullptr, "destroying unknown domain");
  HvAssert(!dom->is_privileged, "destroying the PrivVM");
  dom->lifecycle = DomainLifecycle::kDead;
  for (VcpuId v : dom->vcpus) {
    Vcpu& vcp = vcpu(v);
    if (vcp.rq_queued) {
      RunqueueRemove(percpu_[static_cast<std::size_t>(vcp.pinned_cpu)], vcpus_,
                     v);
    }
    if (vcp.is_current && vcp.running_on >= 0) {
      percpu_[static_cast<std::size_t>(vcp.running_on)].curr = kInvalidVcpu;
    }
    vcp.state = VcpuState::kOffline;
    vcp.is_current = false;
    vcp.running_on = -1;
  }
  NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kScheduler);
  if (dom->guest != nullptr) dom->guest->OnShutdown(dom->vcpus.front());
  ctx.Step(200, "destroy-pages");
  // Frames and the heap object are deliberately left to a lazy sweeper in
  // real Xen; we release them immediately.
  for (FrameNumber f : dom->extra_frames) frames_.FreeOne(f);
  dom->extra_frames.clear();
}

// ---------------------------------------------------------------------------
// HVM VM exits
// ---------------------------------------------------------------------------

std::uint64_t Hypervisor::DispatchVmExit(OpContext& ctx, Vcpu& vc,
                                         VmExitReason reason,
                                         std::uint64_t arg) {
  Domain* dom = FindDomain(vc.domain);
  HvAssert(dom != nullptr, "VM exit from unknown domain");
  HvBugOn(dom->struct_corrupted, "corrupted domain struct in VM exit");
  switch (reason) {
    case VmExitReason::kEptViolation: {
      // Build the EPT mapping for the faulting guest-physical page: walk,
      // allocate the entry, take a reference on the frame. The reference is
      // the non-idempotent step guarded by the undo log.
      statics_.Use(StaticVar::kM2PTableBase);
      statics_.Use(StaticVar::kFrameTableBase);
      SpinLock* dlock = heap_.LockOf(dom->struct_obj);
      HvAssert(dlock != nullptr, "domain lock missing");
      ctx.Lock(*dlock);
      const FrameNumber f = dom->first_frame + (arg % dom->num_frames);
      const std::size_t slot = static_cast<std::size_t>(f - dom->first_frame);
      ctx.Step(700, "ept-walk");
      if (dom->pte_present[slot]) {
        // The mapping already exists (e.g. a re-delivered exit after a
        // recovery retried a completed handler): nothing to do — the guest
        // simply would not have faulted.
        ctx.Unlock(*dlock);
        return 0;
      }
      PageFrameDescriptor& d = frames_.mutable_desc(f);
      const std::int32_t old = d.use_count;
      frames_.GetPage(f);
      dom->pte_present[slot] = true;
      const DomainId domid = dom->id;
      ctx.LogUndo([this, f, old, domid, slot] {
        frames_.mutable_desc(f).use_count = old;
        Domain* d2 = FindDomain(domid);
        if (d2 != nullptr) d2->pte_present[slot] = false;
      });
      ctx.Step(120, "ept-install");
      ctx.Unlock(*dlock);
      return 0;
    }
    case VmExitReason::kEptReclaim: {
      statics_.Use(StaticVar::kFrameTableBase);
      SpinLock* dlock = heap_.LockOf(dom->struct_obj);
      HvAssert(dlock != nullptr, "domain lock missing");
      ctx.Lock(*dlock);
      const FrameNumber f = dom->first_frame + (arg % dom->num_frames);
      const std::size_t slot = static_cast<std::size_t>(f - dom->first_frame);
      ctx.Step(400, "ept-reclaim-walk");
      if (!dom->pte_present[slot]) {
        ctx.Unlock(*dlock);  // already reclaimed: no-op, as in hardware
        return 0;
      }
      PageFrameDescriptor& d = frames_.mutable_desc(f);
      const std::int32_t old = d.use_count;
      frames_.PutPage(f);
      dom->pte_present[slot] = false;
      const DomainId domid = dom->id;
      ctx.LogUndo([this, f, old, domid, slot] {
        frames_.mutable_desc(f).use_count = old;
        Domain* d2 = FindDomain(domid);
        if (d2 != nullptr) d2->pte_present[slot] = true;
      });
      ctx.Step(80, "ept-uninstall");
      ctx.Unlock(*dlock);
      return 0;
    }
    case VmExitReason::kCpuid:
      ctx.Step(90, "cpuid-emulate");
      return 0;
  }
  throw HvPanic("unknown VM exit reason");
}

// ---------------------------------------------------------------------------
// Multicall & physdev
// ---------------------------------------------------------------------------

std::uint64_t Hypervisor::DoMulticall(OpContext& ctx, Vcpu& vc,
                                      const HypercallArgs& a) {
  // Components before multicall_progress already completed in a previous
  // (abandoned) execution and are skipped — IF completion logging was on.
  const int start = vc.inflight.multicall_progress;
  const int n = static_cast<int>(a.batch.size());
  ctx.Step(100, "multicall-setup");
  // One argument block for every component: a component's arguments are
  // its two words, with arg2 zero and no batch of its own.
  HypercallArgs component;
  for (int i = start; i < n; ++i) {
    const MulticallEntry& e = a.batch[static_cast<std::size_t>(i)];
    // Batch component boundary: the injector's trigger-event conditions can
    // target the window between two components, where abandonment semantics
    // depend on completion logging.
    if (op_observer_) {
      op_observer_(OpEventKind::kMulticallComponent, e.code, ctx.cpu().id());
    }
    component.arg0 = e.arg0;
    component.arg1 = e.arg1;
    Dispatch(ctx, vc, e.code, component);
    // Component complete: its effects are final. Drop its undo records and
    // log progress (Section IV fine-granularity batched retry).
    vc.inflight.undo.Clear();
    ctx.LogBatchComponentDone(i);
  }
  return 0;
}

std::uint64_t Hypervisor::DoPhysdevOp(OpContext& ctx, Vcpu& vc) {
  (void)vc;
  // IRQ rebalance: masks a route, fiddles with it, unmasks. NOT
  // retry-enhanced; abandonment between mask and unmask that is never
  // retried leaves the device silent.
  statics_.Use(StaticVar::kIoApicRoute);
  if (device_bindings_.empty()) {
    ctx.Step(200, "physdev-noop");
    return 0;
  }
  DeviceBinding& b = device_bindings_.begin()->second;
  b.masked = true;
  ctx.ShadowIoApicWrite();
  ctx.Step(300, "physdev-mask");
  ctx.Step(400, "physdev-rewrite");
  b.masked = false;
  ctx.ShadowIoApicWrite();
  ctx.Step(100, "physdev-unmask");
  return 0;
}

}  // namespace nlh::hv
