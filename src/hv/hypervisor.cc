#include "hv/hypervisor.h"

#include <algorithm>
#include <exception>
#include <limits>

#include "forensics/record.h"
#include "hv/panic.h"
#include "sim/json.h"

namespace nlh::hv {

namespace {

constexpr EventPort kVirqTimerPort = 0;  // bit 0 of the pending bitmap

// Machine-state snapshot taken at the moment of first detection, rendered
// straight to JSON so the forensics layer stays independent of hw/hv
// headers: registers of the detecting CPU plus every CPU's hypervisor-side
// state. Capture must be cheap and exception-free — it runs inside
// ReportError before recovery touches anything.
std::string DetectionSnapshotJson(Hypervisor& hv, const DetectionEvent& ev) {
  auto hex = [](std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"0x%llx\"",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  std::string out = "{\"cpu\":" + std::to_string(ev.cpu) +
                    ",\"kind\":" + sim::JsonStr(DetectionKindName(ev.kind)) +
                    ",\"code\":" + sim::JsonStr(FailureCodeName(ev.code)) +
                    ",\"detail\":" + sim::JsonStr(ev.detail);
  const int ncpus = hv.platform().num_cpus();
  if (ev.cpu >= 0 && ev.cpu < ncpus) {
    const hw::RegisterFile& rf = hv.platform().cpu(ev.cpu).regs();
    out += ",\"regs\":{";
    const auto snap = rf.Snapshot();
    for (int r = 0; r < hw::kNumRegs; ++r) {
      if (r != 0) out += ",";
      out += sim::JsonStr(std::string(RegName(static_cast<hw::Reg>(r)))) +
             ":" + hex(snap[static_cast<std::size_t>(r)]);
    }
    out += ",\"fs_base\":" + hex(rf.fs_base) +
           ",\"gs_base\":" + hex(rf.gs_base) + "}";
  }
  out += ",\"per_cpu\":[";
  for (int c = 0; c < ncpus; ++c) {
    const hw::Cpu& cp = hv.platform().cpu(c);
    const PerCpuData& pc = hv.percpu(c);
    if (c != 0) out += ",";
    out += "{\"cpu\":" + std::to_string(c) +
           ",\"local_irq_count\":" + std::to_string(pc.local_irq_count) +
           ",\"curr\":" + std::to_string(pc.curr) +
           ",\"rq_len\":" + std::to_string(pc.rq_len) +
           ",\"watchdog_soft_count\":" +
           std::to_string(pc.watchdog_soft_count) +
           ",\"sched_lock_held\":" + (pc.sched_lock.held() ? "true" : "false") +
           ",\"stack_frames\":" + std::to_string(cp.hv_stack().frames) +
           ",\"stack_top\":" + hex(cp.hv_stack().top) +
           ",\"interrupts_enabled\":" +
           (cp.interrupts_enabled() ? "true" : "false") +
           ",\"halted\":" + (cp.halted() ? "true" : "false") +
           ",\"hung\":" + (cp.hung() ? "true" : "false") + "}";
  }
  out += "]}";
  return out;
}

}  // namespace

// Records a hypervisor entry (hypercall, schedule, timer softirq) as one
// flight-recorder span when it closes, including when a fault unwinds it
// (the span is then marked abandoned). Its simulated duration is the
// instruction cost the OpContext accumulates while it is open (simulated
// time itself does not advance inside a slice). With recording off it
// costs the one enabled test in the constructor.
class CtxSpan {
 public:
  CtxSpan(Hypervisor& hv, const OpContext& ctx, forensics::EventKind kind,
          hw::CpuId cpu)
      : hv_(hv), ctx_(ctx) {
    if (hv.flight_recorder().enabled()) Open(kind, cpu);
  }
  CtxSpan(const CtxSpan&) = delete;
  CtxSpan& operator=(const CtxSpan&) = delete;
  ~CtxSpan() {
    if (id_ != 0) Close();
  }

  // The span's arguments (see forensics::EventKind), kept when it closes.
  void SetArgs(std::uint64_t arg0, std::uint64_t arg1,
               std::uint64_t arg2 = 0) {
    arg0_ = arg0;
    arg1_ = arg1;
    arg2_ = arg2;
  }

 private:
  // Out of line, so the recording-off path inlines to one test each way.
  [[gnu::noinline]] void Open(forensics::EventKind kind, hw::CpuId cpu) {
    id_ = hv_.flight_recorder().OpenSpan();
    kind_ = kind;
    cpu_ = cpu;
    unwinding_ = std::uncaught_exceptions();
    start_ = hv_.Now();
    instr0_ = ctx_.instructions();
  }
  [[gnu::noinline]] void Close() {
    const std::uint64_t instructions = ctx_.instructions() - instr0_;
    const bool hypercall = kind_ == forensics::EventKind::kHypercall;
    hv_.flight_recorder().CloseSpan(
        id_, {.at = start_,
              .dur = hv_.platform().DurationForInstructions(instructions),
              .kind = kind_,
              .abandoned = std::uncaught_exceptions() > unwinding_,
              .cpu = cpu_,
              .arg0 = arg0_,
              .arg1 = arg1_,
              .arg2 = arg2_,
              .detail = hypercall ? std::string(HypercallName(
                                        static_cast<HypercallCode>(arg0_)))
                                  : std::string()});
  }

  Hypervisor& hv_;
  const OpContext& ctx_;
  std::uint64_t id_ = 0;  // 0: recording was off when the span opened
  forensics::EventKind kind_ = forensics::EventKind::kCount;
  hw::CpuId cpu_ = 0;
  int unwinding_ = 0;  // std::uncaught_exceptions() when the span opened
  sim::Time start_ = 0;
  std::uint64_t instr0_ = 0;
  std::uint64_t arg0_ = 0;
  std::uint64_t arg1_ = 0;
  std::uint64_t arg2_ = 0;
};

Hypervisor::Hypervisor(hw::Platform& platform, const HvConfig& config)
    : platform_(platform),
      config_(config),
      frames_(kFrameTableFrames),
      heap_(frames_) {
  recorder_.SetClock([this] { return Now(); });
  frames_.SetLedger(&ledger_);
  heap_.SetLedger(&ledger_);
}

// ---------------------------------------------------------------------------
// Boot and domain setup
// ---------------------------------------------------------------------------

void Hypervisor::Boot() {
  const int ncpus = platform_.num_cpus();
  for (int c = 0; c < ncpus; ++c) {
    percpu_.emplace_back(c);
    timers_.push_back(std::make_unique<TimerHeap>(c));
    timers_.back()->SetLedger(&ledger_);
  }
  slice_instructions_.assign(static_cast<std::size_t>(ncpus), 0);
  busy_until_.assign(static_cast<std::size_t>(ncpus), 0);
  need_resched_.assign(static_cast<std::size_t>(ncpus), false);
  sched_tick_enabled_.assign(static_cast<std::size_t>(ncpus), false);

  // Register every statically-defined lock in the dedicated segment
  // (Section V-A "Unlock static locks").
  static_locks_.Register(&domlist_lock_);
  static_locks_.Register(&evtchn_lock_);
  static_locks_.Register(&grant_lock_);
  static_locks_.Register(&heap_lock_);
  static_locks_.Register(&console_lock_);
  for (PerCpuData& pc : percpu_) static_locks_.Register(&pc.sched_lock);

  frames_.ResetAll();
  heap_.Init(kHeapPages);
  statics_.ResetAll();

  vcpus_.reserve(static_cast<std::size_t>(kMaxVcpus));

  for (int c = 0; c < ncpus; ++c) {
    RegisterRecurringTimers(c);
    ProgramApicFromHeap(c);
  }

  platform_.intc().SetWakeHandler([this](hw::CpuId c) { KickCpu(c); });
  platform_.intc().SetNmiHandler([this](hw::CpuId c) { OnNmi(c); });
  platform_.watchdog_nmi().StartAll();

  booted_ = true;
}

DomainId Hypervisor::CreateDomainDirect(const std::string& name,
                                        bool privileged, hw::CpuId pinned_cpu,
                                        std::uint64_t num_frames) {
  HvAssert(static_cast<int>(vcpus_.size()) < kMaxVcpus,
           "vCPU capacity exhausted");
  const DomainId id = next_domid_++;
  Domain dom;
  dom.evtchn.SetLedger(&ledger_);
  dom.grants.SetLedger(&ledger_);
  dom.id = id;
  dom.name = name;
  dom.is_privileged = privileged;
  dom.lifecycle = DomainLifecycle::kCreating;
  dom.struct_obj = heap_.Alloc("domain:" + name, 2, /*with_lock=*/true);
  dom.grant_obj = heap_.Alloc("gnttab:" + name, 1, /*with_lock=*/true);
  dom.evtchn_obj = heap_.Alloc("evtchn:" + name, 1, /*with_lock=*/true);
  dom.first_frame = frames_.Alloc(num_frames, FrameType::kDomainPage, id);
  dom.num_frames = num_frames;
  dom.pte_present.assign(num_frames, 0);

  Vcpu vc;
  vc.id = static_cast<VcpuId>(vcpus_.size());
  vc.domain = id;
  vc.pinned_cpu = pinned_cpu;
  vc.state = VcpuState::kOffline;
  dom.vcpus.push_back(vc.id);
  vcpus_.push_back(std::move(vc));

  // Port 0 is reserved for the timer virq.
  EventChannel& timer_port = dom.evtchn.At(0);
  timer_port.state = ChannelState::kVirq;
  timer_port.virq = 0;
  timer_port.notify_vcpu = vc.id;
  NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kEventChannel);
  NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kScheduler);

  domains_.Insert(std::move(dom));
  StartSchedTick(pinned_cpu);
  return id;
}

void Hypervisor::AttachGuest(DomainId dom, GuestInterface* guest) {
  Domain* d = FindDomain(dom);
  HvAssert(d != nullptr, "attaching guest to unknown domain");
  d->guest = guest;
}

void Hypervisor::StartDomain(DomainId dom) {
  Domain* d = FindDomain(dom);
  HvAssert(d != nullptr, "starting unknown domain");
  d->lifecycle = DomainLifecycle::kRunning;
  NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kScheduler);
  for (VcpuId v : d->vcpus) {
    Vcpu& vc = vcpu(v);
    if (vc.state == VcpuState::kOffline) {
      vc.state = VcpuState::kRunnable;
      RunqueueInsert(percpu_[static_cast<std::size_t>(vc.pinned_cpu)], vcpus_,
                     v);
    }
    KickCpu(vc.pinned_cpu);
  }
}

// ---------------------------------------------------------------------------
// Recurring timers
// ---------------------------------------------------------------------------

void Hypervisor::RegisterRecurringTimers(hw::CpuId cpu) {
  TimerHeap& th = timers(cpu);
  const sim::Time now = Now();
  // Per-CPU phase stagger: CPUs are brought online sequentially during
  // boot, so their recurring timers are not phase-aligned across the
  // machine (alignment would make every CPU's timer fire at the instant a
  // hang is detected, with pathological consequences for recovery).
  const sim::Duration phase =
      sim::Microseconds(730) * (cpu + 1) +
      (cpu * kWatchdogTickPeriod) / (platform_.num_cpus() + 1);

  SoftTimer wd;
  wd.name = "watchdog_tick";
  wd.deadline = now + kWatchdogTickPeriod + phase;
  wd.period = kWatchdogTickPeriod;
  wd.is_system_recurring = true;
  wd.callback = [this, cpu] {
    ++percpu_[static_cast<std::size_t>(cpu)].watchdog_soft_count;
    NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kPerCpu);
  };
  th.Insert(std::move(wd));

  SoftTimer ts;
  ts.name = "time_sync";
  ts.deadline = now + kTimeSyncPeriod + phase * 3;
  ts.period = kTimeSyncPeriod;
  ts.is_system_recurring = true;
  ts.callback = [this] { statics_.Use(StaticVar::kTscKhz); };
  th.Insert(std::move(ts));

  if (sched_tick_enabled_[static_cast<std::size_t>(cpu)]) {
    SoftTimer st;
    st.name = "sched_tick";
    st.deadline = now + kSchedTickPeriod + phase;
    st.period = kSchedTickPeriod;
    st.is_system_recurring = true;
    st.callback = [this, cpu] { need_resched_[static_cast<std::size_t>(cpu)] = true; };
    th.Insert(std::move(st));
  }
}

void Hypervisor::StartSchedTick(hw::CpuId cpu) {
  if (sched_tick_enabled_[static_cast<std::size_t>(cpu)]) return;
  sched_tick_enabled_[static_cast<std::size_t>(cpu)] = true;
  TimerHeap& th = timers(cpu);
  if (!th.ContainsName("sched_tick")) {
    SoftTimer st;
    st.name = "sched_tick";
    st.deadline = Now() + kSchedTickPeriod + sim::Microseconds(613) * (cpu + 1);
    st.period = kSchedTickPeriod;
    st.is_system_recurring = true;
    st.callback = [this, cpu] { need_resched_[static_cast<std::size_t>(cpu)] = true; };
    th.Insert(std::move(st));
    ProgramApicFromHeap(cpu);
  }
}

void Hypervisor::EnsureRecurring(hw::CpuId cpu, const std::string& name,
                                 sim::Duration period,
                                 std::function<void()> cb, int* missing) {
  TimerHeap& th = timers(cpu);
  if (th.ContainsName(name)) return;
  SoftTimer t;
  t.name = name;
  t.deadline = Now() + period;
  t.period = period;
  t.is_system_recurring = true;
  t.callback = std::move(cb);
  th.Insert(std::move(t));
  if (missing != nullptr) ++(*missing);
}

void Hypervisor::RearmVcpuTimers() {
  for (Vcpu& vc : vcpus_) {
    if (vc.vtimer_deadline <= 0) continue;
    TimerHeap& th = timers(vc.pinned_cpu);
    std::string name = "vtimer:" + std::to_string(vc.id);
    if (th.ContainsName(name)) continue;
    SoftTimer t;
    t.name = std::move(name);
    t.deadline = std::max(vc.vtimer_deadline, Now() + sim::Microseconds(100));
    t.period = 0;
    const VcpuId v = vc.id;
    t.callback = [this, v] { DeliverVirqTimer(v); };
    th.Insert(std::move(t));
  }
}

int Hypervisor::ReactivateRecurringEvents() {
  int missing = 0;
  for (int c = 0; c < platform_.num_cpus(); ++c) {
    EnsureRecurring(c, "watchdog_tick", kWatchdogTickPeriod,
                    [this, c] {
                      ++percpu_[static_cast<std::size_t>(c)].watchdog_soft_count;
                      NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kPerCpu);
                    },
                    &missing);
    EnsureRecurring(c, "time_sync", kTimeSyncPeriod,
                    [this] { statics_.Use(StaticVar::kTscKhz); }, &missing);
    if (sched_tick_enabled_[static_cast<std::size_t>(c)]) {
      EnsureRecurring(c, "sched_tick", kSchedTickPeriod,
                      [this, c] { need_resched_[static_cast<std::size_t>(c)] = true; },
                      &missing);
    }
  }
  return missing;
}

void Hypervisor::RebuildTimerSubsystem() {
  for (int c = 0; c < platform_.num_cpus(); ++c) {
    timers(c).Clear();
    RegisterRecurringTimers(c);
  }
  // Re-integrate the per-vCPU singleshot timers from the preserved vCPU
  // structures (part of ReHype's state re-integration).
  RearmVcpuTimers();
}

void Hypervisor::ProgramApicFromHeap(hw::CpuId cpu) {
  statics_.Use(StaticVar::kTscKhz);
  const sim::Time next = timers(cpu).NextDeadline();
  if (next == std::numeric_limits<sim::Time>::max()) return;
  sim::Time when = next;
  const sim::Time min_arm = Now() + sim::Microseconds(10);
  if (when < min_arm) when = min_arm;
  platform_.apic(cpu).Program(when);
}

// ---------------------------------------------------------------------------
// Execution loop
// ---------------------------------------------------------------------------

void Hypervisor::KickCpu(hw::CpuId cpu) {
  hw::Cpu& c = platform_.cpu(cpu);
  if (c.resume_pending() || dead_) return;
  c.set_resume_pending(true);
  platform_.queue().ScheduleAfter(0, [this, cpu] { RunCpuSlice(cpu); });
}

void Hypervisor::KickCpuAt(hw::CpuId cpu, sim::Time when) {
  hw::Cpu& c = platform_.cpu(cpu);
  if (c.resume_pending() || dead_) return;
  c.set_resume_pending(true);
  platform_.queue().ScheduleAt(when, [this, cpu] { RunCpuSlice(cpu); });
}

VcpuId Hypervisor::VcpuOnCpu(hw::CpuId cpu) const {
  return percpu_[static_cast<std::size_t>(cpu)].curr;
}

void Hypervisor::ChargeSlice(hw::CpuId cpu, std::uint64_t instructions) {
  slice_instructions_[static_cast<std::size_t>(cpu)] += instructions;
}

void Hypervisor::RunCpuSlice(hw::CpuId cpu) {
  hw::Cpu& c = platform_.cpu(cpu);
  c.set_resume_pending(false);
  if (!booted_ || dead_ || frozen_ || !c.online() || c.halted() || c.hung()) {
    return;
  }
  // A wakeup that lands while the CPU is architecturally busy executing the
  // previous slice's work defers to the end of that work — a CPU cannot do
  // more than one second of work per second.
  if (Now() < busy_until_[static_cast<std::size_t>(cpu)]) {
    KickCpuAt(cpu, busy_until_[static_cast<std::size_t>(cpu)]);
    return;
  }

  slice_instructions_[static_cast<std::size_t>(cpu)] = 0;
  sim::Duration guest_time = 0;
  bool want_more = false;

  try {
    // 1. Deliver pending interrupts (slice-boundary granularity).
    int irq_budget = 8;
    while (c.interrupts_enabled() && irq_budget-- > 0 &&
           platform_.intc().NextDeliverable(cpu) >= 0) {
      HandleOneInterrupt(cpu);
    }

    // 2. Scheduler (also handles the need_resched flag from the tick).
    // Fairness rule: a vCPU that was switched in but has not executed yet
    // is never rotated away — otherwise a wake-before-schedule ordering can
    // starve it indefinitely.
    PerCpuData& pc = percpu_[static_cast<std::size_t>(cpu)];
    VcpuId curr = pc.curr;
    if (curr == kInvalidVcpu ||
        (need_resched_[static_cast<std::size_t>(cpu)] && pc.curr_ran)) {
      need_resched_[static_cast<std::size_t>(cpu)] = false;
      OpContext sctx(platform_, c, config_.runtime, HvContextKind::kSchedule,
                     nullptr, nullptr);
      curr = Schedule(sctx, cpu);
      ChargeSlice(cpu, sctx.instructions());
    }

    if (curr == kInvalidVcpu) {
      OpContext ictx(platform_, c, config_.runtime, HvContextKind::kIdle,
                     nullptr, nullptr);
      IdlePoll(ictx, cpu);
      ChargeSlice(cpu, ictx.instructions());
      want_more = false;  // sleep until an interrupt/wake arrives
    } else {
      Vcpu& vc = vcpu(curr);
      if (vc.inflight.needs_retry) ExecuteRetry(cpu, vc);

      Domain* dom = FindDomain(vc.domain);
      if (dom != nullptr && dom->guest != nullptr && dom->alive()) {
        const GuestRunResult r =
            dom->guest->RunSlice(curr, kGuestSliceBudget);
        guest_time = r.used;
        if (pc.curr == curr) pc.curr_ran = true;
        if (r.action == GuestRunResult::Action::kBlock ||
            vc.state != VcpuState::kRunning) {
          OpContext sctx(platform_, c, config_.runtime,
                         HvContextKind::kSchedule, nullptr, nullptr);
          const VcpuId next = Schedule(sctx, cpu);
          ChargeSlice(cpu, sctx.instructions());
          // A newly switched-in vCPU must get to run promptly.
          if (next != kInvalidVcpu) {
            want_more = true;
          }
        }
        // An idle guest waits for events; do not spin its CPU.
        want_more |= (r.action == GuestRunResult::Action::kContinue);
      } else {
        want_more = false;
      }
    }
  } catch (const HvPanic& p) {
    ReportError(cpu, DetectionKind::kPanic, p.what());
    return;
  } catch (const HvHang& h) {
    last_hang_reason_ = h.what();
    c.set_hung(true);  // silent: only the NMI watchdog can notice
    return;
  }

  const std::uint64_t instr = slice_instructions_[static_cast<std::size_t>(cpu)];
  const sim::Duration hv_time = platform_.DurationForInstructions(instr);
  c.AccumulateTotalCycles(instr + platform_.CyclesForDuration(guest_time));
  c.AccumulateHvCycles(instr);

  sim::Duration elapsed = hv_time + guest_time;
  if (elapsed <= 0) elapsed = sim::Microseconds(1);
  busy_until_[static_cast<std::size_t>(cpu)] = Now() + elapsed;
  if (want_more) {
    KickCpuAt(cpu, Now() + elapsed);
  }
  // Idle CPUs are re-kicked by interrupt delivery (wake handler); a kick
  // landing before busy_until_ defers automatically.
}

sim::Duration Hypervisor::HandleOneInterrupt(hw::CpuId cpu) {
  auto& intc = platform_.intc();
  const hw::Vector v = intc.NextDeliverable(cpu);
  if (v < 0) return 0;

  hw::Cpu& c = platform_.cpu(cpu);
  PerCpuData& pc = percpu_[static_cast<std::size_t>(cpu)];
  ++stats_.interrupts;
  NLH_RECORD(forensics::EventKind::kIrqDeliver, cpu,
             static_cast<std::uint64_t>(v));

  OpContext ctx(platform_, c, config_.runtime, HvContextKind::kIrq, nullptr,
                nullptr);
  ++pc.local_irq_count;  // interrupt entry
  ctx.Step(cost::kIrqEntry, "irq-entry");
  intc.Accept(cpu, v);
  ctx.Step(20, "pre-eoi");  // window where v sits in-service
  intc.Eoi(cpu);            // early EOI (ack_APIC_irq style)

  bool timer_work = false;
  if (v == hw::vec::kTimer) {
    timer_work = true;
  } else if (auto it = device_bindings_.find(v); it != device_bindings_.end()) {
    // Hardware device interrupt: forward to the bound event channel.
    statics_.Use(StaticVar::kIrqDescTable);
    statics_.Use(StaticVar::kIoApicRoute);
    ctx.Step(120, "device-irq");
    if (!it->second.masked) {
      SendEventToPort(it->second.dom, it->second.port, &ctx);
    }
  }
  ctx.Step(cost::kIrqExit, "irq-exit");
  --pc.local_irq_count;  // interrupt exit

  // Softirqs run after irq_exit, at nesting level zero. The stranded-count
  // assertion is what makes basic microreset always fail (Table I).
  HvAssert(pc.local_irq_count == 0,
           "!in_irq() in do_softirq (stranded interrupt nesting)");

  if (timer_work) {
    OpContext tctx(platform_, c, config_.runtime, HvContextKind::kTimerSoftirq,
                   nullptr, nullptr);
    TimerSoftirq(tctx, cpu);
    ChargeSlice(cpu, tctx.instructions());
  }
  ChargeSlice(cpu, ctx.instructions());
  return platform_.DurationForInstructions(ctx.instructions());
}

void Hypervisor::TimerSoftirq(OpContext& ctx, hw::CpuId cpu) {
  CtxSpan span(*this, ctx, forensics::EventKind::kTimerSoftirq, cpu);
  ++stats_.timer_softirqs;
  if (op_observer_) {
    op_observer_(OpEventKind::kTimerSoftirq, HypercallCode::kXenVersion, cpu);
  }
  statics_.Use(StaticVar::kTimerSubsysState);
  ctx.Step(cost::kTimerSoftirqFixed, "timer-softirq");

  TimerHeap& th = timers(cpu);
  SoftTimer t;
  int budget = 32;
  while (budget-- > 0 && th.PopExpired(Now(), &t)) {
    ctx.Step(cost::kTimerPerExpiry, "timer-expiry");
    if (t.callback) t.callback();
    if (t.period > 0) {
      // Abandonment between the pop above and this re-insert loses the
      // recurring event ("Reactivate recurring timer events", Section V-A).
      SoftTimer re = std::move(t);
      re.deadline += re.period;
      while (re.deadline <= Now()) re.deadline += re.period;
      th.Insert(std::move(re));
      ctx.Step(40, "timer-rearm");
    }
  }

  // Reprogram the one-shot APIC timer for the new top of heap. Everything
  // from the APIC firing to this point is the unarmed window the
  // "Reprogram hardware timer" enhancement protects against.
  ProgramApicFromHeap(cpu);
  ctx.Step(cost::kApicReprogram, "apic-reprogram");
}

void Hypervisor::IdlePoll(OpContext& ctx, hw::CpuId cpu) {
  (void)cpu;
  ++stats_.idle_polls;
  ctx.Step(cost::kIdlePoll, "idle-poll");
}

void Hypervisor::DeliverVirqTimer(VcpuId v) {
  Vcpu& vc = vcpu(v);
  vc.vtimer_deadline = 0;
  vc.pending_events |= (1ULL << kVirqTimerPort);
  NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kTimer);
  NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kEventChannel);
  WakeVcpu(v);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

VcpuId Hypervisor::Schedule(OpContext& ctx, hw::CpuId cpu) {
  CtxSpan span(*this, ctx, forensics::EventKind::kSchedule, cpu);
  PerCpuData& pc = percpu_[static_cast<std::size_t>(cpu)];
  HvAssert(pc.local_irq_count == 0, "ASSERT !in_irq() in schedule()");
  statics_.Use(StaticVar::kSchedOpsPtr);
  statics_.Use(StaticVar::kPerCpuOffsets);
  ++stats_.schedules;

  ctx.Lock(pc.sched_lock);
  ctx.Step(cost::kSchedule, "schedule");

  const VcpuId prev = pc.curr;
  // +1 so vCPU 0 is distinguishable from "none" in the unsigned args.
  const auto plus1 = [](VcpuId v) { return static_cast<std::uint64_t>(v + 1); };
  span.SetArgs(plus1(prev), 0);
  if (prev != kInvalidVcpu) {
    Vcpu& pv = vcpu(prev);
    HvAssert(!pv.struct_corrupted, "corrupted vcpu struct in scheduler");
    HvAssert(pv.is_current && pv.running_on == cpu,
             "scheduler metadata inconsistent (current vCPU)");
    if (pv.state == VcpuState::kRunning) {
      if (pc.rq_head == kInvalidVcpu) {
        ctx.Unlock(pc.sched_lock);
        span.SetArgs(plus1(prev), plus1(prev));
        return prev;  // fast path: keep running
      }
      pv.state = VcpuState::kRunnable;
      pv.is_current = false;
      pv.running_on = -1;
      pc.curr = kInvalidVcpu;
      RunqueueInsert(pc, vcpus_, prev);
      NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kScheduler);
    } else {
      // Blocked / offline: detach.
      pv.is_current = false;
      pv.running_on = -1;
      pc.curr = kInvalidVcpu;
      NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kScheduler);
    }
  }

  const VcpuId next = RunqueuePop(pc, vcpus_);
  if (next == kInvalidVcpu) {
    ctx.Unlock(pc.sched_lock);
    return kInvalidVcpu;
  }
  Vcpu& nv = vcpu(next);
  HvAssert(nv.state == VcpuState::kRunnable,
           "scheduling a non-runnable vCPU");
  HvAssert(!nv.is_current && nv.running_on == -1,
           "next vCPU already current elsewhere");
  ctx.Step(cost::kContextSwitch, "context-switch");
  pc.curr = next;
  pc.curr_ran = false;
  nv.state = VcpuState::kRunning;
  nv.running_on = cpu;
  nv.is_current = true;
  NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kScheduler);
  ctx.Unlock(pc.sched_lock);
  span.SetArgs(plus1(prev), plus1(next));
  return next;
}

void Hypervisor::WakeVcpu(VcpuId v) {
  Vcpu& vc = vcpu(v);
  if (vc.state == VcpuState::kBlocked) {
    vc.state = VcpuState::kRunnable;
    RunqueueInsert(percpu_[static_cast<std::size_t>(vc.pinned_cpu)], vcpus_, v);
    NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kScheduler);
  }
  KickCpu(vc.pinned_cpu);
}

std::uint64_t Hypervisor::ConsumePendingEvents(VcpuId v) {
  Vcpu& vc = vcpu(v);
  const std::uint64_t bits = vc.pending_events;
  vc.pending_events = 0;
  if (bits != 0) {
    NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kEventChannel);
  }
  return bits;
}

// ---------------------------------------------------------------------------
// Events / devices
// ---------------------------------------------------------------------------

void Hypervisor::BindDeviceVector(hw::Vector v, DomainId dom, EventPort port) {
  device_bindings_[v] = DeviceBinding{dom, port, false};
}

void Hypervisor::RaiseDeviceIrq(hw::Vector v, hw::CpuId target_cpu) {
  platform_.intc().Raise(target_cpu, v);
}

void Hypervisor::SendEventToPort(DomainId dom, EventPort port, OpContext* ctx) {
  Domain* d = FindDomain(dom);
  if (d == nullptr || !d->alive()) return;
  statics_.Use(StaticVar::kEvtchnBucketPtr);
  const EventChannel& ch = d->evtchn.At(port);
  VcpuId target = ch.notify_vcpu;
  if (target == kInvalidVcpu && !d->vcpus.empty()) target = d->vcpus.front();
  if (target == kInvalidVcpu) return;
  Vcpu& vc = vcpu(target);
  HvAssert(!vc.struct_corrupted, "corrupted vcpu struct in event delivery");
  vc.pending_events |= (1ULL << port);
  NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kEventChannel);
  if (ctx != nullptr) ctx->Step(60, "event-deliver");
  ++stats_.events_sent;
  WakeVcpu(target);
}

// ---------------------------------------------------------------------------
// Guest entry points
// ---------------------------------------------------------------------------

std::uint64_t Hypervisor::Hypercall(VcpuId v, HypercallCode code,
                                    const HypercallArgs& args) {
  Vcpu& vc = vcpu(v);
  const hw::CpuId cpu = (vc.running_on >= 0) ? vc.running_on : vc.pinned_cpu;
  hw::Cpu& c = platform_.cpu(cpu);
  ++stats_.hypercalls;

  vc.inflight.active = true;
  vc.inflight.is_syscall = false;
  vc.inflight.code = code;
  vc.inflight.args = args;
  vc.inflight.multicall_progress = 0;
  vc.inflight.progress_logged = false;
  vc.inflight.needs_retry = false;
  vc.inflight.lost = false;
  vc.inflight.undo.Clear();

  OpContext ctx(platform_, c, config_.runtime, HvContextKind::kHypercall, &vc,
                &vc.inflight.undo);
  CtxSpan span(*this, ctx, forensics::EventKind::kHypercall, cpu);
  span.SetArgs(static_cast<std::uint64_t>(code), static_cast<std::uint64_t>(v));
  if (op_observer_) op_observer_(OpEventKind::kHypercall, code, cpu);
  ctx.Step(cost::kHypercallEntry, "hypercall-entry");
  const std::uint64_t ret = Dispatch(ctx, vc, code, args);
  vc.inflight.undo.Clear();
  vc.inflight.active = false;  // commit point
  ctx.Step(cost::kHypercallExit, "hypercall-exit");
  span.SetArgs(static_cast<std::uint64_t>(code), static_cast<std::uint64_t>(v),
               ret);
  ChargeSlice(cpu, ctx.instructions());
  return ret;
}

void Hypervisor::ForwardedSyscall(VcpuId v, std::uint64_t sysno) {
  Vcpu& vc = vcpu(v);
  const hw::CpuId cpu = (vc.running_on >= 0) ? vc.running_on : vc.pinned_cpu;
  hw::Cpu& c = platform_.cpu(cpu);
  ++stats_.syscall_forwards;

  vc.inflight.active = true;
  vc.inflight.is_syscall = true;
  vc.inflight.code = HypercallCode::kXenVersion;  // unused for syscalls
  // Reset field by field: assigning HypercallArgs{} would free the batch
  // buffer that the next multicall's copy into inflight.args reuses.
  vc.inflight.args.arg0 = sysno;
  vc.inflight.args.arg1 = 0;
  vc.inflight.args.arg2 = 0;
  vc.inflight.args.batch.clear();
  vc.inflight.needs_retry = false;
  vc.inflight.lost = false;
  vc.inflight.undo.Clear();

  NLH_RECORD(forensics::EventKind::kSyscallForward, cpu, sysno,
             static_cast<std::uint64_t>(v));
  OpContext ctx(platform_, c, config_.runtime, HvContextKind::kSyscallForward,
                &vc, nullptr);
  ctx.Step(cost::kSyscallForward / 2, "syscall-lookup");
  ctx.Step(cost::kSyscallForward - cost::kSyscallForward / 2,
           "syscall-deliver");
  vc.inflight.active = false;
  ChargeSlice(cpu, ctx.instructions());
}

std::uint64_t Hypervisor::VmExit(VcpuId v, VmExitReason reason,
                                 std::uint64_t arg) {
  Vcpu& vc = vcpu(v);
  const hw::CpuId cpu = (vc.running_on >= 0) ? vc.running_on : vc.pinned_cpu;
  hw::Cpu& c = platform_.cpu(cpu);
  ++stats_.hypercalls;  // counted with hypercalls (hypervisor entries)

  vc.inflight.active = true;
  vc.inflight.is_syscall = false;
  vc.inflight.is_vmexit = true;
  vc.inflight.vmexit_reason = static_cast<int>(reason);
  vc.inflight.vmexit_arg = arg;
  vc.inflight.needs_retry = false;
  vc.inflight.lost = false;
  vc.inflight.undo.Clear();

  NLH_RECORD(forensics::EventKind::kVmExit, cpu,
             static_cast<std::uint64_t>(reason), arg);
  OpContext ctx(platform_, c, config_.runtime, HvContextKind::kHypercall, &vc,
                &vc.inflight.undo);
  ctx.Step(cost::kIrqEntry, "vmexit-entry");  // VMEXIT world switch
  const std::uint64_t ret = DispatchVmExit(ctx, vc, reason, arg);
  vc.inflight.undo.Clear();
  vc.inflight.active = false;
  vc.inflight.is_vmexit = false;
  ctx.Step(cost::kIrqExit, "vmresume");
  ChargeSlice(cpu, ctx.instructions());
  return ret;
}

void Hypervisor::ExecuteRetry(hw::CpuId cpu, Vcpu& vc) {
  vc.inflight.needs_retry = false;
  hw::Cpu& c = platform_.cpu(cpu);
  Domain* dom = FindDomain(vc.domain);
  GuestInterface* guest = (dom != nullptr) ? dom->guest : nullptr;

  if (vc.inflight.is_vmexit) {
    // The hardware re-delivers the VM exit when the guest resumes.
    const VmExitReason reason =
        static_cast<VmExitReason>(vc.inflight.vmexit_reason);
    const std::uint64_t arg = vc.inflight.vmexit_arg;
    vc.inflight.active = true;
    OpContext ctx(platform_, c, config_.runtime, HvContextKind::kHypercall,
                  &vc, &vc.inflight.undo);
    ctx.Step(cost::kIrqEntry, "vmexit-redeliver");
    DispatchVmExit(ctx, vc, reason, arg);
    vc.inflight.undo.Clear();
    vc.inflight.active = false;
    vc.inflight.is_vmexit = false;
    ctx.Step(cost::kIrqExit, "vmresume");
    ChargeSlice(cpu, ctx.instructions());
    if (guest != nullptr) guest->OnVmExitResult(vc.id);
    return;
  }

  if (vc.inflight.is_syscall) {
    // Re-forward the system call (Section IV "Syscall retry").
    OpContext ctx(platform_, c, config_.runtime,
                  HvContextKind::kSyscallForward, &vc, nullptr);
    ctx.Step(cost::kSyscallForward, "syscall-retry");
    vc.inflight.active = false;
    ChargeSlice(cpu, ctx.instructions());
    if (guest != nullptr) guest->OnSyscallResult(vc.id);
    return;
  }

  // Re-execute the hypercall. multicall_progress is preserved so completed
  // components are skipped (fine-granularity batched retry, Section IV).
  const HypercallCode code = vc.inflight.code;
  const HypercallArgs args = vc.inflight.args;
  vc.inflight.active = true;
  OpContext ctx(platform_, c, config_.runtime, HvContextKind::kHypercall, &vc,
                &vc.inflight.undo);
  ctx.Step(cost::kHypercallEntry, "hypercall-retry-entry");
  const std::uint64_t ret = Dispatch(ctx, vc, code, args);
  vc.inflight.undo.Clear();
  vc.inflight.active = false;
  ctx.Step(cost::kHypercallExit, "hypercall-retry-exit");
  ChargeSlice(cpu, ctx.instructions());
  if (guest != nullptr) guest->OnHypercallResult(vc.id, code, ret);
}

// ---------------------------------------------------------------------------
// Error handling & recovery support
// ---------------------------------------------------------------------------

void Hypervisor::ReportError(DetectionEvent event) {
  ++stats_.detections;
  if (event.when == 0) event.when = Now();
  if (stats_.detections == 1) first_detection_ = event;
  NLH_RECORD(forensics::EventKind::kDetection, event.cpu,
             static_cast<std::uint64_t>(event.kind),
             static_cast<std::uint64_t>(event.code), event.detail);
  // Freeze the machine state in the dossier before recovery mutates it
  // (only the first capture sticks).
  if (recorder_.enabled() && !recorder_.has_detection_snapshot()) {
    recorder_.SetDetectionSnapshot(DetectionSnapshotJson(*this, event));
  }
  if (dead_) return;
  if (in_error_report_) {
    MarkDead(FailureReason::kNestedError,
             "error during error handling: " + event.detail);
    return;
  }
  if (!error_handler_) {
    MarkDead(FailureReason::kUnhandledError,
             std::string(DetectionKindName(event.kind)) + ": " + event.detail);
    return;
  }
  in_error_report_ = true;
  error_handler_(event);
  in_error_report_ = false;
}

void Hypervisor::ReportError(hw::CpuId cpu, DetectionKind kind,
                             const std::string& what) {
  DetectionEvent ev;
  ev.cpu = cpu;
  ev.kind = kind;
  ev.code = kind == DetectionKind::kPanic ? FailureCode::kAssertFailure
                                          : FailureCode::kWatchdogStall;
  ev.when = Now();
  ev.detail = what;
  ReportError(std::move(ev));
}

void Hypervisor::MarkDead(FailureReason reason, const std::string& detail) {
  if (dead_) return;
  dead_ = true;
  death_code_ = reason;
  death_reason_ = detail.empty()
                      ? std::string(FailureReasonName(reason))
                      : std::string(FailureReasonName(reason)) + ": " + detail;
  NLH_RECORD(forensics::EventKind::kDeath, -1,
             static_cast<std::uint64_t>(reason), 0, death_reason_);
}

void Hypervisor::OnNmi(hw::CpuId cpu) {
  if (!booted_ || dead_ || frozen_) return;
  if (nmi_hook_) nmi_hook_(cpu);
}

void Hypervisor::FreezeForRecovery(hw::CpuId detector) {
  ++stats_.recoveries;
  frozen_ = true;
  for (int c = 0; c < platform_.num_cpus(); ++c) {
    hw::Cpu& cp = platform_.cpu(c);
    if (c != detector && cp.online() && !cp.halted()) {
      // The recovery IPI interrupts whatever the CPU was doing; its entry
      // increments the nesting count, and the thread is then discarded
      // before the matching decrement ever runs.
      ++percpu_[static_cast<std::size_t>(c)].local_irq_count;
      NLH_INTEGRITY_NOTE(&ledger_, integrity::Surface::kPerCpu);
    }
    cp.set_interrupts_enabled(false);
  }
}

void Hypervisor::DiscardAllHvStacks() {
  for (int c = 0; c < platform_.num_cpus(); ++c) {
    hw::Cpu& cp = platform_.cpu(c);
    cp.hv_stack().Reset();
    cp.set_hung(false);  // a discarded thread cannot keep spinning
  }
}

void Hypervisor::AckAllInterrupts() {
  for (int c = 0; c < platform_.num_cpus(); ++c) {
    NLH_RECORD(forensics::EventKind::kIrqAck, c);
    platform_.intc().AckAll(c);
  }
}

void Hypervisor::ResumeAfterRecovery(sim::Time resume_at, bool reprogram_apics) {
  platform_.queue().ScheduleAt(resume_at, [this, reprogram_apics] {
    if (dead_) return;
    frozen_ = false;
    try {
      for (int c = 0; c < platform_.num_cpus(); ++c) {
        hw::Cpu& cp = platform_.cpu(c);
        cp.set_interrupts_enabled(true);
        cp.set_halted(false);
        if (reprogram_apics) ProgramApicFromHeap(c);
      }
    } catch (const HvPanic& p) {
      ReportError(0, DetectionKind::kPanic, p.what());
      return;
    } catch (const HvHang&) {
      platform_.cpu(0).set_hung(true);
      return;
    }
    for (int c = 0; c < platform_.num_cpus(); ++c) KickCpu(c);
  });
}

}  // namespace nlh::hv
