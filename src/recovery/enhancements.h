// Recovery enhancement switches.
//
// Each flag corresponds to a mechanism from the paper; the presets encode
// the incremental configurations of Table I (NiLiHype) and the Section IV
// porting narrative (ReHype). All flags on = the evaluated systems.
#pragma once

namespace nlh::recovery {

struct EnhancementSet {
  // --- ReHype-inherited mechanisms (Sections III-B and IV), used by both --
  bool hypercall_retry = true;   // retry partially-executed hypercalls
  bool syscall_retry = true;     // retry forwarded x86-64 syscalls (Sec IV)
  bool batched_retry_fine = true;  // skip completed multicall components
  bool save_fs_gs = true;        // capture FS/GS at detection (Sec IV)
  bool nonidem_mitigation = true;  // replay undo logs before retry (Sec IV)
  bool release_heap_locks = true;  // force-release locks stored in the heap
  bool ack_interrupts = true;    // ack pending + in-service interrupts
  bool frame_table_scan = true;  // page-frame descriptor consistency scan
  // Cores the frame scan is split across. Section VII-B latency mitigation:
  // "the problem could be mitigated by exploiting parallelism... use
  // multiple cores to perform the operation." 1 = the paper's sequential
  // scan.
  int frame_scan_parallelism = 1;

  // --- NiLiHype-specific (Section V-A) ------------------------------------
  bool clear_irq_count = true;
  bool sched_metadata_repair = true;
  bool reprogram_apic = true;
  bool unlock_static_locks = true;
  bool reactivate_recurring = true;

  bool operator==(const EnhancementSet&) const = default;

  // --- Presets -------------------------------------------------------------
  static EnhancementSet Full() { return EnhancementSet{}; }

  static EnhancementSet None() {
    EnhancementSet e;
    e.hypercall_retry = e.syscall_retry = e.batched_retry_fine = false;
    e.save_fs_gs = e.nonidem_mitigation = e.release_heap_locks = false;
    e.ack_interrupts = e.frame_table_scan = false;
    e.clear_irq_count = e.sched_metadata_repair = e.reprogram_apic = false;
    e.unlock_static_locks = e.reactivate_recurring = false;
    return e;
  }

  // Table I rows (cumulative), in paper order.
  static EnhancementSet TableISimple(int row) {
    EnhancementSet e = None();
    if (row >= 1) {  // + Clear IRQ count
      e.clear_irq_count = true;
    }
    if (row >= 2) {  // + Enhanced with ReHype mechanisms
      e.hypercall_retry = e.syscall_retry = e.batched_retry_fine = true;
      e.save_fs_gs = e.nonidem_mitigation = e.release_heap_locks = true;
      e.ack_interrupts = e.frame_table_scan = true;
    }
    if (row >= 3) e.sched_metadata_repair = true;
    if (row >= 4) e.reprogram_apic = true;
    if (row >= 5) e.unlock_static_locks = true;
    if (row >= 6) e.reactivate_recurring = true;
    return e;
  }

  // Section IV ReHype porting stages: 0 = initial port (65%),
  // 1 = +syscall retry +batched retry +FS/GS (84%),
  // 2 = +non-idempotent mitigation (96%).
  static EnhancementSet ReHypeStage(int stage) {
    EnhancementSet e;  // base ReHype mechanisms always on
    e.syscall_retry = stage >= 1;
    e.batched_retry_fine = stage >= 1;
    e.save_fs_gs = stage >= 1;
    e.nonidem_mitigation = stage >= 2;
    // NiLiHype-specific flags are meaningless for ReHype (the reboot
    // subsumes them); left at defaults.
    return e;
  }
};

}  // namespace nlh::recovery
