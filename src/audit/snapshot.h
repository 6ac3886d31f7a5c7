// Golden snapshot for the auditor's differential mode.
//
// Captured on a healthy platform (before injection arms), it shadows the
// coarse shape of every recovery-critical structure. After recovery the
// auditor diffs the live platform against it and reports divergence
// classes: heap growth with no owning domain (leak census), frame-table
// population drift, lost timers, closed event ports, vanished domains.
// The snapshot is deliberately shallow — counts and identity sets, not deep
// copies — so capturing it costs one sweep and holds no references into the
// live state.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "hv/hypervisor.h"

namespace nlh::audit {

struct GoldenSnapshot {
  bool captured = false;

  // Frame table census.
  std::uint64_t frames_allocated = 0;

  // Heap census.
  std::uint64_t heap_allocated_pages = 0;
  std::uint64_t heap_objects = 0;
  std::set<hv::HeapObjectId> heap_object_ids;

  // Per-CPU timer census: number of system-recurring entries.
  std::map<int, int> recurring_timers_by_cpu;

  // Event-channel census.
  int open_event_ports = 0;

  // Domains present (leak attribution: heap objects created for a domain
  // that exists are growth, not a leak).
  std::set<hv::DomainId> domains;

  static GoldenSnapshot Capture(hv::Hypervisor& hv);
};

}  // namespace nlh::audit
