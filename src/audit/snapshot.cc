#include "audit/snapshot.h"

namespace nlh::audit {

GoldenSnapshot GoldenSnapshot::Capture(hv::Hypervisor& hv) {
  GoldenSnapshot s;
  s.captured = true;

  s.frames_allocated = hv.frames().allocated_frames();

  const hv::HvHeap& heap = hv.heap();
  s.heap_allocated_pages = heap.allocated_pages();
  s.heap_objects = heap.num_objects();
  for (const hv::HeapObject& obj : heap.objects()) {
    s.heap_object_ids.insert(obj.id);
  }

  for (int c = 0; c < hv.platform().num_cpus(); ++c) {
    int recurring = 0;
    for (const hv::SoftTimer& t : hv.timers(c).entries()) {
      if (t.is_system_recurring) ++recurring;
    }
    s.recurring_timers_by_cpu[c] = recurring;
  }

  for (const hv::Domain& dom : hv.domains()) {
    s.domains.insert(dom.id);
    s.open_event_ports += dom.evtchn.OpenCount();
  }
  return s;
}

}  // namespace nlh::audit
