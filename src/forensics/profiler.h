// Cost-attribution profiler: folds the flight recorder's span events
// (modeled instruction cost and modeled latency) into a collapsed-stack
// profile compatible with flamegraph.pl / inferno-flamegraph:
//
//   root;child;leaf <self_time_ns>
//
// one line per unique span path (frames named by EventName), weight = the
// span's SELF time in simulated nanoseconds (duration minus the time
// covered by its child spans), lines sorted lexicographically so the output
// is byte-stable. Instants have no length and add no line.
// Render with e.g. `flamegraph.pl --countname ns profile.txt > prof.svg`.
#pragma once

#include <string>
#include <vector>

#include "forensics/flight_recorder.h"

namespace nlh::forensics {

std::string CollapsedStackProfile(const std::vector<FlightEvent>& events);

}  // namespace nlh::forensics
