// NLH_RECORD(kind, cpu [, arg0 [, arg1 [, detail]]]): the flight-recorder
// hook woven through hw/, hv/, inject/, detect/ and recovery/.
//
// Expands to a check of the thread-local current recorder (installed by the
// owning Hypervisor's RecorderScope); the variadic arguments — including
// any string construction for `detail` — are evaluated only when a recorder
// is installed AND enabled, so the disabled-at-runtime cost is one
// thread-local load and a branch.
#pragma once

#include "forensics/flight_recorder.h"

#define NLH_RECORD(kind, cpu, ...)                                    \
  do {                                                                \
    ::nlh::forensics::FlightRecorder* nlh_rec_ =                      \
        ::nlh::forensics::CurrentRecorder();                          \
    if (nlh_rec_ != nullptr && nlh_rec_->enabled()) {                 \
      nlh_rec_->Record((kind), (cpu)__VA_OPT__(, ) __VA_ARGS__);      \
    }                                                                 \
  } while (0)
