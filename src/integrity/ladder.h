// The epoch integrity ladder: one deterministic 64-bit hash per integrity
// surface (integrity/surface.h), computed from the live hypervisor
// structures. The epoch monitor compares each rung with its own previous
// value, so no root hash chains the rungs.
//
// The ladder hashes exactly the state the StateAuditor sweeps and the
// recovery mechanisms repair; bookkeeping that legitimately churns without
// a ledger note is deliberately excluded so a quiet epoch hashes
// identically to the previous one:
//   - SpinLock::acquisitions_ (monotonic counter, not protected state) —
//     only the holder is hashed, and at event-queue boundaries every lock
//     is released in a healthy run, so a held lock at an epoch boundary is
//     an abandoned lock;
//   - PerCpuData::curr_ran (slice-churn fairness bit);
//   - Domain::pte_present (guest-facing PTE shadow, not hypervisor state);
//   - Vcpu::inflight and saved register context (per-request scratch);
//   - HvHeap::corrupted_ (the injection ground-truth marker — hashing it
//     would let the monitor cheat by reading the answer key).
//
// Strings hash by content and containers by value sequence, so the ladder
// is byte-identical across thread counts and warm forks.
#pragma once

#include <array>
#include <cstdint>

#include "integrity/hash.h"
#include "integrity/surface.h"

namespace nlh::hv {
class Hypervisor;
}

namespace nlh::integrity {

struct LadderSnapshot {
  std::array<std::uint64_t, kNumSurfaces> surface{};  // by Surface index
};

// Computes the full nine-rung snapshot from the live structures. Pure
// observation: never throws on corrupted state (walks raw storage, not
// assert-bearing paths) and never mutates the hypervisor.
LadderSnapshot ComputeLadder(hv::Hypervisor& hv);

}  // namespace nlh::integrity
