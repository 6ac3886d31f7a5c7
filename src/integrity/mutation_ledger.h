// The mutation ledger: one monotonic counter per integrity surface,
// advanced at every *legitimate* mutation site in the hypervisor (handler
// code, recovery repairs, guest-driven table operations). The epoch monitor
// compares each surface's hash advance against its ledger advance: a hash
// that moved while the ledger did not is *unexplained drift* — exactly the
// signature of silent corruption, which by construction bypasses the noted
// mutators (injection uses raw accessors such as mutable_desc /
// CorruptFreeList / CorruptEntry / Corrupt).
//
// Recording is a single pointer test plus an array increment.
#pragma once

#include <array>
#include <cstdint>

#include "integrity/surface.h"

namespace nlh::integrity {

class MutationLedger {
 public:
  void Note(Surface s) { ++counts_[static_cast<std::size_t>(s)]; }

  std::uint64_t count(Surface s) const {
    return counts_[static_cast<std::size_t>(s)];
  }
  const std::array<std::uint64_t, kNumSurfaces>& counts() const {
    return counts_;
  }

  void Reset() { counts_.fill(0); }

  // Snapshot/restore (sim/state_image.h): the ledger forks with the system
  // so warm-forked runs see the same baseline a cold boot would.
  template <typename V>
  void VisitState(V&& v) {
    v(counts_);
  }

 private:
  std::array<std::uint64_t, kNumSurfaces> counts_{};
};

}  // namespace nlh::integrity

// Mutation-site recording weave. `ledger` is a nullable
// integrity::MutationLedger*; structures owned by a Hypervisor get theirs
// wired at boot, free-standing structures (unit tests) keep nullptr and
// the note is a single branch.
#define NLH_INTEGRITY_NOTE(ledger, surface)                         \
  do {                                                              \
    ::nlh::integrity::MutationLedger* nlh_ml_ = (ledger);           \
    if (nlh_ml_ != nullptr) nlh_ml_->Note(surface);                 \
  } while (0)
