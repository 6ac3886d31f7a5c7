// The epoch monitor: always-on integrity observability for one hypervisor.
//
// Every scheduler epoch (hv::kSchedTickPeriod) a recurring,
// zero-simulated-cost event recomputes the nine-surface hash ladder
// (integrity/ladder.h) and compares each rung against the previous epoch
// *jointly* with the mutation ledger (integrity/mutation_ledger.h):
//
//   hash moved  + ledger advanced  -> explained mutation (normal activity)
//   hash moved  + ledger static    -> UNEXPLAINED DRIFT (silent corruption:
//                                     injection bypasses the noted mutators
//                                     by construction)
//   hash static                    -> quiet surface
//
// Drift is reported at the first epoch boundary after the damage lands —
// this is what turns the post-mortem StateAuditor story into an online
// corruption->detection latency measurement. The monitor is pure
// observation: it never mutates hypervisor state, spends no simulated
// time and draws no randomness, so enabling it cannot change a run's
// outcome (asserted by tests/test_integrity.cc).
//
// Epochs while the hypervisor is frozen mid-recovery are skipped, and the
// first epoch after any recovery (or an unfreeze) rebaselines instead of
// comparing: recovery legitimately rewrites state wholesale and is already
// covered by the recovery-path instrumentation.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "hv/hypervisor.h"
#include "integrity/hash.h"
#include "integrity/ladder.h"
#include "integrity/surface.h"
#include "sim/time.h"

namespace nlh::integrity {

struct DriftEvent {
  std::uint64_t epoch = 0;    // epoch index at which the drift was seen
  sim::Time at = 0;           // simulated time of that epoch boundary
  Surface surface = Surface::kFrameTable;
  std::uint64_t hash_before = 0;
  std::uint64_t hash_after = 0;
};

class EpochMonitor {
 public:
  explicit EpochMonitor(hv::Hypervisor& hv);

  using DriftHandler = std::function<void(const DriftEvent&)>;
  void SetOnDrift(DriftHandler handler) { on_drift_ = std::move(handler); }

  // Schedules the recurring epoch event. Idempotent per monitor; the
  // pending event lives in the simulation queue and is forked with it.
  void Start();

  // One epoch boundary (normally fired by the recurring event).
  void Tick();

  std::uint64_t epochs() const { return epoch_; }
  std::uint64_t drift_count() const { return drift_count_; }
  bool has_drift() const { return drift_count_ != 0; }
  std::int64_t first_drift_epoch() const { return first_drift_epoch_; }
  sim::Time first_drift_at() const { return first_drift_at_; }
  Surface first_drift_surface() const { return first_drift_surface_; }
  // FNV fingerprint of the (epoch, surface, hash_after) drift sequence:
  // the differential oracle compares trails across mechanism variants.
  std::uint64_t drift_trail() const { return drift_trail_; }
  const std::array<std::uint64_t, kNumSurfaces>& drift_per_surface() const {
    return drift_per_surface_;
  }
  const std::vector<DriftEvent>& drifts() const { return drifts_; }

  // Snapshot/restore (sim/state_image.h): everything the warm-fork runner
  // must rewind so a forked run's ladder is byte-identical to a cold run's.
  // `started_` is wiring (the recurring event forks with the queue).
  template <typename V>
  void VisitState(V&& v) {
    v(epoch_);
    v(have_baseline_);
    v(base_hash_);
    v(base_counts_);
    v(base_recoveries_);
    v(drift_count_);
    v(first_drift_epoch_);
    v(first_drift_at_);
    v(first_drift_surface_);
    v(drift_trail_);
    v(drift_per_surface_);
    v(drifts_);
  }

 private:
  void ScheduleEpoch();
  void Rebaseline(const LadderSnapshot& snap);

  hv::Hypervisor& hv_;
  DriftHandler on_drift_;

  bool started_ = false;
  std::uint64_t epoch_ = 0;
  bool have_baseline_ = false;
  std::array<std::uint64_t, kNumSurfaces> base_hash_{};
  std::array<std::uint64_t, kNumSurfaces> base_counts_{};
  std::uint64_t base_recoveries_ = 0;
  std::uint64_t drift_count_ = 0;
  std::int64_t first_drift_epoch_ = -1;
  sim::Time first_drift_at_ = 0;
  Surface first_drift_surface_ = Surface::kFrameTable;
  std::uint64_t drift_trail_ = kHashSeed;
  std::array<std::uint64_t, kNumSurfaces> drift_per_surface_{};
  std::vector<DriftEvent> drifts_;
};

}  // namespace nlh::integrity
