#include "integrity/monitor.h"

#include "hw/platform.h"

namespace nlh::integrity {

namespace {
// Cap on retained drift events per run: enough for every golden and for
// campaign aggregation (counts and the trail keep accumulating past it).
constexpr std::size_t kMaxRetainedDrifts = 256;
}  // namespace

EpochMonitor::EpochMonitor(hv::Hypervisor& hv) : hv_(hv) {}

void EpochMonitor::Start() {
  if (started_) return;
  started_ = true;
  ScheduleEpoch();
}

void EpochMonitor::ScheduleEpoch() {
  hv_.platform().queue().ScheduleAfter(hv::kSchedTickPeriod,
                                       [this] { Tick(); });
}

void EpochMonitor::Rebaseline(const LadderSnapshot& snap) {
  base_hash_ = snap.surface;
  base_counts_ = hv_.integrity_ledger().counts();
  base_recoveries_ = hv_.stats().recoveries;
  have_baseline_ = true;
}

void EpochMonitor::Tick() {
  if (hv_.dead()) return;  // run over: stop rescheduling
  ScheduleEpoch();
  if (hv_.frozen()) {
    // Mid-recovery: the world is stopped and about to be rewritten
    // wholesale. Compare nothing; rebaseline on the first live epoch.
    have_baseline_ = false;
    return;
  }
  ++epoch_;
  const sim::Time now = hv_.Now();
  const LadderSnapshot snap = ComputeLadder(hv_);
  forensics::FlightRecorder& recorder = hv_.flight_recorder();
  recorder.Record(forensics::EventKind::kIntegrityEpoch, -1, epoch_);
  const auto& counts = hv_.integrity_ledger().counts();
  if (!have_baseline_ || hv_.stats().recoveries != base_recoveries_) {
    // First epoch, or a recovery completed since the last one: recovery
    // rewrites state legitimately, so this epoch only sets the baseline.
    Rebaseline(snap);
    return;
  }
  for (int i = 0; i < kNumSurfaces; ++i) {
    const auto s = static_cast<std::size_t>(i);
    if (snap.surface[s] == base_hash_[s]) continue;  // quiet surface
    if (counts[s] != base_counts_[s]) continue;      // explained mutation
    // Unexplained drift: the hash moved with no legitimate mutation
    // logged against this surface.
    DriftEvent ev;
    ev.epoch = epoch_;
    ev.at = now;
    ev.surface = static_cast<Surface>(i);
    ev.hash_before = base_hash_[s];
    ev.hash_after = snap.surface[s];
    ++drift_count_;
    ++drift_per_surface_[s];
    if (first_drift_epoch_ < 0) {
      first_drift_epoch_ = static_cast<std::int64_t>(epoch_);
      first_drift_at_ = now;
      first_drift_surface_ = ev.surface;
    }
    {
      StateHasher t;
      t.Mix(drift_trail_);
      t.Mix(ev.epoch);
      t.Mix(static_cast<std::uint64_t>(ev.surface));
      t.Mix(ev.hash_after);
      drift_trail_ = t.value();
    }
    if (recorder.enabled()) {
      recorder.Record(forensics::EventKind::kIntegrityDrift, -1, ev.epoch,
                      static_cast<std::uint64_t>(ev.surface),
                      SubsystemName(ev.surface));
    }
    if (drifts_.size() < kMaxRetainedDrifts) drifts_.push_back(ev);
    if (on_drift_) on_drift_(ev);
    if (hv_.dead() || hv_.frozen()) {
      // The drift handler triggered recovery (proactive rejuvenation) or
      // killed the host; the remaining rungs are now mid-rewrite.
      have_baseline_ = false;
      return;
    }
  }
  base_hash_ = snap.surface;
  base_counts_ = counts;
}

}  // namespace nlh::integrity
