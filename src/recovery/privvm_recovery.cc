#include "recovery/privvm_recovery.h"

#include <algorithm>
#include <string>
#include <vector>

namespace nlh::recovery {

namespace {

// Drops all-but-the-first ring entry per request id. The deques are the
// shared-memory ground truth, so this is the only structural edit ring
// repair is allowed to make: an id can legitimately appear once (the
// frontend allocates ids monotonically), and a second appearance is the
// signature of the duplicate-entry corruption.
template <typename Deque>
int DropDuplicateIds(Deque& dq) {
  std::vector<std::uint64_t> seen;
  int dropped = 0;
  for (auto it = dq.begin(); it != dq.end();) {
    if (std::find(seen.begin(), seen.end(), it->id) != seen.end()) {
      it = dq.erase(it);
      ++dropped;
    } else {
      seen.push_back(it->id);
      ++it;
    }
  }
  return dropped;
}

template <typename Deque>
bool ContainsId(const Deque& dq, std::uint64_t id) {
  for (const auto& e : dq) {
    if (e.id == id) return true;
  }
  return false;
}

}  // namespace

void PrivVmRecovery::RepairRings(PrivVmRepairStats& stats) {
  for (const guest::PrivVmKernel::BlkConn& conn : privvm_.blk_conns()) {
    if (conn.ring == nullptr) continue;
    stats.duplicates_dropped += DropDuplicateIds(conn.ring->requests);
    stats.duplicates_dropped += DropDuplicateIds(conn.ring->responses);
    if (conn.ring->RepairCounters()) ++stats.rings_resynced;
  }
}

bool PrivVmRecovery::CompleteOrRequeue(guest::BlkRing& ring,
                                       const guest::BlkRequest& req,
                                       hv::DomainId frontend,
                                       PrivVmRepairStats& stats) {
  // Grant-table evidence: a completed transfer means the data already
  // moved, so the request is answered directly instead of re-executed
  // (re-executing would double the transfer and the frontend's
  // xfer_count == 1 integrity check would flag it).
  hv::Domain* dom = hv_.FindDomain(frontend);
  bool transferred = false;
  if (dom != nullptr && req.gref != hv::kInvalidGrant && req.gref >= 0 &&
      req.gref < hv::kGrantTableSize) {
    const hv::GrantEntry& e = dom->grants.At(req.gref);
    transferred = e.in_use && e.xfer_count > 0;
  }
  if (transferred) {
    guest::BlkResponse resp;
    resp.id = req.id;
    resp.ok = true;
    if (!ring.PushResponse(resp)) return false;
    ++stats.responses_synthesized;
    return true;
  }
  ring.UnconsumeRequest(req);
  ++stats.inflight_requeued;
  return true;
}

void PrivVmRecovery::RebuildBackend(PrivVmRepairStats& stats) {
  // 1. Reclaim leaked backend mappings. The backend pipeline holds at most
  //    one mapping at a time; after it is abandoned, any grant a frontend
  //    issued to the PrivVM that still shows active mappings is a leak
  //    (net buffers are grant-copy only and never mapped).
  for (const guest::PrivVmKernel::BlkConn& conn : privvm_.blk_conns()) {
    hv::Domain* dom = hv_.FindDomain(conn.frontend);
    if (dom == nullptr) continue;
    for (hv::GrantRef r = 0; r < hv::kGrantTableSize; ++r) {
      hv::GrantEntry& e = dom->grants.At(r);
      if (!e.in_use || e.grantee != hv::kPrivVmId) continue;
      while (e.map_count > 0) {
        --e.map_count;
        hv_.frames().PutPage(e.frame);
        ++stats.grants_unmapped;
      }
    }
  }

  // 2. The in-flight pipeline op: the popped request the dead backend never
  //    answered goes back on its ring (or is answered from evidence).
  const guest::PrivVmKernel::BlkOp& op = privvm_.blk_op();
  if (op.active && op.conn >= 0 &&
      static_cast<std::size_t>(op.conn) < privvm_.blk_conns().size()) {
    const guest::PrivVmKernel::BlkConn& conn =
        privvm_.blk_conns()[static_cast<std::size_t>(op.conn)];
    if (conn.ring != nullptr && !ContainsId(conn.ring->requests, op.req.id) &&
        !ContainsId(conn.ring->responses, op.req.id)) {
      CompleteOrRequeue(*conn.ring, op.req, conn.frontend, stats);
    }
  }

  // 3. Lost requests: every id a frontend still carries as outstanding but
  //    that appears nowhere in its ring was swallowed by the corruption.
  //    The surviving driver bookkeeping names the id and the grant; the
  //    grant names the frame. Resynthesize and re-queue (or answer).
  for (guest::AppVmKernel* fe : frontends_) {
    if (fe == nullptr) continue;
    guest::BlkRing* ring = nullptr;
    for (const guest::PrivVmKernel::BlkConn& conn : privvm_.blk_conns()) {
      if (conn.frontend == fe->domain()) {
        ring = conn.ring;
        break;
      }
    }
    if (ring == nullptr) continue;
    hv::Domain* dom = hv_.FindDomain(fe->domain());
    for (const guest::AppVmKernel::OutstandingIo& io : fe->blk_outstanding()) {
      if (ContainsId(ring->requests, io.id) ||
          ContainsId(ring->responses, io.id)) {
        continue;
      }
      guest::BlkRequest req;
      req.id = io.id;
      req.gref = io.gref;
      req.write = false;  // direction is not recoverable; re-execute as read
      if (dom != nullptr && io.gref != hv::kInvalidGrant && io.gref >= 0 &&
          io.gref < hv::kGrantTableSize) {
        const hv::GrantEntry& e = dom->grants.At(io.gref);
        if (e.in_use && e.frame >= dom->first_frame) {
          req.frame_index = e.frame - dom->first_frame;
        }
      }
      CompleteOrRequeue(*ring, req, fe->domain(), stats);
    }
  }
}

RecoveryReport PrivVmRecovery::Recover(const hv::DetectionEvent& event) {
  RecoveryReport report;
  report.detected_at = event.when;
  report.kind = event.kind;
  steps::StepRecorder rec(hv_, report, event.cpu);
  PrivVmRepairStats stats;

  RepairRings(stats);
  rec.Add(RecoveryPhase::kPrivVmRingRepair,
          "PrivVM ring repair (" + std::to_string(stats.rings_resynced) +
              " resynced, " + std::to_string(stats.duplicates_dropped) +
              " dups dropped)",
          latency::kPvRingRepair);

  RebuildBackend(stats);
  rec.Add(RecoveryPhase::kPrivVmBackendRebuild,
          "PrivVM backend rebuild (" +
              std::to_string(stats.grants_unmapped) + " unmapped, " +
              std::to_string(stats.inflight_requeued) + " requeued, " +
              std::to_string(stats.responses_synthesized) + " answered)",
          latency::kPvBackendRebuild);

  privvm_.ResetForRecovery();
  stats.kernel_reset = true;
  rec.Add(RecoveryPhase::kPrivVmKernelReset, "PrivVM kernel reset",
          latency::kPvKernelReset);

  report.resumed_at = rec.cursor();
  stats_ = stats;
  reports_.push_back(report);

  // Wake the repaired backend and every frontend that may now have a
  // synthesized response (or a re-queued request to re-kick) waiting.
  if (privvm_.vcpu_id() != hv::kInvalidVcpu) hv_.WakeVcpu(privvm_.vcpu_id());
  for (guest::AppVmKernel* fe : frontends_) {
    if (fe != nullptr && fe->vcpu_id() != hv::kInvalidVcpu) {
      hv_.WakeVcpu(fe->vcpu_id());
    }
  }
  return report;
}

}  // namespace nlh::recovery
