// A request-processing component that is NOT a kernel or hypervisor: an
// in-memory key-value service with worker threads, a hash index, a
// write-ahead journal and internal locks.
//
// This addresses the paper's closing question (Section IX): "the extent to
// which [microreset] is applicable to components other than OS kernels and
// hypervisors... is part of our future work." The service has the
// properties Section II-B says microreset needs — it is large-ish,
// processes requests from the rest of the system, and serves them with
// multiple execution threads — so both CLR flavors apply:
//
//   - restart (microreboot analogue): rebuild the index by replaying the
//     journal; latency proportional to the journal length;
//   - microreset: abandon all worker threads, then roll forward — release
//     locks, repair index linkage, requeue abandoned requests.
//
// As in the hypervisor, requests mutate real structures step by step, so
// abandonment leaves genuine partial state and non-idempotent hazards.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"

namespace nlh::clr {

// Thrown when a worker hits corrupted state (the component's "panic").
class ServicePanic : public std::runtime_error {
 public:
  explicit ServicePanic(const std::string& what) : std::runtime_error(what) {}
};

enum class RequestKind { kPut, kGet, kDelete };

struct Request {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kPut;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  std::uint64_t value = 0;
};

// Journal record (durable; survives both recovery flavors).
struct JournalRecord {
  RequestKind kind;
  std::uint64_t key;
  std::uint64_t value;
};

class KvService {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kWorkers = 4;
  static constexpr int kLockWatchdogTicks = 400;
  static constexpr std::int64_t kNullEntry = -1;

  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    std::int64_t next = kNullEntry;  // bucket chain (corruptible linkage)
    bool live = false;
  };

  // A worker's in-flight request context, step-driven like a hypercall
  // handler. Abandonment between steps leaves partial mutations.
  struct Worker {
    bool busy = false;
    Request req;
    int phase = 0;
    bool lock_held = false;
    int locked_bucket = -1;
    int lock_waits = 0;       // ticks spent spinning on a bucket lock
    bool journaled = false;   // the non-idempotent boundary
  };

  explicit KvService(sim::EventQueue& queue, std::uint64_t seed)
      : queue_(queue), rng_(seed), buckets_(kBuckets, kNullEntry) {}

  // --- Client interface ------------------------------------------------------
  void Submit(const Request& r) { pending_.push_back(r); }
  bool PopResponse(Response* out) {
    if (responses_.empty()) return false;
    *out = responses_.front();
    responses_.pop_front();
    return true;
  }

  // Advances every idle worker by one request / every busy worker by one
  // step. The step hook (if set) is the injection point. Throws
  // ServicePanic when a worker trips over corrupted state.
  void Tick();

  // --- Fault surface -----------------------------------------------------------
  using StepHook = std::function<void()>;
  void SetStepHook(StepHook hook) { step_hook_ = std::move(hook); }
  void CorruptBucketChain(std::size_t bucket);
  // Corrupts the VALUE of a live entry (silent data damage): a journal
  // replay reconstructs the truth, an in-place repair cannot tell.
  bool CorruptEntryValue(std::size_t index);
  void StrandWorkerLock(int worker, int bucket);

  // --- Integrity / state access -------------------------------------------------
  // True if every bucket chain is walkable and every live entry is indexed
  // under the right bucket.
  bool IndexIntact() const;
  // Rebuilds the index from the journal (restart recovery's core step).
  void RebuildIndexFromJournal();
  // Scans and repairs index linkage in place (microreset roll-forward).
  int RepairIndexLinkage();
  // Releases every bucket lock and the stats lock.
  int ReleaseAllLocks();
  // Re-queues the in-flight request of every abandoned worker. Requests
  // whose journal record was already appended are NOT re-run (that is the
  // component's non-idempotent boundary): they are acknowledged, and — when
  // `journal_replayed` is false (microreset, which does not replay) — their
  // record is rolled forward into the index here.
  int RequeueAbandoned(bool journal_replayed);
  // Abandons all worker threads (microreset core).
  void AbandonAllWorkers();

  // Copies this service's journal into another instance (modeling shared
  // durable storage, for golden-copy comparison).
  void CopyJournalTo(KvService* other) const { other->journal_ = journal_; }

  std::size_t journal_size() const { return journal_.size(); }
  std::size_t pending() const { return pending_.size(); }
  std::uint64_t acked() const { return acked_; }
  const std::vector<Worker>& workers() const { return workers_; }
  bool dead() const { return dead_; }
  void MarkDead() { dead_ = true; }

 private:
  void Step(const char* what);
  void StepWorker(Worker& w);
  std::int64_t AllocEntry();
  int BucketOf(std::uint64_t key) const { return static_cast<int>(key % kBuckets); }
  bool TryLockBucket(Worker& w, int b);
  void UnlockBucket(Worker& w);

  sim::EventQueue& queue_;
  sim::Rng rng_;
  std::vector<std::int64_t> buckets_;
  std::vector<Entry> entries_;
  std::vector<std::int64_t> free_entries_;
  bool bucket_locked_[kBuckets] = {};
  std::vector<Worker> workers_{kWorkers};
  std::deque<Request> pending_;
  std::deque<Response> responses_;
  std::vector<JournalRecord> journal_;
  std::uint64_t acked_ = 0;
  bool dead_ = false;
  StepHook step_hook_;
};

}  // namespace nlh::clr
