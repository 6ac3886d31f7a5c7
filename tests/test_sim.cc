// Unit tests for the discrete-event core (sim/).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/small_fn.h"
#include "sim/time.h"

namespace nlh::sim {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Microseconds(1), 1000);
  EXPECT_EQ(Milliseconds(1), 1000 * 1000);
  EXPECT_EQ(Seconds(1), 1000LL * 1000 * 1000);
  EXPECT_EQ(ToMillis(Milliseconds(22)), 22);
  EXPECT_DOUBLE_EQ(ToMillisF(Microseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(ToSecondsF(Milliseconds(250)), 0.25);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAfter(30, [&] { order.push_back(3); });
  q.ScheduleAfter(10, [&] { order.push_back(1); });
  q.ScheduleAfter(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30);
}

TEST(EventQueueTest, FifoAmongEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int ran = 0;
  const EventId a = q.ScheduleAfter(10, [&] { ++ran; });
  q.ScheduleAfter(20, [&] { ++ran; });
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_FALSE(q.Cancel(a));  // double-cancel is a no-op
  q.RunAll();
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, CancelInvalidIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEvent));
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAt(10, [&] { ++ran; });
  q.ScheduleAt(20, [&] { ++ran; });
  q.ScheduleAt(30, [&] { ++ran; });
  q.RunUntil(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.Now(), 20);
  q.RunAll();
  EXPECT_EQ(ran, 3);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) q.ScheduleAfter(10, recur);
  };
  q.ScheduleAfter(10, recur);
  q.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.Now(), 50);
}

TEST(EventQueueTest, ScheduleInPastClampsToNow) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  q.RunOne();
  Time when = -1;
  q.ScheduleAt(50, [&] { when = q.Now(); });  // in the past
  q.RunOne();
  EXPECT_EQ(when, 100);
}

TEST(EventQueueTest, PendingCountTracksLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  const EventId a = q.ScheduleAfter(10, [] {});
  q.ScheduleAfter(20, [] {});
  EXPECT_EQ(q.PendingCount(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunAll();
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.ScheduleAt(10, [] {});
  q.ScheduleAt(25, [] {});
  q.Cancel(a);
  EXPECT_EQ(q.NextTime(), 25);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue q;
  int ran = 0;
  const EventId a = q.ScheduleAfter(10, [&] { ++ran; });
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(ran, 1);
  // The event already fired: its id is stale and cancelling it must not
  // disturb anything scheduled later.
  int later = 0;
  q.ScheduleAfter(10, [&] { ++later; });
  EXPECT_FALSE(q.Cancel(a));
  q.RunAll();
  EXPECT_EQ(later, 1);
}

TEST(EventQueueTest, StaleIdNeverCancelsRecycledSlot) {
  EventQueue q;
  const EventId a = q.ScheduleAfter(10, [] {});
  EXPECT_TRUE(q.Cancel(a));
  // The freed slot is recycled by the next schedule; the old id carries the
  // old generation and must not cancel the new occupant.
  int ran = 0;
  const EventId b = q.ScheduleAfter(20, [&] { ++ran; });
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_NE(a, b);
  q.RunAll();
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, FifoSurvivesInterleavedCancels) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(q.ScheduleAt(100, [&order, i] { order.push_back(i); }));
  }
  // Cancel every third event; the survivors must still run in schedule
  // order even though cancellation recycles their pool slots.
  for (int i = 0; i < 12; i += 3) {
    EXPECT_TRUE(q.Cancel(ids[static_cast<std::size_t>(i)]));
  }
  // New same-timestamp events (reusing freed slots) run after survivors.
  q.ScheduleAt(100, [&order] { order.push_back(100); });
  q.ScheduleAt(100, [&order] { order.push_back(101); });
  q.RunAll();
  EXPECT_EQ(order,
            (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 11, 100, 101}));
}

TEST(EventQueueTest, CancelThenRescheduleLikeApicOneShot) {
  // The APIC timer pattern: Program() cancels the pending fire event and
  // schedules a new one; only the latest programming may fire.
  EventQueue q;
  std::vector<Time> fired;
  EventId pending = kInvalidEvent;
  auto program = [&](Time deadline) {
    q.Cancel(pending);
    pending = q.ScheduleAt(deadline, [&] { fired.push_back(q.Now()); });
  };
  program(100);
  program(50);   // reprogram earlier
  program(200);  // reprogram later
  q.RunAll();
  EXPECT_EQ(fired, (std::vector<Time>{200}));
  // Reprogramming after the fire starts a fresh cycle.
  program(300);
  q.RunAll();
  EXPECT_EQ(fired, (std::vector<Time>{200, 300}));
}

TEST(EventQueueTest, NoCallbackCopiesOnHotPath) {
  // Schedule/pop must move the callback, never copy it (the pre-pool
  // implementation copied the std::function out of the heap on every pop).
  struct CopyCounter {
    int* copies;
    int* runs;
    CopyCounter(int* c, int* r) : copies(c), runs(r) {}
    CopyCounter(const CopyCounter& o) : copies(o.copies), runs(o.runs) {
      ++*copies;
    }
    CopyCounter(CopyCounter&& o) noexcept : copies(o.copies), runs(o.runs) {}
    void operator()() const { ++*runs; }
  };
  int copies = 0, runs = 0;
  EventQueue q;
  for (int i = 0; i < 64; ++i) {
    q.ScheduleAfter(i, CopyCounter(&copies, &runs));
  }
  q.RunAll();
  EXPECT_EQ(runs, 64);
  EXPECT_EQ(copies, 0);
}

TEST(EventQueueTest, StorageRecyclingPreservesBehavior) {
  // Releasing a queue's buffers and adopting them into a new queue must not
  // leak callbacks or change scheduling behavior (core::RunArena pattern).
  EventQueue::Storage storage;
  for (int round = 0; round < 3; ++round) {
    EventQueue q(std::move(storage));
    std::vector<int> order;
    EventId cancelled = kInvalidEvent;
    for (int i = 0; i < 32; ++i) {
      const EventId id =
          q.ScheduleAfter(10 * (i % 7), [&order, i] { order.push_back(i); });
      if (i == 13) cancelled = id;
    }
    q.Cancel(cancelled);
    q.RunAll();
    EXPECT_EQ(order.size(), 31u) << "round " << round;
    storage = q.ReleaseStorage();
  }
  EXPECT_GT(storage.slots.capacity(), 0u);
}

TEST(EventQueueTest, AdoptStorageAfterUseIsNoop) {
  EventQueue donor;
  donor.ScheduleAfter(1, [] {});
  EventQueue::Storage s = donor.ReleaseStorage();

  EventQueue q;
  int ran = 0;
  q.ScheduleAfter(5, [&] { ++ran; });
  q.AdoptStorage(std::move(s));  // too late: must not drop the pending event
  q.RunAll();
  EXPECT_EQ(ran, 1);
}

// Randomized property test: the pooled queue (4-ary heap plus zero-delay
// lane) must execute the exact sequence a reference model (ordered map
// keyed by (when, schedule order)) prescribes, under a random mix of
// schedules and cancels, made both from outside and by the running
// callbacks themselves, as hypervisor handlers do. Every so often, while
// the lane holds entries, the queue is imaged, run ahead, restored, and
// run again: both passes must match the model.
TEST(EventQueueTest, RandomizedAgainstReferenceModel) {
  // Everything the callbacks touch, copied whole for the image round trip.
  struct Model {
    std::map<std::pair<Time, std::uint64_t>, int> events;  // key -> payload
    // schedule order -> (queue id, model key)
    std::map<std::uint64_t, std::pair<EventId, std::pair<Time, std::uint64_t>>>
        live;
    std::set<std::uint64_t> lane;  // live events scheduled for their instant
    std::uint64_t next_tag = 0;
    int next_payload = 0;
    Rng rng{0xc0ffee};
  };
  Model m;
  EventQueue q;
  std::vector<int> got;

  const auto cancel_random = [&] {
    auto it = m.live.begin();
    std::advance(it, static_cast<long>(m.rng.Index(m.live.size())));
    EXPECT_TRUE(q.Cancel(it->second.first));
    m.events.erase(it->second.second);
    m.lane.erase(it->first);
    m.live.erase(it);
  };
  std::function<void(Time)> schedule = [&](Time when) {
    const std::uint64_t tag = m.next_tag++;
    const int payload = m.next_payload++;
    const EventId id = q.ScheduleAt(when, [&, payload] {
      got.push_back(payload);
      const double r = m.rng.Uniform();
      if (r < 0.3) {
        schedule(q.Now());  // zero delay: the lane
      } else if (r < 0.5) {
        schedule(q.Now() + static_cast<Time>(m.rng.Range(1, 50)));
      }
      if (m.rng.Uniform() < 0.2 && !m.live.empty()) cancel_random();
    });
    const std::pair<Time, std::uint64_t> key{when < q.Now() ? q.Now() : when,
                                             tag};
    m.events.emplace(key, payload);
    m.live.emplace(tag, std::make_pair(id, key));
    if (key.first == q.Now()) m.lane.insert(tag);
  };
  // Runs one event; the expected payload is the model's earliest entry,
  // dropped from the model first so a callback cannot cancel it.
  const auto run_one = [&](int step) {
    const auto first = m.events.begin();
    const int expect = first->second;
    m.lane.erase(first->first.second);
    m.live.erase(first->first.second);
    m.events.erase(first);
    ASSERT_TRUE(q.RunOne());
    ASSERT_EQ(got.back(), expect) << "step " << step;
  };

  int round_trips = 0;
  bool round_trip_due = false;
  for (int step = 0; step < 2000; ++step) {
    if (step % 50 == 0) round_trip_due = true;
    if (round_trip_due && !m.lane.empty()) {
      round_trip_due = false;
      ++round_trips;
      const EventQueue::Image img = q.CaptureImage();
      const Model saved = m;
      const std::size_t got_size = got.size();
      std::vector<int> passes[2];
      for (std::vector<int>& pass : passes) {
        for (int k = 0; k < 8 && !m.events.empty(); ++k) {
          run_one(step);
          pass.push_back(got.back());
        }
        q.RestoreImage(img);
        m = saved;
        got.resize(got_size);
      }
      EXPECT_EQ(passes[1], passes[0]) << "step " << step;
      EXPECT_FALSE(passes[0].empty());
    }
    const double roll = m.rng.Uniform();
    if (roll < 0.55 || m.live.empty()) {
      schedule(q.Now() + static_cast<Time>(m.rng.Range(0, 50)));
    } else if (roll < 0.75) {
      cancel_random();  // queue and model must agree it existed
    } else if (!m.events.empty()) {
      run_one(step);
    }
  }
  EXPECT_GT(round_trips, 10);
  // Drain: remaining events (and those their callbacks add) run in model
  // order.
  while (!m.events.empty()) run_one(-1);
  EXPECT_FALSE(q.RunOne());
  EXPECT_TRUE(q.Empty());
}

TEST(SmallFnTest, InlineAndHeapCallablesWork) {
  // Small capture: stored inline; big capture: heap fallback. Both must
  // survive moves and run exactly once.
  int hits = 0;
  SmallFn small([&hits] { ++hits; });
  SmallFn moved = std::move(small);
  EXPECT_FALSE(static_cast<bool>(small));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(hits, 1);

  struct Big {
    char pad[128] = {};
    int* out;
    explicit Big(int* o) : out(o) {}
    void operator()() const { ++*out; }
  };
  SmallFn big{Big(&hits)};
  SmallFn big_moved = std::move(big);
  big_moved();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, TriviallyCopyableCallableMovesClonesAndResets) {
  // Trivially copyable callables move by a byte copy and have no
  // destructor to run; they must behave exactly like the others.
  int hits = 0;
  int* const out = &hits;
  const auto bump = [out] { ++*out; };
  static_assert(std::is_trivially_copyable_v<decltype(bump)>);
  SmallFn a(bump);
  SmallFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  SmallFn c = b.Clone();
  b();
  c();
  EXPECT_EQ(hits, 2);
  b.Reset();
  EXPECT_FALSE(static_cast<bool>(b));
  c();  // the clone does not depend on the reset original
  EXPECT_EQ(hits, 3);
  SmallFn d;
  d = std::move(c);
  d();
  EXPECT_EQ(hits, 4);
}

TEST(SmallFnTest, NonTrivialCallableIsDestroyedExactlyOnce) {
  // Counts destructions of live objects only; moved-from shells do not
  // count, so relocation must not leak or double-destroy the callable.
  struct Counted {
    int* destroyed;
    int* runs;
    bool live = true;
    Counted(int* d, int* r) : destroyed(d), runs(r) {}
    Counted(const Counted& o) : destroyed(o.destroyed), runs(o.runs) {}
    Counted(Counted&& o) noexcept : destroyed(o.destroyed), runs(o.runs) {
      o.live = false;
    }
    ~Counted() {
      if (live) ++*destroyed;
    }
    void operator()() const { ++*runs; }
  };
  static_assert(!std::is_trivially_copyable_v<Counted>);
  int destroyed = 0, runs = 0;
  {
    SmallFn f{Counted(&destroyed, &runs)};
    SmallFn g = std::move(f);
    SmallFn h;
    h = std::move(g);
    h();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
  SmallFn k{Counted(&destroyed, &runs)};
  k.Reset();
  EXPECT_EQ(destroyed, 2);
  k.Reset();  // already empty: nothing more to destroy
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(runs, 1);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.U64(), b.U64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.U64() == b.U64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, RangeIsInclusiveAndBounded) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = r.Range(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
  // Degenerate single-value range.
  EXPECT_EQ(r.Range(3, 3), 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ChanceMatchesProbability) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.Chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, FlipRandomBitFlipsExactlyOne) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = r.U64();
    const std::uint64_t f = r.FlipRandomBit(v);
    EXPECT_EQ(__builtin_popcountll(v ^ f), 1);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // The fork must not replay the parent stream.
  Rng b(21);
  b.U64();  // advance like the fork did
  EXPECT_NE(child.U64(), b.U64());
}

// Parameterized determinism sweep: any seed produces a reproducible stream.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, StreamReproducible) {
  Rng a(GetParam()), b(GetParam());
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(a.U64(), b.U64()) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xffffffffULL,
                                           ~0ULL, 0xdeadbeefULL));

}  // namespace
}  // namespace nlh::sim
