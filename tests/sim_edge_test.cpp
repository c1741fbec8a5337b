// Edge cases of the sim/ primitives that the scheduler overhaul must not
// disturb: clock parking (run_until landing exactly on an event), bounded
// dispatch (run_events stopping mid-burst of equal timestamps), engine
// destruction with parked coroutines, the callback slab and the
// detached-frame registry, channel fairness/cancellation, and Resource
// accounting corners.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"

namespace sim = rdmasem::sim;

// ---------------------------------------------------------------------------
// Engine clock / dispatch-order edges

TEST(EngineEdge, RunUntilExactlyOnEventTimestamp) {
  sim::Engine eng;
  int fired = 0;
  eng.schedule_at(sim::us(5), [&] { ++fired; });
  eng.schedule_at(sim::us(5) + 1, [&] { ++fired; });
  // Deadline == event time: the event at the deadline fires, the one 1 ps
  // later does not, and the clock parks exactly at the deadline.
  EXPECT_TRUE(eng.run_until(sim::us(5)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), sim::us(5));
  EXPECT_FALSE(eng.run_until(sim::us(5) + 1));
  EXPECT_EQ(fired, 2);
}

TEST(EngineEdge, RunUntilParksClockOnEmptyGap) {
  sim::Engine eng;
  int fired = 0;
  eng.schedule_at(sim::us(10), [&] { ++fired; });
  // Park below the next event: nothing fires, clock advances to deadline.
  EXPECT_TRUE(eng.run_until(sim::us(5)));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.now(), sim::us(5));
  // Scheduling at the parked now() and after it keeps FIFO-by-time order
  // even though the pre-existing event entered the queue first.
  std::vector<int> order;
  eng.schedule_at(sim::us(5), [&] { order.push_back(1); });
  eng.schedule_at(sim::us(6), [&] { order.push_back(2); });
  eng.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // at parked now()
  EXPECT_EQ(order[1], 2);  // at 6 us, before the 10 us event
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), sim::us(10));
}

TEST(EngineEdge, RunEventsStopsMidBurstOfEqualTimestamps) {
  sim::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    eng.schedule_at(sim::us(1), [&order, i] { order.push_back(i); });
  // Drain 3 of the 8 equal-timestamp events; FIFO prefix only.
  EXPECT_EQ(eng.run_events(3), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(eng.idle());
  // The remainder continues in the same order, including events appended
  // at the same timestamp mid-burst.
  eng.schedule_at(sim::us(1), [&order] { order.push_back(100); });
  EXPECT_EQ(eng.run_events(100), 6u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 100}));
  EXPECT_TRUE(eng.idle());
}

TEST(EngineEdge, SchedulePastClampsToNow) {
  sim::Engine eng;
  eng.schedule_at(sim::us(3), [] {});
  eng.run();
  EXPECT_EQ(eng.now(), sim::us(3));
  sim::Time fired_at = 0;
  eng.schedule_at(sim::us(1), [&] { fired_at = eng.now(); });  // in the past
  eng.run();
  EXPECT_EQ(fired_at, sim::us(3));  // clamped, clock never moves backwards
}

TEST(EngineEdge, DestructionWithParkedCoroutines) {
  // Coroutines parked on a channel/latch when the engine dies must have
  // their frames reclaimed (no leaks under ASan) without resuming.
  int resumed = 0;
  int started = 0;
  {
    sim::Engine eng;
    auto ch = std::make_unique<sim::Channel<int>>(eng);
    for (int i = 0; i < 16; ++i) {
      eng.spawn([](sim::Channel<int>& c, int& st, int& rs) -> sim::Task {
        ++st;
        const int v = co_await c.pop();  // parks forever
        rs += v;
      }(*ch, started, resumed));
    }
    eng.run();
    EXPECT_EQ(started, 16);
    // Engine destroyed here with 16 frames parked in the channel.
  }
  EXPECT_EQ(resumed, 0);
}

TEST(EngineEdge, DestructionWithUndispatchedEvents) {
  // Queued-but-never-run events (cancel-while-queued at teardown): their
  // captured state must be destroyed exactly once and never invoked.
  int fired = 0;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> observer = token;
  {
    sim::Engine eng;
    eng.schedule_at(sim::ms(1), [t = std::move(token), &fired] {
      fired += *t;
    });
    // No run(): destruction drops the event.
  }
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(observer.expired());  // capture destroyed with the queue
}

TEST(EngineEdge, MixedRecordsKeepOrderAcrossRunUntilParking) {
  // Callbacks and coroutine resumptions interleave at shared timestamps;
  // chopping the run into run_until windows (parking the clock between
  // events, and pushing new records of both kinds at the parked clock)
  // must dispatch exactly what one run() does.
  auto trace_of = [](bool chopped) {
    std::vector<std::pair<sim::Time, int>> trace;
    sim::Engine eng;
    for (int t = 0; t < 8; ++t) {
      eng.spawn([](sim::Engine& e, auto& tr, int id) -> sim::Task {
        for (int i = 0; i < 20; ++i) {
          co_await sim::delay(e, sim::ns(50 * (1 + (id + i) % 7)));
          tr.emplace_back(e.now(), id);
        }
      }(eng, trace, t));
      eng.schedule_at(sim::ns(100 * t), [&trace, &eng, t] {
        trace.emplace_back(eng.now(), 100 + t);
        eng.schedule_in(sim::us(3), [&trace, &eng, t] {
          trace.emplace_back(eng.now(), 200 + t);  // past the ring horizon
        });
      });
    }
    if (!chopped) {
      eng.run();
      return trace;
    }
    for (sim::Time deadline = sim::ns(75); eng.run_until(deadline);
         deadline += sim::ns(75)) {
      // Both kinds of record land exactly at the parked clock.
      const int id = 300 + static_cast<int>(deadline / sim::ns(75));
      eng.schedule_at(eng.now(), [&trace, &eng, id] {
        trace.emplace_back(eng.now(), id);
      });
      eng.spawn([](sim::Engine& e, auto& tr, int i) -> sim::Task {
        tr.emplace_back(e.now(), i);
        co_return;
      }(eng, trace, id + 1000));
    }
    return trace;
  };
  const auto straight = trace_of(false);
  const auto chopped = trace_of(true);
  // The chopped run has the extra parked-clock records; without them the
  // two dispatch sequences are identical.
  std::vector<std::pair<sim::Time, int>> filtered;
  std::size_t extra = 0;
  for (std::size_t i = 0; i < chopped.size(); ++i) {
    if (chopped[i].second >= 300) {
      ++extra;
      // Each parked-clock record fires at its window's deadline.
      EXPECT_EQ(chopped[i].first % sim::ns(75), 0u);
      continue;
    }
    filtered.push_back(chopped[i]);
  }
  EXPECT_GT(extra, 0u);
  EXPECT_EQ(filtered, straight);
  EXPECT_EQ(straight.size(), 8u * 20 + 8 + 8);
}

// ---------------------------------------------------------------------------
// Callback slab (kCall records hold a slab slot, not the callable)

namespace {

// Capture that tracks how many copies of itself are alive: a leak leaves
// the count above zero, a double destruction drives it below.
struct LiveProbe {
  int* live;
  explicit LiveProbe(int* l) : live(l) { ++*live; }
  LiveProbe(const LiveProbe& o) : live(o.live) { ++*live; }
  LiveProbe(LiveProbe&& o) noexcept : live(o.live) { ++*live; }
  LiveProbe& operator=(const LiveProbe&) = delete;
  ~LiveProbe() { --*live; }
};

}  // namespace

TEST(EngineSlab, CallbackSchedulesCallbacksFromItsOwnDispatch) {
  // The running callback schedules enough callbacks to grow the slab
  // several times over, then reads its own captures: the callable must
  // not live in a slot the growth moved.
  sim::Engine eng;
  std::vector<int> order;
  std::string seen;
  const std::string tag(64, 'x');  // boxed: larger than the inline buffer
  eng.schedule_at(sim::ns(1), [&eng, &order, &seen, tag] {
    for (int i = 0; i < 200; ++i)
      eng.schedule_in(i % 3, [&order, i] { order.push_back(i); });
    seen = tag;
  });
  eng.run();
  EXPECT_EQ(seen, tag);
  ASSERT_EQ(order.size(), 200u);
  // Delay 0, 1, 2 ps in turn: grouped by delay, schedule order within.
  std::vector<int> want;
  for (int d = 0; d < 3; ++d)
    for (int i = d; i < 200; i += 3) want.push_back(i);
  EXPECT_EQ(order, want);
}

TEST(EngineSlab, SelfReschedulingChainReusesSlotsInOrder) {
  // A callback that schedules its successor at its own timestamp frees
  // its slot first, so a long chain runs in a bounded slab.
  sim::Engine eng;
  int next = 0;
  bool in_order = true;
  struct Link {
    sim::Engine* eng;
    int* next;
    bool* in_order;
    int id;
    void operator()() const {
      *in_order = *in_order && *next == id;
      ++*next;
      if (id + 1 < 5000) eng->schedule_in(id % 2, Link{eng, next, in_order, id + 1});
    }
  };
  eng.schedule_at(0, Link{&eng, &next, &in_order, 0});
  eng.run();
  EXPECT_EQ(next, 5000);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(eng.events_processed(), 5000u);
}

TEST(EngineSlab, DestroyedEngineReleasesPendingCapturesOnce) {
  auto token = std::make_shared<int>(7);
  int live = 0;
  int fired = 0;
  {
    sim::Engine eng;
    for (int i = 0; i < 64; ++i) {
      const sim::Time at = sim::ns(10) * (i + 1);
      if (i % 2 == 0) {
        // Inline capture: a shared_ptr and a probe.
        eng.schedule_at(at, [t = token, p = LiveProbe(&live), &fired] {
          fired += *t > 0;
        });
      } else {
        // Boxed capture: padding pushes it past the inline buffer.
        std::uint64_t pad[6] = {};
        eng.schedule_at(at, [t = token, p = LiveProbe(&live), pad, &fired] {
          fired += *t > 0 && pad[0] == 0;
        });
      }
    }
    // Dispatch the first 20 (their slots are freed and some reused by the
    // refills below), leave the rest pending.
    eng.run_until(sim::ns(200));
    for (int i = 0; i < 8; ++i)
      eng.schedule_in(sim::us(5), [t = token, p = LiveProbe(&live)] {});
    EXPECT_EQ(fired, 20);
    EXPECT_EQ(token.use_count(), 1 + 44 + 8);
    EXPECT_EQ(live, 44 + 8);
  }
  EXPECT_EQ(fired, 20);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(live, 0);
}

// ---------------------------------------------------------------------------
// Detached-frame registry (an intrusive list through the promises)

TEST(EngineRegistry, SuspendedDetachedFramesReclaimedThroughList) {
  // Finished frames unlink themselves from anywhere in the list; frames
  // still suspended when the engine dies are destroyed from it exactly
  // once, children spawned by a parked parent included.
  auto token = std::make_shared<int>(1);
  int live = 0;
  int finished = 0;
  {
    sim::Engine eng;
    sim::OneShotEvent never(eng);
    for (int i = 0; i < 40; ++i) {
      eng.spawn([](sim::Engine& e, sim::OneShotEvent& ev,
                   [[maybe_unused]] std::shared_ptr<int> t,
                   [[maybe_unused]] LiveProbe p, int id,
                   int& done) -> sim::Task {
        co_await sim::delay(e, sim::ns(id));
        if (id % 3 != 0) {
          ++done;  // finishes: unlinks from the middle of the list
          co_return;
        }
        co_await ev.wait();  // parks until the engine dies
      }(eng, never, token, LiveProbe(&live), i, finished));
    }
    // A parked parent whose children park too (spawned after it, so they
    // are reclaimed before it).
    eng.spawn([](sim::Engine& e, sim::OneShotEvent& ev,
                 std::shared_ptr<int> t, LiveProbe p) -> sim::Task {
      for (int c = 0; c < 4; ++c) {
        e.spawn([](sim::OneShotEvent& ev2,
                   [[maybe_unused]] std::shared_ptr<int> t2,
                   [[maybe_unused]] LiveProbe p2) -> sim::Task {
          co_await ev2.wait();
        }(ev, t, p));
      }
      co_await ev.wait();
    }(eng, never, token, LiveProbe(&live)));
    eng.run();
    EXPECT_EQ(finished, 26);
    // 14 parked leaves + the parent + its 4 children.
    EXPECT_EQ(token.use_count(), 1 + 14 + 1 + 4);
    EXPECT_EQ(live, 14 + 1 + 4);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(live, 0);
}

// ---------------------------------------------------------------------------
// Channel edges

TEST(ChannelEdge, TryPopYieldsToQueuedWaiters) {
  sim::Engine eng;
  sim::Channel<int> ch(eng);
  int got = -1;
  eng.spawn([](sim::Channel<int>& c, int& out) -> sim::Task {
    out = co_await c.pop();
  }(ch, got));
  eng.run();  // waiter parks first
  ch.push(42);
  // A waiter is queued: try_pop must not steal its item.
  EXPECT_EQ(ch.try_pop(), std::nullopt);
  eng.run();
  EXPECT_EQ(got, 42);
  ch.push(7);
  EXPECT_EQ(ch.try_pop(), std::optional<int>(7));  // no waiters: fine
}

TEST(ChannelEdge, PopFifoAcrossPushBursts) {
  sim::Engine eng;
  sim::Channel<int> ch(eng);
  std::vector<int> by_waiter(3, -1);
  for (int w = 0; w < 3; ++w) {
    eng.spawn([](sim::Channel<int>& c, std::vector<int>& out,
                 int id) -> sim::Task {
      out[static_cast<std::size_t>(id)] = co_await c.pop();
    }(ch, by_waiter, w));
  }
  eng.run();
  ch.push(10);
  ch.push(11);
  ch.push(12);
  eng.run();
  // Waiters resume in arrival order and consume items in push order.
  EXPECT_EQ(by_waiter, (std::vector<int>{10, 11, 12}));
}

TEST(ChannelEdge, PushWhileDrainingKeepsOrder) {
  sim::Engine eng;
  sim::Channel<int> ch(eng);
  std::vector<int> seen;
  eng.spawn([](sim::Channel<int>& c, std::vector<int>& out) -> sim::Task {
    for (int i = 0; i < 4; ++i) out.push_back(co_await c.pop());
  }(ch, seen));
  eng.spawn([](sim::Engine& e, sim::Channel<int>& c) -> sim::Task {
    c.push(1);
    c.push(2);
    co_await sim::delay(e, sim::ns(5));
    c.push(3);
    c.push(4);
  }(eng, ch));
  eng.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.waiting(), 0u);
}

TEST(ChannelEdge, ConsumerMayDestroyChannelRightAfterPop) {
  // The consumer owns its mailbox and tears it down as soon as its pop
  // resumes, while an item is still queued. The wake event that resumed
  // it must not touch the channel afterwards (ASan: heap-use-after-free).
  sim::Engine eng;
  sim::Channel<int>* mailbox = nullptr;
  int got = -1;
  eng.spawn([](sim::Engine& e, sim::Channel<int>*& pub,
               int& out) -> sim::Task {
    auto ch = std::make_unique<sim::Channel<int>>(e);
    pub = ch.get();
    out = co_await ch->pop();
    ch.reset();
    pub = nullptr;
  }(eng, mailbox, got));
  eng.run();  // the consumer parks in pop()
  ASSERT_NE(mailbox, nullptr);
  mailbox->push(5);
  mailbox->push(6);
  eng.run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(mailbox, nullptr);
}

// ---------------------------------------------------------------------------
// Resource edges

TEST(ResourceEdge, UtilizationAtTimeZeroIsZero) {
  sim::Engine eng;
  sim::Resource r(eng, 2);
  EXPECT_EQ(r.utilization(), 0.0);  // no division by a zero-length horizon
  EXPECT_EQ(r.busy_time(), 0u);
  EXPECT_EQ(r.requests(), 0u);
}

TEST(ResourceEdge, ZeroServiceTimeCompletesAtNow) {
  sim::Engine eng;
  sim::Resource r(eng, 1);
  sim::Time done = 1;
  eng.spawn([](sim::Resource& res, sim::Time& out) -> sim::Task {
    out = (co_await res.use(0)).at;
  }(r, done));
  eng.run();
  EXPECT_EQ(done, 0u);
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_EQ(r.requests(), 1u);
}

TEST(ResourceEdge, PeekDoesNotReserve) {
  sim::Engine eng;
  sim::Resource r(eng, 1);
  const sim::Time first = r.peek(sim::ns(100));
  EXPECT_EQ(first, r.peek(sim::ns(100)));  // peek is idempotent
  const sim::Time got = r.reserve(sim::ns(100));
  EXPECT_EQ(got, first);
  EXPECT_GT(r.peek(sim::ns(100)), first);  // now the server is busy
}

TEST(ResourceEdge, ResetStatsKeepsReservations) {
  sim::Engine eng;
  sim::Resource r(eng, 1);
  (void)r.reserve(sim::ns(500));
  r.reset_stats();
  EXPECT_EQ(r.requests(), 0u);
  EXPECT_EQ(r.busy_time(), 0u);
  // The server is still occupied: a new request queues behind it.
  EXPECT_EQ(r.reserve(sim::ns(100)), sim::ns(600));
}

TEST(ResourceEdge, FifoGrantOrderUnderContention) {
  sim::Engine eng;
  sim::Resource r(eng, 2);
  std::vector<int> completion_order;
  for (int i = 0; i < 6; ++i) {
    eng.spawn([](sim::Resource& res, std::vector<int>& out,
                 int id) -> sim::Task {
      co_await res.use(sim::ns(100));
      out.push_back(id);
    }(r, completion_order, i));
  }
  eng.run();
  // 2 servers, equal service: grants (and completions) in request order.
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(eng.now(), sim::ns(300));
  EXPECT_EQ(r.busy_time(), sim::ns(600));
}

// ---------------------------------------------------------------------------
// FramePool behavior (recycling is what makes spawn-per-WR allocation-free)

TEST(FramePool, RecyclesSameSizeFrames) {
  sim::FramePool::trim();
  const auto before = sim::FramePool::stats();
  sim::Engine eng;
  for (int i = 0; i < 100; ++i) {
    eng.spawn([](sim::Engine& e) -> sim::Task {
      co_await sim::delay(e, sim::ns(10));
    }(eng));
    eng.run();
  }
  const auto after = sim::FramePool::stats();
  // Under ASan the pool is a passthrough (reused stays 0); otherwise the
  // 99 later frames all reuse the first one's storage.
  if (after.fresh > before.fresh || after.reused > before.reused) {
    EXPECT_GE(after.reused + after.fresh - (before.reused + before.fresh),
              100u);
  }
  sim::FramePool::trim();
  EXPECT_EQ(sim::FramePool::stats().cached, 0u);
}

// ---------------------------------------------------------------------------
// EventQueue unit edges (the differential fuzz lives in fuzz_test.cpp)

TEST(EventQueueEdge, ImmediateLosesTieToEarlierScheduledEvent) {
  // An event scheduled for time T while now == T must fire after every
  // event scheduled for T before the clock got there: same-lane tie-break
  // means smaller per-lane seq wins.
  sim::Engine eng;
  std::vector<int> order;
  eng.schedule_at(sim::us(1), [&] {
    order.push_back(1);
    eng.schedule_at(sim::us(1), [&] { order.push_back(3); });  // at == now
  });
  eng.schedule_at(sim::us(1), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueEdge, RecordIsPlainAndRoundTripsBothKinds) {
  static_assert(sizeof(sim::Event) == 32);
  static_assert(std::is_trivially_copyable_v<sim::Event>);
  sim::EventQueue q;
  // Same timestamp, keys out of push order, both kinds: pops in key order
  // with every field intact.
  q.push(sim::Event{sim::ns(3), 9, 0x7f00deadbee0ull, 5,
                    sim::EventKind::kResume});
  q.push(sim::Event{sim::ns(3), 2, 17, 1, sim::EventKind::kCall});
  q.push(sim::Event{sim::us(40), 1, 0x7f0000001000ull, 0,
                    sim::EventKind::kResume});  // overflow tier
  sim::Event e = q.pop();
  EXPECT_EQ(e.seq, 2u);
  EXPECT_EQ(e.target, 17u);
  EXPECT_EQ(e.exec_lane, 1u);
  EXPECT_EQ(e.kind, sim::EventKind::kCall);
  e = q.pop();
  EXPECT_EQ(e.seq, 9u);
  EXPECT_EQ(e.target, 0x7f00deadbee0ull);
  EXPECT_EQ(e.exec_lane, 5u);
  EXPECT_EQ(e.kind, sim::EventKind::kResume);
  // A record pushed behind the cursor (a parked clock) still pops before
  // the later overflow record.
  q.push(sim::Event{sim::ns(1), 3, 4, 2, sim::EventKind::kCall});
  e = q.pop();
  EXPECT_EQ(e.at, sim::ns(1));
  EXPECT_EQ(e.target, 4u);
  e = q.pop();
  EXPECT_EQ(e.at, sim::us(40));
  EXPECT_EQ(e.target, 0x7f0000001000ull);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueEdge, ClearDropsEverythingAndKeepsWorking) {
  sim::EventQueue q;
  for (int i = 0; i < 100; ++i)
    q.push(sim::Event{static_cast<sim::Time>(i * 1000),
                      static_cast<std::uint64_t>(i)});
  EXPECT_EQ(q.size(), 100u);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(sim::Event{5, 0});
  EXPECT_EQ(q.pop().at, 5u);
  EXPECT_TRUE(q.empty());
}
