// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.hpp"
#include "src/sim/simulator.hpp"

namespace soc::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTimestamp) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) q.push(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventHandle h = q.push(1, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));  // double-cancel reports failure
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventHandle h = q.push(1, [] {});
  q.push(5, [] {});
  q.cancel(h);
  EXPECT_EQ(q.next_time(), 5);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, StaleHandleToRecycledSlotIsRejected) {
  EventQueue q;
  const EventHandle h1 = q.push(1, [] {});
  EXPECT_TRUE(q.cancel(h1));
  // The freed slot is recycled with a bumped generation...
  const EventHandle h2 = q.push(2, [] {});
  EXPECT_EQ(h2.slot, h1.slot);
  EXPECT_NE(h2.gen, h1.gen);
  // ...so the stale handle must not cancel the new event.
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h2));
}

// The old design's failure mode: lazily-cancelled events lingered in the
// heap as tombstones, so a schedule-heavy/cancel-heavy workload (timeouts!)
// grew memory without bound.  With in-place removal, one million
// schedule+cancel cycles must leave both the live count and the slab
// high-water mark at baseline.
TEST(EventQueue, CancelledEventsReleaseSlabMemory) {
  EventQueue q;
  const EventHandle keeper = q.push(1'000'000'000, [] {});
  constexpr std::size_t kBatch = 64;      // pending timeouts at any moment
  constexpr std::size_t kCycles = 16384;  // ~1M scheduled events total
  std::vector<EventHandle> batch;
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    batch.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(
          q.push(static_cast<SimTime>(cycle * kBatch + i + 1), [] {}));
    }
    for (const EventHandle h : batch) EXPECT_TRUE(q.cancel(h));
  }
  // Live events back to baseline: just the keeper.
  EXPECT_EQ(q.size(), 1u);
  // Slab occupancy bounded by the peak number of simultaneously pending
  // events, not the ~1M total scheduled.
  EXPECT_LE(q.slab_slots(), kBatch + 1);
  EXPECT_EQ(q.next_time(), 1'000'000'000);
  EXPECT_TRUE(q.cancel(keeper));
  EXPECT_TRUE(q.empty());
}

// Same property through the Simulator's periodic API: a periodic process
// whose queued firing is repeatedly cancelled and re-established must not
// grow the slab.
TEST(Simulator, CancelledPeriodicsReleaseSlabMemory) {
  Simulator sim;
  std::size_t fired = 0;
  for (int round = 0; round < 20000; ++round) {
    const EventHandle h = sim.schedule_periodic(seconds(10), [&] {
      ++fired;
      return false;
    });
    ASSERT_TRUE(sim.cancel(h));
  }
  sim.run_all();
  EXPECT_EQ(fired, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(seconds(10), [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_EQ(seen, seconds(10));
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15);  // clock reaches the horizon
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_at(1, [&] {
    times.push_back(sim.now());
    sim.schedule_after(4, [&] { times.push_back(sim.now()); });
  });
  sim.run_all();
  EXPECT_EQ(times, (std::vector<SimTime>{1, 5}));
}

TEST(Simulator, PeriodicFiresUntilStopped) {
  Simulator sim;
  int count = 0;
  sim.schedule_periodic(seconds(100), [&] {
    ++count;
    return count < 5;
  });
  sim.run_until(seconds(10000));
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicPhaseControlsFirstFiring) {
  Simulator sim;
  SimTime first = -1;
  sim.schedule_periodic(
      seconds(100),
      [&] {
        if (first < 0) first = sim.now();
        return false;
      },
      /*phase=*/seconds(7));
  sim.run_all();
  EXPECT_EQ(first, seconds(7));
}

TEST(Simulator, PeriodicJitterStaysWithinBounds) {
  Simulator sim(99);
  std::vector<SimTime> firings;
  sim.schedule_periodic(
      seconds(100),
      [&] {
        firings.push_back(sim.now());
        return firings.size() < 50;
      },
      seconds(100), /*jitter=*/0.2);
  sim.run_all();
  for (std::size_t i = 1; i < firings.size(); ++i) {
    const SimTime gap = firings[i] - firings[i - 1];
    EXPECT_GE(gap, seconds(80));
    EXPECT_LE(gap, seconds(120));
  }
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool ran = false;
  const auto h = sim.schedule_at(5, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, StepExecutesSingleEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.schedule_at(seconds(10), [] {});
  sim.run_all();
  ASSERT_EQ(sim.now(), seconds(10));
  EXPECT_DEATH(sim.schedule_at(seconds(5), [] {}),
               "cannot schedule into the past");
}

TEST(SimulatorDeathTest, SchedulingAtNeverAborts) {
  Simulator sim;
  EXPECT_DEATH(sim.schedule_at(kSimTimeNever, [] {}),
               "cannot schedule at kSimTimeNever");
  EXPECT_DEATH(sim.schedule_after(kSimTimeNever, [] {}),
               "delay overflows SimTime");
}

TEST(Simulator, ScheduleAtNowIsAllowed) {
  Simulator sim;
  sim.schedule_at(seconds(1), [] {});
  sim.run_all();
  bool ran = false;
  sim.schedule_at(sim.now(), [&] { ran = true; });  // at == now is valid
  sim.run_all();
  EXPECT_TRUE(ran);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<std::uint64_t> draws;
    Rng r = sim.rng().fork("test");
    for (int i = 0; i < 16; ++i) draws.push_back(r.next_u64());
    return draws;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(EventQueue, TaggedCountTracksPushPopAndCancel) {
  EventQueue q;
  q.push(10, [] {});
  const EventHandle h = q.push(20, [] {}, 7);
  q.push(5, nullptr, 9);  // a tagged event may carry no callback
  EXPECT_EQ(q.tagged(), 2u);
  EXPECT_TRUE(q.verify_integrity());

  const EventQueue::Popped first = q.pop();
  EXPECT_EQ(first.at, 5);
  EXPECT_EQ(first.tag, 9u);
  EXPECT_FALSE(static_cast<bool>(first.fn));
  EXPECT_EQ(q.tagged(), 1u);
  EXPECT_EQ(q.pop().tag, 0u);  // the plain event at t=10
  EXPECT_TRUE(q.cancel(h));
  EXPECT_EQ(q.tagged(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.verify_integrity());

  // A recycled slot forgets its old tag.
  q.push(30, [] {});
  EXPECT_EQ(q.tagged(), 0u);
  EXPECT_EQ(q.pop().tag, 0u);
}

/// Records the order in which tagged events reach the sink.
struct RecordingSink final : TaggedEventSink {
  std::vector<std::uint64_t>* log = nullptr;
  void deliver_tagged(std::uint64_t tag, EventFn& fn) override {
    log->push_back(tag);
    if (fn) fn();
  }
};

TEST(Simulator, TaggedAndPlainEventsRunInScheduleOrder) {
  for (const bool tagged_first : {true, false}) {
    for (const bool stepwise : {true, false}) {
      Simulator sim;
      std::vector<std::uint64_t> log;
      RecordingSink sink;
      sink.log = &log;
      sim.register_sink(&sink);
      if (tagged_first) {
        sim.schedule_tagged_after(5, 42, nullptr);
        sim.schedule_after(5, [&] { log.push_back(0); });
      } else {
        sim.schedule_after(5, [&] { log.push_back(0); });
        sim.schedule_tagged_after(5, 42, nullptr);
      }
      EXPECT_EQ(sim.tagged_events(), 1u);
      if (stepwise) {
        while (sim.step()) {
        }
      } else {
        sim.run_until(5);
      }
      const std::vector<std::uint64_t> want =
          tagged_first ? std::vector<std::uint64_t>{42, 0}
                       : std::vector<std::uint64_t>{0, 42};
      EXPECT_EQ(log, want) << "tagged_first=" << tagged_first
                           << " stepwise=" << stepwise;
      EXPECT_EQ(sim.tagged_events(), 0u);
      EXPECT_EQ(sim.events_executed(), 2u);
      sim.unregister_sink(&sink);
    }
  }
}

TEST(SimulatorDeathTest, TaggedPopWithoutSinkAborts) {
  Simulator sim;
  sim.schedule_tagged_after(1, 3, [] {});
  EXPECT_DEATH(sim.run_all(), "no message bus registered");
  EXPECT_DEATH(sim.step(), "no message bus registered");
}

TEST(SimulatorDeathTest, SecondSinkAborts) {
  Simulator sim;
  RecordingSink a;
  RecordingSink b;
  sim.register_sink(&a);
  EXPECT_DEATH(sim.register_sink(&b), "already registered");
  sim.unregister_sink(&a);
  sim.register_sink(&b);  // a departed sink frees the seat
  sim.unregister_sink(&b);
}

}  // namespace
}  // namespace soc::sim
