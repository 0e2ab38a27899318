#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/time.h"
#include "snapshot/codec.h"

namespace st::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimeEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(42, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, NestedSchedulingFromCallback) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventHandle handle = sim.schedule(10, [&] { ran = true; });
  sim.cancel(handle);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFiringIsHarmless) {
  Simulator sim;
  int count = 0;
  const EventHandle handle = sim.schedule(10, [&] { ++count; });
  sim.run();
  sim.cancel(handle);  // already fired; must not affect anything
  sim.schedule(5, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, CancelInvalidHandleIsNoop) {
  Simulator sim;
  sim.cancel(EventHandle{});
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, DoubleCancelIsHarmless) {
  Simulator sim;
  bool first = false;
  bool second = false;
  const EventHandle handle = sim.schedule(10, [&] { first = true; });
  sim.cancel(handle);
  // The slot is free; the next schedule may reuse it. A second cancel of the
  // stale handle must not touch the new occupant.
  const EventHandle other = sim.schedule(20, [&] { second = true; });
  sim.cancel(handle);
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  (void)other;
}

TEST(Simulator, StaleHandleCannotCancelRecycledSlot) {
  Simulator sim;
  int lateFired = 0;
  const EventHandle early = sim.schedule(10, [] {});
  sim.run();  // `early` fired; its slot is released for reuse
  // This schedule recycles the freed slot; the generation stamp differs.
  const EventHandle late = sim.schedule(10, [&] { ++lateFired; });
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.cancel(early);  // stale: must NOT cancel the recycled slot's event
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.run();
  EXPECT_EQ(lateFired, 1);
  (void)late;
}

TEST(Simulator, CancelReflectsInPendingEventsImmediately) {
  Simulator sim;
  const EventHandle a = sim.schedule(10, [] {});
  sim.schedule(20, [] {});
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pendingEvents(), 1u);  // exact count, not lazy
  sim.run();
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.eventsFired(), 1u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule(10, [&] { fired.push_back(10); });
  sim.schedule(20, [&] { fired.push_back(20); });
  sim.schedule(30, [&] { fired.push_back(30); });
  sim.runUntil(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired.back(), 30);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.runUntil(100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule(1, [&] { ++count; });
  sim.schedule(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  int ticks = 0;
  sim.schedulePeriodic(10, [&] { ++ticks; });
  sim.runUntil(55);
  EXPECT_EQ(ticks, 5);  // at 10, 20, 30, 40, 50
}

TEST(Simulator, PeriodicCancelStopsSeries) {
  Simulator sim;
  int ticks = 0;
  const EventHandle handle = sim.schedulePeriodic(10, [&] { ++ticks; });
  sim.schedule(35, [&] { sim.cancel(handle); });
  sim.runUntil(200);
  EXPECT_EQ(ticks, 3);
}

TEST(Simulator, PeriodicCancelReleasesStateImmediately) {
  Simulator sim;
  int ticks = 0;
  const EventHandle handle = sim.schedulePeriodic(10, [&] { ++ticks; });
  EXPECT_EQ(sim.pendingEvents(), 1u);
  EXPECT_EQ(sim.periodicSeries(), 1u);
  sim.cancel(handle);
  // The series state is gone NOW — not lazily on the next would-be fire.
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.periodicSeries(), 0u);
  sim.runUntil(100);
  EXPECT_EQ(ticks, 0);
  sim.cancel(handle);  // double-cancel of a periodic series is harmless
  EXPECT_EQ(sim.periodicSeries(), 0u);
}

TEST(Simulator, PeriodicSelfCancelReleasesStateImmediately) {
  Simulator sim;
  EventHandle handle;
  std::size_t seriesDuringLastTick = 99;
  handle = sim.schedulePeriodic(10, [&] {
    sim.cancel(handle);
    seriesDuringLastTick = sim.periodicSeries();
  });
  sim.runUntil(100);
  EXPECT_EQ(seriesDuringLastTick, 0u);
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.periodicSeries(), 0u);
}

TEST(Simulator, PeriodicHandleGoesStaleAfterCancel) {
  Simulator sim;
  int ticksA = 0;
  int ticksB = 0;
  const EventHandle a = sim.schedulePeriodic(10, [&] { ++ticksA; });
  sim.cancel(a);
  // Reuses the freed slot with a new generation.
  const EventHandle b = sim.schedulePeriodic(10, [&] { ++ticksB; });
  sim.cancel(a);  // stale: must not kill series B
  sim.runUntil(35);
  EXPECT_EQ(ticksA, 0);
  EXPECT_EQ(ticksB, 3);
  sim.cancel(b);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, PeriodicCanCancelItself) {
  Simulator sim;
  int ticks = 0;
  EventHandle handle;
  handle = sim.schedulePeriodic(10, [&] {
    if (++ticks == 2) sim.cancel(handle);
  });
  sim.runUntil(500);
  EXPECT_EQ(ticks, 2);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.scheduleAt(77, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 77);
}

TEST(Simulator, EventsFiredCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.eventsFired(), 5u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule((i * 7919) % 1000, [&, i] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.eventsFired(), 10000u);
}

// --- rescheduleTagged --------------------------------------------------------

// Tagged-event factory: the callback logs tag.a and the owner key it ran
// under.
class LogFactory final : public EventFactory {
 public:
  explicit LogFactory(const Simulator& sim) : sim_(sim) {}
  [[nodiscard]] Callback rebuild(const EventTag& tag) override {
    const std::uint64_t value = tag.a;
    return [this, value] {
      log.push_back(value);
      keys.push_back(sim_.currentKey());
    };
  }
  std::vector<std::uint64_t> log;
  std::vector<std::uint32_t> keys;

 private:
  const Simulator& sim_;
};

EventTag logTag(std::uint64_t value) {
  return makeTag(Component::kSession, /*kind=*/1, value);
}

TEST(Reschedule, MovesEarlierAndLaterInPlace) {
  Simulator sim;
  LogFactory factory(sim);
  sim.registerFactory(Component::kSession, &factory);
  const EventHandle a = sim.scheduleTagged(10, logTag(1));
  sim.scheduleTagged(20, logTag(2));
  const EventHandle c = sim.scheduleTagged(30, logTag(3));

  sim.rescheduleTagged(c, 5, logTag(3));   // earlier
  sim.rescheduleTagged(a, 25, logTag(1));  // later
  EXPECT_EQ(sim.pendingEvents(), 3u);
  EXPECT_EQ(sim.queuedEntries(), 3u);
  sim.run();
  EXPECT_EQ(factory.log, (std::vector<std::uint64_t>{3, 2, 1}));
  EXPECT_EQ(sim.now(), 25);
}

TEST(Reschedule, InPlaceMoveKeepsTheHandle) {
  Simulator sim;
  LogFactory factory(sim);
  sim.registerFactory(Component::kSession, &factory);
  const EventHandle original = sim.scheduleTagged(10, logTag(1));
  const EventHandle moved = sim.rescheduleTagged(original, 40, logTag(1));
  ASSERT_TRUE(moved.valid());
  // Either handle names the one pending event.
  sim.cancel(original);
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.queuedEntries(), 0u);
  sim.cancel(moved);  // now stale: a no-op
  sim.run();
  EXPECT_TRUE(factory.log.empty());
}

TEST(Reschedule, SameTimeTieFiresAfterEventsStampedBeforeTheMove) {
  Simulator sim;
  LogFactory factory(sim);
  sim.registerFactory(Component::kSession, &factory);
  const EventHandle x = sim.scheduleTagged(10, logTag(1));
  const EventHandle y = sim.scheduleTagged(20, logTag(2));
  sim.rescheduleTagged(y, 10, logTag(2));  // joins x's instant, behind x
  sim.scheduleTagged(10, logTag(3));       // stamped after the move
  sim.rescheduleTagged(x, 10, logTag(1));  // same time, fresh stamp: last
  sim.run();
  EXPECT_EQ(factory.log, (std::vector<std::uint64_t>{2, 3, 1}));
}

TEST(Reschedule, StaleHandleSchedulesAFreshEvent) {
  Simulator sim;
  LogFactory factory(sim);
  sim.registerFactory(Component::kSession, &factory);
  const EventHandle fired = sim.scheduleTagged(1, logTag(1));
  sim.run();
  const EventHandle cancelled = sim.scheduleTagged(5, logTag(2));
  sim.cancel(cancelled);

  const EventHandle a = sim.rescheduleTagged(fired, 3, logTag(1));
  const EventHandle b = sim.rescheduleTagged(cancelled, 2, logTag(2));
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.run();
  EXPECT_EQ(factory.log, (std::vector<std::uint64_t>{1, 2, 1}));
}

TEST(Reschedule, PeriodicHandleFallsBackToAOneShot) {
  Simulator sim;
  LogFactory factory(sim);
  sim.registerFactory(Component::kSession, &factory);
  const EventHandle series = sim.schedulePeriodicTagged(10, logTag(7));
  sim.runUntil(25);  // ticks at 10 and 20
  const EventHandle once = sim.rescheduleTagged(series, 3, logTag(7));
  EXPECT_EQ(sim.periodicSeries(), 0u);
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.cancel(series);  // the series is gone; its handle is stale
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.run();
  EXPECT_EQ(factory.log, (std::vector<std::uint64_t>{7, 7, 7}));
  EXPECT_EQ(sim.now(), 28);
  sim.cancel(once);  // fired: stale
}

TEST(Reschedule, DifferentTagReplacesTheEvent) {
  Simulator sim;
  LogFactory factory(sim);
  sim.registerFactory(Component::kSession, &factory);
  const EventHandle old = sim.scheduleTagged(10, logTag(1));
  sim.rescheduleTagged(old, 5, logTag(2));
  sim.cancel(old);  // the old event was cancelled by the fallback
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.run();
  EXPECT_EQ(factory.log, (std::vector<std::uint64_t>{2}));
}

ShardPlan eightShards() {
  ShardPlan plan;
  plan.keyCount = 17;  // root + 16 communities: keys k and k + 8 share a shard
  plan.shardCount = 8;
  plan.lookahead = kMillisecond;
  return plan;
}

TEST(Reschedule, ShardedMoveLandsInTheCallersShard) {
  Simulator sim;
  LogFactory factory(sim);
  sim.registerFactory(Component::kSession, &factory);
  const ShardPlan plan = eightShards();
  ASSERT_TRUE(sim.configureShards(plan));
  const EventHandle acrossShards =
      sim.scheduleForKeyTagged(1, 50 * kMillisecond, logTag(1));
  const EventHandle sameShard =
      sim.scheduleForKeyTagged(3, 60 * kMillisecond, logTag(3));
  // Under key 2 (shard 2), move key 1's event (shard 1): it falls back to a
  // fresh schedule in shard 2. Under key 11 (shard 3), move key 3's event:
  // same shard, so it moves in place. Both then run under the mover's key.
  sim.scheduleForKey(2, kMillisecond, [&] {
    sim.rescheduleTagged(acrossShards, 4 * kMillisecond, logTag(1));
  });
  sim.scheduleForKey(11, 2 * kMillisecond, [&] {
    sim.rescheduleTagged(sameShard, 4 * kMillisecond, logTag(3));
  });
  sim.runUntil(2 * kMillisecond);
  sim.cancel(acrossShards);  // stale after the fallback
  EXPECT_EQ(sim.pendingEvents(), 2u);
  const std::uint64_t firedShard1 = sim.shardEventsFired(plan.shardOf(1));
  const std::uint64_t firedShard2 = sim.shardEventsFired(plan.shardOf(2));
  const std::uint64_t firedShard3 = sim.shardEventsFired(plan.shardOf(3));
  sim.run();
  EXPECT_EQ(factory.log, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(factory.keys, (std::vector<std::uint32_t>{2, 11}));
  EXPECT_EQ(sim.now(), 6 * kMillisecond);
  EXPECT_EQ(sim.shardEventsFired(plan.shardOf(1)), firedShard1);
  EXPECT_EQ(sim.shardEventsFired(plan.shardOf(2)), firedShard2 + 1);
  EXPECT_EQ(sim.shardEventsFired(plan.shardOf(3)), firedShard3 + 1);
  // Only the four setup posts from key 0 crossed shards; neither move did.
  EXPECT_EQ(sim.crossShardPosts(), 4u);
}

// Plays the same schedule/move script against a simulator, either through
// rescheduleTagged or through the cancel + scheduleTagged it replaces.
void moveScript(Simulator& sim, bool inPlace) {
  std::vector<EventHandle> handles;
  for (std::uint64_t i = 0; i < 12; ++i) {
    handles.push_back(sim.scheduleTagged(
        static_cast<SimTime>((i * 37) % 50 + 10), logTag(i)));
  }
  sim.runUntil(12);
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = round; i < handles.size(); i += 2) {
      const SimTime delay = static_cast<SimTime>((i * 13 + round * 7) % 40);
      if (inPlace) {
        handles[i] = sim.rescheduleTagged(handles[i], delay, logTag(i));
      } else {
        sim.cancel(handles[i]);
        handles[i] = sim.scheduleTagged(delay, logTag(i));
      }
    }
  }
}

std::vector<std::uint8_t> saveBody(const Simulator& sim) {
  snapshot::Writer w;
  std::string error;
  if (!sim.saveState(w, &error)) ADD_FAILURE() << error;
  return w.body();
}

TEST(Reschedule, SnapshotAfterMovesRestoresBitwise) {
  Simulator moved;
  LogFactory movedLog(moved);
  moved.registerFactory(Component::kSession, &movedLog);
  moveScript(moved, /*inPlace=*/true);

  Simulator rearmed;
  LogFactory rearmedLog(rearmed);
  rearmed.registerFactory(Component::kSession, &rearmedLog);
  moveScript(rearmed, /*inPlace=*/false);

  const std::vector<std::uint8_t> body = saveBody(moved);
  EXPECT_EQ(body, saveBody(rearmed));

  snapshot::Writer saved;
  std::string error;
  ASSERT_TRUE(moved.saveState(saved, &error)) << error;
  const std::string path = ::testing::TempDir() + "st_reschedule.snap";
  ASSERT_TRUE(saved.writeFile(path, &error)) << error;
  std::vector<std::uint8_t> file;
  ASSERT_TRUE(snapshot::Reader::readFile(path, &file, &error)) << error;
  std::remove(path.c_str());
  snapshot::Reader r(std::move(file));
  Simulator restored;
  LogFactory restoredLog(restored);
  restored.registerFactory(Component::kSession, &restoredLog);
  ASSERT_TRUE(restored.loadState(r)) << r.error();
  EXPECT_EQ(saveBody(restored), body);

  // All three replay the rest of the run identically.
  const std::size_t firedBeforeSave = movedLog.log.size();
  moved.run();
  rearmed.run();
  restored.run();
  EXPECT_EQ(movedLog.log, rearmedLog.log);
  // Event 0 fired at 10 us, before the moves, so its stale handle scheduled
  // it afresh: twelve events plus that one.
  EXPECT_EQ(movedLog.log.size(), 13u);
  EXPECT_EQ(restoredLog.log,
            std::vector<std::uint64_t>(movedLog.log.begin() + firedBeforeSave,
                                       movedLog.log.end()));
}

TEST(SimTimeConversions, RoundTrip) {
  EXPECT_EQ(fromSeconds(1.5), 1'500'000);
  EXPECT_EQ(fromMillis(2.5), 2'500);
  EXPECT_DOUBLE_EQ(toSeconds(3 * kSecond), 3.0);
  EXPECT_DOUBLE_EQ(toMillis(kSecond), 1000.0);
  EXPECT_EQ(kDay, 24 * kHour);
  EXPECT_EQ(kHour, 3600 * kSecond);
}

}  // namespace
}  // namespace st::sim
