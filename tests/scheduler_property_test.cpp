// Property test for the slotted scheduler: random schedule / cancel /
// reschedule / periodic sequences are replayed against a naive reference
// model (a flat list of (when, seq) records scanned linearly), and the firing
// order, fired tags, clock monotonicity and live-event accounting must agree
// exactly.
//
// The reference model encodes the scheduler's determinism contract:
//  * events fire in (when, seq) order, seq assigned per enqueue — including
//    the re-enqueue of a periodic series after each fire;
//  * cancel is exact and immediate (stale handles are no-ops), so the heap
//    never holds more entries than there are live events;
//  * rescheduleTagged is cancel + a fresh one-shot with a new seq, whether
//    the scheduler moves the entry in place or falls back;
//  * the clock never moves backwards and equals the firing event's time.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace st::sim {
namespace {

// Naive reference: O(n) scan for the minimum (when, seq) live record.
class ReferenceScheduler {
 public:
  // Returns a model id for later cancellation.
  std::size_t add(SimTime when, int tag, SimTime period) {
    events_.push_back(
        Event{when, nextSeq_++, period, tag, /*alive=*/true});
    return events_.size() - 1;
  }

  // Stale cancels (fired one-shots, already-cancelled ids) are no-ops,
  // mirroring the generation-stamp semantics of the real scheduler.
  void cancel(std::size_t id) { events_[id].alive = false; }

  // The model of rescheduleTagged: cancel, then a fresh one-shot.
  std::size_t reschedule(std::size_t id, SimTime when, int tag) {
    cancel(id);
    return add(when, tag, 0);
  }

  // Fires everything with when <= until, appending tags to `order`.
  void runUntil(SimTime until, std::vector<int>& order) {
    for (;;) {
      std::size_t best = events_.size();
      for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event& e = events_[i];
        if (!e.alive || e.when > until) continue;
        if (best == events_.size() || e.when < events_[best].when ||
            (e.when == events_[best].when && e.seq < events_[best].seq)) {
          best = i;
        }
      }
      if (best == events_.size()) break;
      Event& e = events_[best];
      order.push_back(e.tag);
      now_ = e.when;
      if (e.period > 0) {
        // Periodic re-enqueue consumes a seq at fire time, like the real
        // scheduler, so later same-time one-shots keep their FIFO place.
        e.seq = nextSeq_++;
        e.when += e.period;
      } else {
        e.alive = false;
      }
    }
    if (until > now_) now_ = until;
  }

  [[nodiscard]] std::size_t live() const {
    std::size_t n = 0;
    for (const Event& e : events_) n += e.alive ? 1 : 0;
    return n;
  }

  [[nodiscard]] std::size_t livePeriodic() const {
    std::size_t n = 0;
    for (const Event& e : events_) n += (e.alive && e.period > 0) ? 1 : 0;
    return n;
  }

  [[nodiscard]] bool isPeriodic(std::size_t id) const {
    return events_[id].period > 0;
  }

  [[nodiscard]] int tagOf(std::size_t id) const { return events_[id].tag; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    SimTime period;
    int tag;
    bool alive;
  };

  std::vector<Event> events_;
  std::uint64_t nextSeq_ = 1;
  SimTime now_ = 0;
};

// Factory for the tagged events: tag.a carries the model tag, and the
// rebuilt callback records the firing exactly like the untagged lambdas.
class Recorder final : public EventFactory {
 public:
  Recorder(const Simulator& sim, std::vector<int>& order)
      : sim_(sim), order_(order) {}
  [[nodiscard]] Callback rebuild(const EventTag& tag) override {
    const int value = static_cast<int>(tag.a);
    return [this, value] { record(value); };
  }
  void record(int tag) {
    if (sim_.now() < lastFireTime_) monotone_ = false;
    lastFireTime_ = sim_.now();
    order_.push_back(tag);
  }
  [[nodiscard]] bool monotone() const { return monotone_; }

 private:
  const Simulator& sim_;
  std::vector<int>& order_;
  SimTime lastFireTime_ = 0;
  bool monotone_ = true;
};

EventTag modelTag(int tag) {
  return makeTag(Component::kSession, /*kind=*/1,
                 static_cast<std::uint64_t>(tag));
}

void runRandomSequence(std::uint64_t seed, int ops) {
  Rng rng(seed);
  Simulator sim;
  ReferenceScheduler model;

  std::vector<int> simOrder;
  std::vector<int> modelOrder;
  Recorder recorder(sim, simOrder);
  sim.registerFactory(Component::kSession, &recorder);
  std::vector<std::pair<EventHandle, std::size_t>> handles;  // sim, model
  int nextTag = 0;

  for (int op = 0; op < ops; ++op) {
    switch (rng.uniformInt(9)) {
      case 0:
      case 1: {  // one-shot, relative delay (0 included: same-time FIFO)
        const SimTime delay = static_cast<SimTime>(rng.uniformInt(50));
        const int tag = nextTag++;
        handles.emplace_back(sim.schedule(delay,
                                          [&recorder, tag] {
                                            recorder.record(tag);
                                          }),
                             model.add(sim.now() + delay, tag, 0));
        break;
      }
      case 2: {  // one-shot, absolute time
        const SimTime when =
            sim.now() + static_cast<SimTime>(rng.uniformInt(50));
        const int tag = nextTag++;
        handles.emplace_back(sim.scheduleAt(when,
                                            [&recorder, tag] {
                                              recorder.record(tag);
                                            }),
                             model.add(when, tag, 0));
        break;
      }
      case 3: {  // periodic series
        const SimTime period = 1 + static_cast<SimTime>(rng.uniformInt(20));
        const int tag = nextTag++;
        handles.emplace_back(sim.schedulePeriodic(period,
                                                  [&recorder, tag] {
                                                    recorder.record(tag);
                                                  }),
                             model.add(sim.now() + period, tag, period));
        break;
      }
      case 4: {  // cancel a random handle — often stale or doubly cancelled
        if (handles.empty()) break;
        const auto& [handle, modelId] =
            handles[rng.uniformInt(handles.size())];
        // The model treats one-shot records as dead once fired, so a
        // cancel of either kind maps to the same "mark dead" operation;
        // live periodic series are killed outright on both sides.
        sim.cancel(handle);
        model.cancel(modelId);
        break;
      }
      case 5: {  // advance time and compare everything fired so far
        const SimTime until =
            sim.now() + static_cast<SimTime>(rng.uniformInt(80));
        sim.runUntil(until);
        model.runUntil(until, modelOrder);
        ASSERT_EQ(simOrder, modelOrder)
            << "divergence after op " << op << " (seed " << seed << ")";
        ASSERT_EQ(sim.pendingEvents(), model.live())
            << "live-count divergence after op " << op << " (seed " << seed
            << ")";
        ASSERT_EQ(sim.periodicSeries(), model.livePeriodic())
            << "periodic-count divergence after op " << op << " (seed "
            << seed << ")";
        ASSERT_EQ(sim.queuedEntries(), sim.pendingEvents())
            << "stale heap entries after op " << op << " (seed " << seed
            << ")";
        ASSERT_EQ(sim.now(), until);
        break;
      }
      case 6: {  // tagged one-shot: the kind rescheduleTagged can move
        const SimTime delay = static_cast<SimTime>(rng.uniformInt(50));
        const int tag = nextTag++;
        handles.emplace_back(sim.scheduleTagged(delay, modelTag(tag)),
                             model.add(sim.now() + delay, tag, 0));
        break;
      }
      case 7: {  // tagged periodic series: must never be moved in place
        const SimTime period = 1 + static_cast<SimTime>(rng.uniformInt(20));
        const int tag = nextTag++;
        handles.emplace_back(sim.schedulePeriodicTagged(period, modelTag(tag)),
                             model.add(sim.now() + period, tag, period));
        break;
      }
      case 8: {  // reschedule a random handle — live, fired, cancelled,
                 // untagged or periodic; usually under its own tag, so live
                 // tagged one-shots move in place
        if (handles.empty()) break;
        auto& [handle, modelId] = handles[rng.uniformInt(handles.size())];
        const int tag =
            rng.uniformInt(4) == 0 ? nextTag++ : model.tagOf(modelId);
        const SimTime delay = static_cast<SimTime>(rng.uniformInt(50));
        handle = sim.rescheduleTagged(handle, delay, modelTag(tag));
        modelId = model.reschedule(modelId, sim.now() + delay, tag);
        break;
      }
    }
  }

  // Kill periodic series so the final drain terminates, then drain fully.
  for (const auto& [handle, modelId] : handles) {
    if (model.isPeriodic(modelId)) {
      sim.cancel(handle);
      model.cancel(modelId);
    }
  }
  sim.run();
  model.runUntil(std::numeric_limits<SimTime>::max() / 2, modelOrder);
  EXPECT_EQ(simOrder, modelOrder) << "final drain divergence, seed " << seed;
  EXPECT_TRUE(recorder.monotone()) << "clock moved backwards, seed " << seed;
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.periodicSeries(), 0u);
  EXPECT_EQ(sim.queuedEntries(), 0u);
}

TEST(SchedulerProperty, MatchesReferenceModelAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    runRandomSequence(seed, 400);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerProperty, LongSequenceHeavyRecycling) {
  // Few distinct delays + many ops → slots recycle constantly and most
  // cancels hit stale generations.
  runRandomSequence(0x5eed5eed, 5000);
}

}  // namespace
}  // namespace st::sim
