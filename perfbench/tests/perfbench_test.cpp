// The benchmark's own arithmetic: self-time attribution across nested
// tagged invocations, cancel counting, percentile reporting and the digest.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>

#include "attribution.h"
#include "results.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

using st::sim::Component;
using st::sim::EventTag;

// Scripted time: tests advance it explicitly inside event bodies.
std::int64_t gNow = 0;
std::int64_t fakeClock() { return gNow; }

class LambdaFactory final : public st::sim::EventFactory {
 public:
  explicit LambdaFactory(std::function<void(const EventTag&)> body)
      : body_(std::move(body)) {}
  [[nodiscard]] st::sim::Callback rebuild(const EventTag& tag) override {
    return [this, tag] { body_(tag); };
  }

 private:
  std::function<void(const EventTag&)> body_;
};

TEST(Attribution, NestedInvocationIsNeitherDoubleCountedNorLost) {
  gNow = 0;
  Attribution attribution(&fakeClock);
  st::sim::Simulator sim;
  const EventTag inner = st::sim::makeTag(Component::kTransfer, 0);
  LambdaFactory transfer([](const EventTag&) { gNow += 30; });
  LambdaFactory flow([&sim, &inner](const EventTag&) {
    gNow += 100;
    sim.invokeTagged(inner);  // like FlowNetwork's completion notification
    gNow += 50;
  });
  sim.registerFactory(Component::kTransfer, &transfer);
  sim.registerFactory(Component::kFlow, &flow);
  {
    TimedFactories timed(sim, attribution);
    sim.scheduleAtTagged(10, st::sim::makeTag(Component::kFlow, 0));
    // Untagged work stands in for the queue's own cost: no component owns it.
    sim.scheduleAt(20, [] { gNow += 20; });
    const std::int64_t loopStart = attribution.now();
    sim.runUntil(100);
    const std::int64_t loopNs = attribution.now() - loopStart;
    attribution.close();

    EXPECT_EQ(loopNs, 200);
    EXPECT_EQ(attribution.cost(Component::kFlow).selfNs, 150);
    EXPECT_EQ(attribution.cost(Component::kTransfer).selfNs, 30);
    EXPECT_EQ(attribution.eventNs(), 180);
    EXPECT_EQ(attribution.simSelfNs(loopNs), 20);
    EXPECT_EQ(attribution.cost(Component::kFlow).selfNs +
                  attribution.cost(Component::kTransfer).selfNs +
                  attribution.simSelfNs(loopNs),
              loopNs);
    EXPECT_EQ(attribution.eventRuns(), 1u);
    EXPECT_EQ(sim.eventsFired(), 2u);
    EXPECT_EQ(attribution.cost(Component::kTransfer).runs, 1u);
    EXPECT_EQ(attribution.cost(Component::kTransfer).invoked, 1u);
    // The invoked completion was never scheduled, and nothing was cancelled.
    EXPECT_EQ(attribution.scheduled(), 1u);
    EXPECT_EQ(attribution.cancelled(), 0u);
  }
  // The decorators are gone: the original factories are registered again.
  EXPECT_EQ(sim.factory(Component::kFlow), &flow);
  EXPECT_EQ(sim.factory(Component::kTransfer), &transfer);
}

TEST(Attribution, CancelsCountOneShotsAndPeriodicsDestroyedBeforeFirstRun) {
  gNow = 0;
  Attribution attribution(&fakeClock);
  st::sim::Simulator sim;
  LambdaFactory session([](const EventTag&) { gNow += 1; });
  sim.registerFactory(Component::kSession, &session);
  TimedFactories timed(sim, attribution);
  const EventTag tag = st::sim::makeTag(Component::kSession, 0);

  const auto cancelledOneShot = sim.scheduleAtTagged(50, tag);
  sim.scheduleAtTagged(5, tag);                           // fires
  const auto ticking = sim.schedulePeriodicTagged(10, tag);  // 10, 20, 30
  const auto silent = sim.schedulePeriodicTagged(40, tag);   // never ticks
  sim.scheduleAtTagged(1000, tag);  // still pending at the horizon
  sim.cancel(cancelledOneShot);
  sim.cancel(silent);
  sim.scheduleAt(35, [&sim, ticking] { sim.cancel(ticking); });
  sim.cancel(cancelledOneShot);  // a stale handle cancels nothing

  sim.runUntil(100);
  attribution.close();

  EXPECT_EQ(attribution.cancelled(), 2u);
  EXPECT_EQ(attribution.cost(Component::kSession).cancelled, 2u);
  EXPECT_EQ(attribution.scheduled(), 5u);
  EXPECT_EQ(attribution.cost(Component::kSession).runs, 4u);  // 5, 10, 20, 30
  EXPECT_EQ(attribution.eventRuns(), 4u);
  EXPECT_EQ(sim.eventsFired(), 5u);  // plus the untagged cancel event
}

TEST(Attribution, PendingAtHorizonIsNotACancelAfterClose) {
  Attribution attribution(&fakeClock);
  {
    st::sim::Simulator sim;
    LambdaFactory session([](const EventTag&) {});
    sim.registerFactory(Component::kSession, &session);
    TimedFactories timed(sim, attribution);
    sim.scheduleAtTagged(1000, st::sim::makeTag(Component::kSession, 0));
    sim.runUntil(100);
    attribution.close();
  }  // the simulator destroys the pending callback here
  EXPECT_EQ(attribution.cancelled(), 0u);
  EXPECT_EQ(attribution.scheduled(), 1u);
}

TEST(Percentile, ReportsItsSampleCount) {
  st::SampleSet samples;
  for (int i = 1000; i >= 1; --i) samples.add(i);
  const Percentile p99 = percentileOf(samples, 99.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_DOUBLE_EQ(p99.value, samples.percentile(99.0));
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_NE(p99.describe().find("n=1000"), std::string::npos);

  st::SampleSet few;
  for (int i = 0; i < 50; ++i) few.add(i);
  const Percentile thin = percentileOf(few, 99.0);
  EXPECT_EQ(thin.samples, 50u);
  EXPECT_LT(thin.beyond, 10u);
  EXPECT_NE(thin.describe().find("n=50"), std::string::npos);

  const Percentile none = percentileOf(st::SampleSet{}, 99.0);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_TRUE(std::isnan(none.value));
}

TEST(Digest, IgnoresWhetherAPercentileWasQueriedFirst) {
  st::exp::ExperimentResult a;
  a.system = "SocialTube";
  a.setCounter("watches", 3);
  for (const double x : {3.0, 1.0, 2.0}) a.startupDelayMs.add(x);
  st::exp::ExperimentResult b = a;
  (void)b.startupDelayMs.percentile(50);  // sorts b's buffer in place
  EXPECT_EQ(simDigest(a), simDigest(b));

  b.setCounter("watches", 4);
  EXPECT_NE(simDigest(a), simDigest(b));
}

}  // namespace
}  // namespace perfbench
