// Host-time and work attribution per sim::Component, from outside the
// simulator.
//
// TimedFactories swaps every registered sim::EventFactory for a decorator
// whose rebuild() wraps the component's callback in a timing shim. Every
// fired event (and every synchronous Simulator::invokeTagged call) then runs
// through Attribution::enter/exit, which keeps a stack of open spans:
//
//   self(event) = duration(event) - duration of events nested inside it
//
// so a transfer completion that FlowNetwork invokes from inside its own
// finish event is charged to kTransfer, and kFlow keeps only the rest. The
// component self times sum to the time spent inside outermost events; the
// event loop's remaining time is the queue's own cost (simSelfNs).
//
// A cancel is a wrapped callback destroyed before its first run: a one-shot
// cancelled while pending, or a periodic series cancelled before its first
// tick. Callbacks still pending when the run stops are not cancels — call
// close() once the loop returns. Messages lost in the network never get a
// callback (Simulator::discardTagged skips rebuild), so they are not counted.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.h"
#include "sim/event_tag.h"
#include "sim/simulator.h"

namespace perfbench {

// Monotonic nanosecond clock; injectable so tests can script time.
using ClockFn = std::int64_t (*)();
[[nodiscard]] std::int64_t steadyNowNs();

struct ComponentCost {
  std::int64_t selfNs = 0;
  // Runs of the component's callbacks: fired events plus synchronous
  // invocations nested inside another event.
  std::uint64_t runs = 0;
  // Callbacks the component's factory built.
  std::uint64_t built = 0;
  // Built callbacks whose first run was nested inside another event
  // (invokeTagged), i.e. never scheduled.
  std::uint64_t invoked = 0;
  std::uint64_t cancelled = 0;
};

class Attribution {
 public:
  explicit Attribution(ClockFn clock = &steadyNowNs) : clock_(clock) {}
  Attribution(const Attribution&) = delete;
  Attribution& operator=(const Attribution&) = delete;

  // Wraps `inner` so its runs and its destruction are attributed to
  // `component`. The returned callback must not outlive this object.
  [[nodiscard]] st::sim::Callback wrap(st::sim::Component component,
                                       st::sim::Callback inner);

  // Stops cancel counting: callbacks destroyed from now on (events pending
  // at the horizon, torn down with the simulator) are not cancels.
  void close() { closed_ = true; }

  [[nodiscard]] const ComponentCost& cost(st::sim::Component c) const {
    return costs_[static_cast<std::size_t>(c)];
  }
  // Time inside outermost events; equals the sum of every component's
  // self time.
  [[nodiscard]] std::int64_t eventNs() const { return eventNs_; }
  // Outermost runs, i.e. tagged events the simulator fired.
  [[nodiscard]] std::uint64_t eventRuns() const { return eventRuns_; }
  [[nodiscard]] std::uint64_t scheduled() const;
  [[nodiscard]] std::uint64_t cancelled() const;
  // The event loop's own cost: `loopNs` minus every component's self time.
  [[nodiscard]] std::int64_t simSelfNs(std::int64_t loopNs) const {
    return loopNs - eventNs_;
  }

  [[nodiscard]] std::int64_t now() const { return clock_(); }

 private:
  friend class TimedCall;

  struct Frame {
    std::int64_t start = 0;
    std::int64_t nestedNs = 0;
  };

  void enter(bool firstRun, st::sim::Component component);
  void exit(st::sim::Component component);
  void destroyedUnrun(st::sim::Component component) {
    if (!closed_) ++costs_[static_cast<std::size_t>(component)].cancelled;
  }

  ClockFn clock_;
  bool closed_ = false;
  std::vector<Frame> frames_;
  std::array<ComponentCost, st::sim::kComponentCount> costs_{};
  std::int64_t eventNs_ = 0;
  std::uint64_t eventRuns_ = 0;
};

// For its lifetime, every factory registered on `sim` at construction is
// replaced by a decorator that wraps rebuilt callbacks through `attribution`;
// the originals are re-registered on destruction. Construct it after the
// stack is built and before anything is scheduled, and destroy it before the
// components whose factories it wraps.
class TimedFactories {
 public:
  TimedFactories(st::sim::Simulator& sim, Attribution& attribution);
  ~TimedFactories();
  TimedFactories(const TimedFactories&) = delete;
  TimedFactories& operator=(const TimedFactories&) = delete;

 private:
  class Decorator;
  st::sim::Simulator& sim_;
  std::vector<std::unique_ptr<Decorator>> decorators_;
};

}  // namespace perfbench
