#include "attribution.h"

#include <chrono>
#include <utility>

namespace perfbench {

using st::sim::Callback;
using st::sim::Component;

std::int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The timing shim. Larger than Callback's inline buffer, so the Callback
// holding it keeps it on the heap and relocates only the pointer; the move
// constructor exists for that one construction.
class TimedCall {
 public:
  TimedCall(Attribution& attribution, Component component, Callback inner)
      : attribution_(&attribution), inner_(std::move(inner)),
        component_(component) {}
  TimedCall(TimedCall&& other) noexcept
      : attribution_(other.attribution_), inner_(std::move(other.inner_)),
        component_(other.component_), ran_(other.ran_),
        owner_(std::exchange(other.owner_, false)) {}
  TimedCall& operator=(TimedCall&&) = delete;
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;
  ~TimedCall() {
    if (owner_ && !ran_) attribution_->destroyedUnrun(component_);
  }

  void operator()() {
    attribution_->enter(!ran_, component_);
    ran_ = true;
    inner_();
    attribution_->exit(component_);
  }

 private:
  Attribution* attribution_;
  Callback inner_;
  Component component_;
  bool ran_ = false;
  bool owner_ = true;
};

Callback Attribution::wrap(Component component, Callback inner) {
  if (!inner) return inner;
  ++costs_[static_cast<std::size_t>(component)].built;
  return TimedCall(*this, component, std::move(inner));
}

void Attribution::enter(bool firstRun, Component component) {
  if (firstRun && !frames_.empty()) {
    ++costs_[static_cast<std::size_t>(component)].invoked;
  }
  frames_.push_back(Frame{clock_(), 0});
}

void Attribution::exit(Component component) {
  const std::int64_t end = clock_();
  const Frame frame = frames_.back();
  frames_.pop_back();
  const std::int64_t elapsed = end - frame.start;
  ComponentCost& cost = costs_[static_cast<std::size_t>(component)];
  cost.selfNs += elapsed - frame.nestedNs;
  ++cost.runs;
  if (frames_.empty()) {
    eventNs_ += elapsed;
    ++eventRuns_;
  } else {
    frames_.back().nestedNs += elapsed;
  }
}

std::uint64_t Attribution::scheduled() const {
  std::uint64_t total = 0;
  for (const ComponentCost& cost : costs_) total += cost.built - cost.invoked;
  return total;
}

std::uint64_t Attribution::cancelled() const {
  std::uint64_t total = 0;
  for (const ComponentCost& cost : costs_) total += cost.cancelled;
  return total;
}

class TimedFactories::Decorator final : public st::sim::EventFactory {
 public:
  Decorator(Component component, EventFactory& inner, Attribution& attribution)
      : component_(component), inner_(inner), attribution_(attribution) {}

  [[nodiscard]] Callback rebuild(const st::sim::EventTag& tag) override {
    return attribution_.wrap(component_, inner_.rebuild(tag));
  }
  void discard(const st::sim::EventTag& tag) override { inner_.discard(tag); }
  void onRestored(const st::sim::EventTag& tag,
                  st::sim::EventHandle handle) override {
    inner_.onRestored(tag, handle);
  }

  [[nodiscard]] Component component() const { return component_; }
  [[nodiscard]] EventFactory& inner() const { return inner_; }

 private:
  Component component_;
  EventFactory& inner_;
  Attribution& attribution_;
};

TimedFactories::TimedFactories(st::sim::Simulator& sim,
                               Attribution& attribution)
    : sim_(sim) {
  for (std::size_t i = 1; i < st::sim::kComponentCount; ++i) {
    const auto component = static_cast<Component>(i);
    st::sim::EventFactory* factory = sim_.factory(component);
    if (factory == nullptr) continue;
    decorators_.push_back(
        std::make_unique<Decorator>(component, *factory, attribution));
    sim_.registerFactory(component, decorators_.back().get());
  }
}

TimedFactories::~TimedFactories() {
  for (const auto& decorator : decorators_) {
    if (sim_.factory(decorator->component()) == decorator.get()) {
      sim_.registerFactory(decorator->component(), &decorator->inner());
    }
  }
}

}  // namespace perfbench
