// Differential and snapshot tests of the per-side virtual-clock solver.
//
// The eager per-flow solver (bench/eager_flow_network.h) implements the same
// fluid model by settling and re-timing every flow at an endpoint on every
// membership change. Randomized scenarios — mixed capacities, striped
// starts, cancels, node departures, a slot-limited admission-controlled hub
// and the playback floor — replay through both: completions, aborts, sheds
// and delivered bytes must match exactly, completion times within
// kToleranceUs (the two solvers round differently). The rest pins the
// binding flips: a whole hub flipping sides when its share crosses its
// downloaders', and a snapshot taken between flips restoring bitwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "eager_flow_network.h"
#include "net/flow_network.h"
#include "sim/simulator.h"
#include "snapshot/codec.h"
#include "util/rng.h"

namespace st::net {
namespace {

// Completion times may differ by this much between the two solvers: each
// truncates its event times to whole microseconds from differently rounded
// remaining work, and a shifted completion shifts the rates of the flows
// sharing its endpoints.
constexpr sim::SimTime kToleranceUs = 3;

struct Op {
  enum class Kind { kStart, kStripe, kCancel, kDrop };
  sim::SimTime at = 0;
  Kind kind = Kind::kStart;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t bytes = 0;
  FlowClass flowClass = FlowClass::kPlayback;
  std::uint64_t pick = 0;
};

struct Scenario {
  std::vector<EndpointCapacity> caps;
  double floorBps = 0.0;
  std::size_t hubLimit = 0;  // 0 = unlimited
  std::size_t queueCap = 0;
  std::vector<Op> ops;
};

Scenario makeScenario(std::uint64_t seed) {
  Rng rng = Rng::forPurpose(seed, "flow-differential");
  Scenario s;
  constexpr double kRates[] = {0.5e6, 1e6, 2e6, 4e6, 8e6, 20e6};
  const std::size_t endpoints = 8 + rng.uniformInt(std::uint64_t{17});
  // Endpoint 0 is a hub: a wide uplink that many flows share.
  s.caps.push_back({40e6, 8e6});
  for (std::size_t i = 1; i < endpoints; ++i) {
    s.caps.push_back({kRates[rng.uniformInt(std::uint64_t{6})],
                      kRates[rng.uniformInt(std::uint64_t{6})]});
  }
  if (seed % 2 == 1) s.floorBps = 3e5;
  if (seed % 3 != 0) {
    s.hubLimit = 6 + rng.uniformInt(std::uint64_t{10});
    s.queueCap = seed % 3 == 1 ? 8 : 0;
  }
  const auto endpoint = [&] {
    return static_cast<std::uint32_t>(rng.uniformInt(s.caps.size()));
  };
  for (int i = 0; i < 320; ++i) {
    Op op;
    op.at = sim::fromSeconds(rng.uniform(0.0, 20.0));
    const double roll = rng.uniform();
    op.kind = roll < 0.55   ? Op::Kind::kStart
              : roll < 0.7  ? Op::Kind::kStripe
              : roll < 0.93 ? Op::Kind::kCancel
                            : Op::Kind::kDrop;
    op.src = rng.uniform() < 0.4 ? 0 : endpoint();
    op.dst = endpoint();
    if (op.dst == op.src) op.dst = (op.dst + 1) % s.caps.size();
    op.bytes = 20'000 + rng.uniformInt(std::uint64_t{1'500'000});
    op.flowClass = static_cast<FlowClass>(rng.uniformInt(std::uint64_t{3}));
    op.pick = rng.next();
    s.ops.push_back(op);
  }
  return s;
}

struct Outcome {
  std::map<std::uint32_t, sim::SimTime> completions;  // flow id -> time
  std::map<std::uint32_t, std::uint64_t> aborts;      // flow id -> bytes done
  std::uint64_t sheds = 0;
  std::vector<std::uint64_t> uploaded;
  std::vector<std::uint64_t> downloaded;
};

// Replays `s` through either solver. Engine supplies configure/start/
// cancel/drop/batch over its network; the op stream is identical.
template <typename Engine>
Outcome replay(const Scenario& s) {
  sim::Simulator sim;
  Engine engine(sim);
  for (std::size_t i = 0; i < s.caps.size(); ++i) {
    engine.flows.addEndpoint(EndpointId{static_cast<std::uint32_t>(i)},
                             s.caps[i]);
  }
  engine.flows.setPlaybackFloor(s.floorBps);
  if (s.hubLimit > 0) {
    engine.flows.setUploadConcurrencyLimit(EndpointId{0}, s.hubLimit);
    typename std::remove_reference_t<decltype(engine.flows)>::AdmissionPolicy
        policy;
    policy.queueCap = s.queueCap;
    engine.flows.setAdmissionPolicy(EndpointId{0}, policy);
  }
  std::vector<FlowId> started;
  const auto start = [&](std::uint32_t src, std::uint32_t dst,
                         std::uint64_t bytes, FlowClass flowClass) {
    const FlowId id = engine.start(EndpointId{src}, EndpointId{dst}, bytes,
                                   flowClass);
    if (id.valid()) started.push_back(id);
  };
  for (const Op& op : s.ops) {
    sim.scheduleAt(op.at, [&, op] {
      switch (op.kind) {
        case Op::Kind::kStart:
          start(op.src, op.dst, op.bytes, op.flowClass);
          break;
        case Op::Kind::kStripe:
          // Four providers feed one destination under one batch.
          engine.batch([&] {
            for (std::uint32_t k = 0; k < 4; ++k) {
              std::uint32_t src = (op.src + 3 * k) % s.caps.size();
              if (src == op.dst) src = (src + 1) % s.caps.size();
              start(src, op.dst, op.bytes / 4 + 1, op.flowClass);
            }
          });
          break;
        case Op::Kind::kCancel:
          if (!started.empty()) {
            engine.cancel(started[op.pick % started.size()]);
          }
          break;
        case Op::Kind::kDrop:
          engine.drop(EndpointId{op.dst});
          break;
      }
    });
  }
  sim.run();
  Outcome out = std::move(engine.outcome);
  for (std::size_t i = 0; i < s.caps.size(); ++i) {
    const EndpointId id{static_cast<std::uint32_t>(i)};
    out.uploaded.push_back(engine.flows.bytesUploaded(id));
    out.downloaded.push_back(engine.flows.bytesDownloaded(id));
  }
  return out;
}

struct EagerEngine {
  explicit EagerEngine(sim::Simulator& simulator)
      : sim(simulator), flows(simulator) {
    flows.setShedCallback(
        [this](EndpointId, EndpointId, FlowClass) { ++outcome.sheds; });
  }
  FlowId start(EndpointId src, EndpointId dst, std::uint64_t bytes,
               FlowClass flowClass) {
    bench::eager::FlowNetwork::FlowOptions options;
    options.flowClass = flowClass;
    // The id is known only after the call; completion never fires
    // synchronously, so the callback reads it from the shared cell.
    auto cell = std::make_shared<std::uint32_t>(0);
    const FlowId id = flows.startFlow(src, dst, bytes, options, [this, cell] {
      outcome.completions[*cell] = sim.now();
    });
    *cell = id.value();
    return id;
  }
  void cancel(FlowId id) { flows.cancelFlow(id); }
  void drop(EndpointId endpoint) {
    flows.dropEndpointFlows(endpoint, [this](FlowId id, std::uint64_t bytes) {
      outcome.aborts[id.value()] = bytes;
    });
  }
  template <typename Fn>
  void batch(Fn&& fn) {
    fn();
  }

  sim::Simulator& sim;
  bench::eager::FlowNetwork flows;
  Outcome outcome;
};

struct VirtualClockEngine final : FlowObserver {
  explicit VirtualClockEngine(sim::Simulator& simulator)
      : sim(simulator), flows(simulator) {
    flows.addObserver(this);
  }
  ~VirtualClockEngine() override { flows.removeObserver(this); }
  FlowId start(EndpointId src, EndpointId dst, std::uint64_t bytes,
               FlowClass flowClass) {
    FlowOptions options;
    options.flowClass = flowClass;
    return flows.startFlow(src, dst, bytes, options);
  }
  void cancel(FlowId id) { flows.cancelFlow(id); }
  void drop(EndpointId endpoint) { flows.dropEndpointFlows(endpoint); }
  template <typename Fn>
  void batch(Fn&& fn) {
    FlowNetwork::MutationBatch scope(flows);
    fn();
  }
  void onFlowShed(EndpointId, EndpointId, FlowClass) override {
    ++outcome.sheds;
  }
  void onFlowAborted(FlowId id, std::uint64_t bytes) override {
    outcome.aborts[id.value()] = bytes;
  }
  void onFlowCompleted(FlowId id) override {
    outcome.completions[id.value()] = sim.now();
  }

  sim::Simulator& sim;
  FlowNetwork flows;
  Outcome outcome;
};

class FlowDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowDifferential, MatchesTheEagerSolver) {
  const Scenario scenario = makeScenario(GetParam());
  const Outcome eager = replay<EagerEngine>(scenario);
  const Outcome clocked = replay<VirtualClockEngine>(scenario);

  EXPECT_EQ(clocked.sheds, eager.sheds);
  EXPECT_EQ(clocked.uploaded, eager.uploaded);
  EXPECT_EQ(clocked.downloaded, eager.downloaded);
  ASSERT_EQ(clocked.completions.size(), eager.completions.size());
  ASSERT_GT(eager.completions.size(), 100u);
  sim::SimTime worst = 0;
  for (const auto& [id, when] : eager.completions) {
    const auto it = clocked.completions.find(id);
    ASSERT_NE(it, clocked.completions.end()) << "flow " << id;
    const sim::SimTime gap = std::max(it->second - when, when - it->second);
    EXPECT_LE(gap, kToleranceUs) << "flow " << id;
    worst = std::max(worst, gap);
  }
  ASSERT_EQ(clocked.aborts.size(), eager.aborts.size());
  for (const auto& [id, bytes] : eager.aborts) {
    const auto it = clocked.aborts.find(id);
    ASSERT_NE(it, clocked.aborts.end()) << "flow " << id;
    // Delivered bytes at the abort are read off differently rounded
    // clocks; 20 Mbps for the time tolerance bounds the drift.
    const std::uint64_t gap =
        std::max(it->second, bytes) - std::min(it->second, bytes);
    EXPECT_LE(gap, 20e6 / 8.0 * sim::toSeconds(kToleranceUs) + 1.0)
        << "flow " << id;
  }
  RecordProperty("worst_completion_gap_us", static_cast<int>(worst));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

// --- binding flips -----------------------------------------------------------

// A 40 Mbps hub feeding 4 Mbps downloaders: the hub's share crosses the
// downloaders' at n = 10 flows.
class FlowFlipTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kPeers = 10;

  static void configure(FlowNetwork& flows) {
    flows.addEndpoint(EndpointId{0}, {40e6, 40e6});
    for (std::uint32_t i = 1; i <= kPeers; ++i) {
      flows.addEndpoint(EndpointId{i}, {8e6, 4e6});
    }
  }
};

TEST_F(FlowFlipTest, AllHubFlowsFlipTogetherWhenTheShareCrosses) {
  sim::Simulator sim;
  FlowNetwork flows(sim);
  configure(flows);
  struct Times final : FlowObserver {
    std::map<std::uint32_t, sim::SimTime> done;
    sim::Simulator* sim = nullptr;
    void onFlowCompleted(FlowId id) override { done[id.value()] = sim->now(); }
  } times;
  times.sim = &sim;
  flows.addObserver(&times);

  // Nine flows: the hub's share (4.44 Mbps) exceeds each downloader's
  // 4 Mbps, so every flow is bound to its own download side.
  std::vector<FlowId> ids;
  for (std::uint32_t i = 1; i < kPeers; ++i) {
    ids.push_back(flows.startFlow(EndpointId{0}, EndpointId{i}, 1'000'000));
  }
  EXPECT_EQ(flows.boundSides(), kPeers - 1);
  EXPECT_EQ(sim.pendingEvents(), kPeers - 1);

  // The tenth ties the hub's share with the downloaders' (4 Mbps): the tie
  // goes to the upload side, so all ten bind to the hub — nine flips plus
  // the new flow's bind — and one event replaces nine.
  sim.runUntil(sim::fromSeconds(0.5));
  std::uint64_t before = flows.rateRecomputations();
  const FlowId tenth =
      flows.startFlow(EndpointId{0}, EndpointId{kPeers}, 1'000'000);
  EXPECT_EQ(flows.boundSides(), 1u);
  EXPECT_EQ(sim.pendingEvents(), 1u);
  // Ten binds plus the hub's re-time; the download sides that gave their
  // flows away re-time nothing.
  EXPECT_EQ(flows.rateRecomputations() - before, kPeers + 1);
  for (const FlowId id : ids) EXPECT_DOUBLE_EQ(flows.flowRateBps(id), 4e6);

  // Cancelling it lifts the hub's share again: all nine flip back.
  sim.runUntil(sim::fromSeconds(1.0));
  before = flows.rateRecomputations();
  flows.cancelFlow(tenth);
  EXPECT_EQ(flows.boundSides(), kPeers - 1);
  EXPECT_EQ(sim.pendingEvents(), kPeers - 1);
  // Nine rebinds; the hub, left with nothing bound, just cancels its event.
  EXPECT_EQ(flows.rateRecomputations() - before, kPeers - 1);

  // Every flow ran at 4 Mbps throughout, across both flips: 1 MB in 2 s.
  sim.run();
  ASSERT_EQ(times.done.size(), ids.size());
  for (const FlowId id : ids) {
    EXPECT_NEAR(sim::toSeconds(times.done[id.value()]), 2.0, 1e-6);
  }
  flows.removeObserver(&times);
}

std::vector<std::uint8_t> saveFile(const sim::Simulator& sim,
                                   const FlowNetwork& flows) {
  snapshot::Writer w;
  std::string error;
  EXPECT_TRUE(flows.saveState(w, &error)) << error;
  EXPECT_TRUE(sim.saveState(w, &error)) << error;
  const std::string path = ::testing::TempDir() + "st_flow_flip.snap";
  EXPECT_TRUE(w.writeFile(path, &error)) << error;
  std::vector<std::uint8_t> file;
  EXPECT_TRUE(snapshot::Reader::readFile(path, &file, &error)) << error;
  std::remove(path.c_str());
  return file;
}

TEST_F(FlowFlipTest, SnapshotBetweenFlipsRestoresBitwise) {
  // The script: nine flows bound to their download sides; at 0.5 s a tenth
  // flips them all onto the hub; the snapshot is taken at 0.75 s, with the
  // hub's clock running; at 1.0 s the tenth is cancelled and they flip back.
  struct Run final : FlowObserver {
    sim::Simulator sim;
    FlowNetwork flows{sim};
    std::vector<std::pair<std::uint32_t, sim::SimTime>> done;
    Run() {
      configure(flows);
      flows.addObserver(this);
    }
    ~Run() override { flows.removeObserver(this); }
    void onFlowCompleted(FlowId id) override {
      done.emplace_back(id.value(), sim.now());
    }
    // Continues the script from 0.75 s.
    void finish() {
      sim.runUntil(sim::fromSeconds(1.0));
      flows.cancelFlow(FlowId{kPeers});
      sim.run();
    }
  };

  Run original;
  for (std::uint32_t i = 1; i < kPeers; ++i) {
    // Staggered sizes, so the flows finish at distinct times.
    original.flows.startFlow(EndpointId{0}, EndpointId{i},
                             900'000 + 37'000 * i);
  }
  original.sim.runUntil(sim::fromSeconds(0.5));
  original.flows.startFlow(EndpointId{0}, EndpointId{kPeers}, 1'000'000);
  ASSERT_EQ(original.flows.boundSides(), 1u);
  original.sim.runUntil(sim::fromSeconds(0.75));
  const std::vector<std::uint8_t> file = saveFile(original.sim, original.flows);

  Run restored;
  snapshot::Reader r(file);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_TRUE(restored.flows.loadState(r)) << r.error();
  ASSERT_TRUE(restored.sim.loadState(r)) << r.error();
  EXPECT_EQ(restored.sim.now(), sim::fromSeconds(0.75));
  EXPECT_EQ(restored.flows.boundSides(), 1u);
  EXPECT_EQ(saveFile(restored.sim, restored.flows), file);

  original.finish();
  restored.finish();
  ASSERT_EQ(original.done.size(), kPeers - 1);
  EXPECT_EQ(restored.done, original.done);  // same ids, same microseconds
  EXPECT_EQ(saveFile(restored.sim, restored.flows),
            saveFile(original.sim, original.flows));
}

}  // namespace
}  // namespace st::net
