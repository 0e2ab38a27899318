// Flow-solver microbenchmark: the per-side virtual-clock solver
// (net::FlowNetwork) vs the eager per-flow solver (eager_flow_network.h), on
// the two churn patterns that dominate a protocol run.
//
//  * churn      — 1k endpoints under a mixed add/remove/preempt load: striped
//                 body starts (8 flows into one destination, one batch),
//                 batched cancel waves, node departures, all against a
//                 slot-limited admission-controlled origin hub and a playback
//                 floor that pauses/resumes prefetch-class flows;
//  * drop_storm — a hub uploading to 256 peers departs; the eager solver
//                 re-solves the hub's surviving uploads after every single
//                 removal (quadratic in degree), the batch drains each dirty
//                 side once.
//
// Keeping the eager solver in-binary makes the speedup measurable under
// identical flags on the same machine. Both engines replay the identical
// deterministic scenario and must agree exactly on completions, aborts,
// sheds, and delivered bytes — the bench doubles as a differential test of
// the virtual-clock solver (scripts/check.sh runs it with --smoke).
//
// Emits BENCH_flow.json (path = first positional arg, default
// ./BENCH_flow.json). Regenerate the committed baseline with:
//   cmake --build build --target flow_bench && ./build/bench/flow_bench BENCH_flow.json
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <vector>

#include "eager_flow_network.h"
#include "net/flow_network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/strong_id.h"

namespace st::bench {
namespace {

// --- engine adapters --------------------------------------------------------
// A uniform surface over both solvers so the workloads are shared templates:
// configure, (optionally batched) start/cancel, drop, and the cross-check
// counters.

struct EagerEngine {
  explicit EagerEngine(sim::Simulator& sim) : flows(sim) {
    flows.setShedCallback(
        [this](EndpointId, EndpointId, net::FlowClass) { ++sheds; });
  }
  template <typename Fn>
  void batch(Fn&& fn) {
    fn();  // the eager solver has no batch scope — every call settles
  }
  FlowId start(EndpointId src, EndpointId dst, std::uint64_t bytes,
               net::FlowClass flowClass) {
    eager::FlowNetwork::FlowOptions options;
    options.flowClass = flowClass;
    return flows.startFlow(src, dst, bytes, options,
                           [this] { ++completions; });
  }
  void cancel(FlowId id) { flows.cancelFlow(id); }
  void drop(EndpointId endpoint) {
    flows.dropEndpointFlows(endpoint,
                            [this](FlowId, std::uint64_t) { ++aborts; });
  }

  eager::FlowNetwork flows;
  std::uint64_t completions = 0;
  std::uint64_t aborts = 0;
  std::uint64_t sheds = 0;
};

struct BatchedEngine {
  struct Counter final : net::FlowObserver {
    std::uint64_t completions = 0;
    std::uint64_t aborts = 0;
    std::uint64_t sheds = 0;
    void onFlowCompleted(FlowId) override { ++completions; }
    void onFlowAborted(FlowId, std::uint64_t) override { ++aborts; }
    void onFlowShed(EndpointId, EndpointId, net::FlowClass) override {
      ++sheds;
    }
  };

  explicit BatchedEngine(sim::Simulator& sim) : flows(sim) {
    flows.addObserver(&counter);
  }
  ~BatchedEngine() { flows.removeObserver(&counter); }
  template <typename Fn>
  void batch(Fn&& fn) {
    net::FlowNetwork::MutationBatch scope(flows);
    fn();
  }
  FlowId start(EndpointId src, EndpointId dst, std::uint64_t bytes,
               net::FlowClass flowClass) {
    net::FlowNetwork::FlowOptions options;
    options.flowClass = flowClass;
    return flows.startFlow(src, dst, bytes, options);
  }
  void cancel(FlowId id) { flows.cancelFlow(id); }
  void drop(EndpointId endpoint) { flows.dropEndpointFlows(endpoint); }

  net::FlowNetwork flows;
  Counter counter;
  std::uint64_t& completionsRef() { return counter.completions; }
};

// The configuration surface is identical on both (setUploadConcurrencyLimit,
// setPlaybackFloor, setAdmissionPolicy have the same spelling), so workloads
// reach through `.flows` for setup and queries.

struct WorkloadResult {
  double opsPerSec = 0;
  std::uint64_t ops = 0;
  std::uint64_t completions = 0;
  std::uint64_t aborts = 0;
  std::uint64_t sheds = 0;
  std::uint64_t bytesDelivered = 0;
};

template <typename Engine>
std::uint64_t completionsOf(Engine& eng) {
  if constexpr (requires { eng.counter.completions; }) {
    return eng.counter.completions;
  } else {
    return eng.completions;
  }
}
template <typename Engine>
std::uint64_t abortsOf(Engine& eng) {
  if constexpr (requires { eng.counter.aborts; }) {
    return eng.counter.aborts;
  } else {
    return eng.aborts;
  }
}
template <typename Engine>
std::uint64_t shedsOf(Engine& eng) {
  if constexpr (requires { eng.counter.sheds; }) {
    return eng.counter.sheds;
  } else {
    return eng.sheds;
  }
}

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- workload 1: mixed churn -------------------------------------------------
// 1024 endpoints; 16 high-capacity hubs absorb half the traffic so their
// flow degree climbs into the hundreds (the regime where per-mutation
// refresh sweeps hurt). Endpoint 0 is the slot-limited origin server with
// deadline-free admission. Each tick is one churn event: a striped body
// start (8 flows into one destination under one batch), a batched cancel
// wave, or a node departure.
template <typename Engine>
WorkloadResult churnWorkload(int ticks, std::uint64_t seed) {
  constexpr std::uint32_t kEndpoints = 1024;
  constexpr std::uint32_t kHubs = 8;
  sim::Simulator sim;
  Engine eng(sim);
  for (std::uint32_t i = 0; i < kEndpoints; ++i) {
    eng.flows.addEndpoint(EndpointId{i}, i < kHubs
                                             ? net::EndpointCapacity{60e6, 60e6}
                                             : net::EndpointCapacity{4e6, 8e6});
  }
  eng.flows.setUploadConcurrencyLimit(EndpointId{0}, 12);
  eng.flows.setPlaybackFloor(3e5);
  {
    // Same shape on both engines; the types differ, hence the local.
    typename std::remove_reference_t<decltype(eng.flows)>::AdmissionPolicy
        policy;
    policy.queueCap = 128;
    policy.shedPrefetch = true;
    eng.flows.setAdmissionPolicy(EndpointId{0}, policy);
  }

  Rng rng(seed);
  std::vector<FlowId> started;
  started.reserve(static_cast<std::size_t>(ticks) * 8);
  std::uint64_t ops = 0;

  const auto pickEndpoint = [&rng]() -> std::uint32_t {
    if (rng.uniform() < 0.65) {
      return static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{kHubs}));
    }
    return static_cast<std::uint32_t>(
        rng.uniformInt(std::uint64_t{kEndpoints}));
  };

  const auto tick = [&] {
    const double op = rng.uniform();
    if (op < 0.60) {
      // Striped body start: 8 providers feed one destination, one batch —
      // the eager solver re-solved the shared destination once per stripe.
      const std::uint32_t dst = pickEndpoint();
      eng.batch([&] {
        for (int k = 0; k < 8; ++k) {
          std::uint32_t src = pickEndpoint();
          if (src == dst) src = (src + 1) % kEndpoints;
          const auto flowClass =
              static_cast<net::FlowClass>(rng.uniformInt(std::uint64_t{3}));
          const std::uint64_t bytes =
              500'000 + rng.uniformInt(std::uint64_t{3'500'000});
          const FlowId id =
              eng.start(EndpointId{src}, EndpointId{dst}, bytes, flowClass);
          ++ops;
          if (id.valid()) started.push_back(id);
        }
      });
    } else if (op < 0.80) {
      // Cancel wave (stale picks that already completed no-op identically
      // on both engines).
      eng.batch([&] {
        for (int k = 0; k < 12 && !started.empty(); ++k) {
          const std::size_t pick = rng.uniformInt(started.size());
          eng.cancel(started[pick]);
          ++ops;
        }
      });
    } else {
      // Node departure.
      eng.drop(EndpointId{pickEndpoint()});
      ++ops;
    }
  };

  for (int i = 0; i < ticks; ++i) {
    sim.scheduleAt(sim::fromSeconds(rng.uniform(0.0, 120.0)), tick);
  }

  const auto start = std::chrono::steady_clock::now();
  sim.run();
  const double elapsed = seconds(std::chrono::steady_clock::now() - start);

  WorkloadResult result;
  result.ops = ops;
  result.opsPerSec = static_cast<double>(ops) / elapsed;
  result.completions = completionsOf(eng);
  result.aborts = abortsOf(eng);
  result.sheds = shedsOf(eng);
  for (std::uint32_t i = 0; i < kEndpoints; ++i) {
    result.bytesDelivered += eng.flows.bytesUploaded(EndpointId{i});
  }
  return result;
}

// --- workload 2: drop storm --------------------------------------------------
// A hub serving 256 peers departs, over and over. Every peer also carries a
// long-lived background download from a survivor, so each drop leaves one
// live flow per peer to re-solve. The eager solver's removeFlow refreshed
// the hub after every removal — O(peers^2) reschedules per drop; the batch
// marks endpoints dirty and drains once.
template <typename Engine>
WorkloadResult dropStormWorkload(int rounds, std::uint64_t seed) {
  constexpr std::uint32_t kPeers = 256;
  const EndpointId hub{0};
  const EndpointId survivor{1};
  sim::Simulator sim;
  Engine eng(sim);
  eng.flows.addEndpoint(hub, {200e6, 200e6});
  eng.flows.addEndpoint(survivor, {100e6, 100e6});
  for (std::uint32_t i = 0; i < kPeers; ++i) {
    eng.flows.addEndpoint(EndpointId{2 + i}, {4e6, 8e6});
  }
  Rng rng(seed);
  std::uint64_t ops = 0;

  // Background flows that outlive every drop round (never complete).
  eng.batch([&] {
    for (std::uint32_t i = 0; i < kPeers; ++i) {
      eng.start(survivor, EndpointId{2 + i}, 4'000'000'000ull,
                net::FlowClass::kPlayback);
    }
  });

  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    eng.batch([&] {
      for (std::uint32_t i = 0; i < kPeers; ++i) {
        const std::uint64_t bytes =
            50'000'000 + rng.uniformInt(std::uint64_t{1'000'000});
        eng.start(hub, EndpointId{2 + i}, bytes, net::FlowClass::kPlayback);
        ++ops;
      }
    });
    sim.runUntil(sim.now() + sim::fromSeconds(0.01));
    eng.drop(hub);
    ++ops;
  }
  const double elapsed = seconds(std::chrono::steady_clock::now() - start);

  WorkloadResult result;
  result.ops = ops;
  result.opsPerSec = static_cast<double>(ops) / elapsed;
  result.completions = completionsOf(eng);
  result.aborts = abortsOf(eng);
  result.sheds = shedsOf(eng);
  result.bytesDelivered =
      eng.flows.bytesUploaded(hub) + eng.flows.bytesUploaded(survivor);
  return result;
}

template <typename Fn>
WorkloadResult bestOf(int n, Fn fn) {
  WorkloadResult best;
  for (int i = 0; i < n; ++i) {
    const WorkloadResult r = fn();
    if (r.opsPerSec > best.opsPerSec) best = r;
  }
  return best;
}

// The two engines replayed the same deterministic scenario; any counter
// drift means the incremental solver diverged from the eager model.
bool crossCheck(const char* name, const WorkloadResult& eager,
                const WorkloadResult& batched) {
  const bool ok = eager.ops == batched.ops &&
                  eager.completions == batched.completions &&
                  eager.aborts == batched.aborts &&
                  eager.sheds == batched.sheds &&
                  eager.bytesDelivered == batched.bytesDelivered;
  if (!ok) {
    std::fprintf(stderr,
                 "%s: eager/batched divergence!\n"
                 "  ops         %llu vs %llu\n"
                 "  completions %llu vs %llu\n"
                 "  aborts      %llu vs %llu\n"
                 "  sheds       %llu vs %llu\n"
                 "  bytes       %llu vs %llu\n",
                 name, static_cast<unsigned long long>(eager.ops),
                 static_cast<unsigned long long>(batched.ops),
                 static_cast<unsigned long long>(eager.completions),
                 static_cast<unsigned long long>(batched.completions),
                 static_cast<unsigned long long>(eager.aborts),
                 static_cast<unsigned long long>(batched.aborts),
                 static_cast<unsigned long long>(eager.sheds),
                 static_cast<unsigned long long>(batched.sheds),
                 static_cast<unsigned long long>(eager.bytesDelivered),
                 static_cast<unsigned long long>(batched.bytesDelivered));
  }
  return ok;
}

}  // namespace
}  // namespace st::bench

int main(int argc, char** argv) {
  using namespace st::bench;
  const char* outPath = "BENCH_flow.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      outPath = argv[i];
    }
  }
  const int kReps = smoke ? 1 : 3;
  const int kChurnTicks = smoke ? 300 : 6000;
  const int kStormRounds = smoke ? 3 : 40;
  constexpr std::uint64_t kSeed = 20240817;

  std::printf("flow-solver microbenchmarks (eager = per-flow refresh "
              "solver, batched = per-side virtual clocks, best of %d)%s\n\n",
              kReps, smoke ? " [smoke]" : "");

  const WorkloadResult eagerChurn = bestOf(
      kReps, [&] { return churnWorkload<EagerEngine>(kChurnTicks, kSeed); });
  const WorkloadResult batchedChurn = bestOf(
      kReps, [&] { return churnWorkload<BatchedEngine>(kChurnTicks, kSeed); });
  std::printf("churn:      eager %12.0f ops/s   batched %12.0f ops/s"
              "   speedup %.2fx\n",
              eagerChurn.opsPerSec, batchedChurn.opsPerSec,
              batchedChurn.opsPerSec / eagerChurn.opsPerSec);

  const WorkloadResult eagerStorm = bestOf(kReps, [&] {
    return dropStormWorkload<EagerEngine>(kStormRounds, kSeed + 1);
  });
  const WorkloadResult batchedStorm = bestOf(kReps, [&] {
    return dropStormWorkload<BatchedEngine>(kStormRounds, kSeed + 1);
  });
  std::printf("drop storm: eager %12.0f ops/s   batched %12.0f ops/s"
              "   speedup %.2fx\n",
              eagerStorm.opsPerSec, batchedStorm.opsPerSec,
              batchedStorm.opsPerSec / eagerStorm.opsPerSec);

  if (!crossCheck("churn", eagerChurn, batchedChurn) ||
      !crossCheck("drop_storm", eagerStorm, batchedStorm)) {
    return 1;
  }
  std::printf("cross-check: completions/aborts/sheds/bytes identical on both "
              "engines\n");

  FILE* out = std::fopen(outPath, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", outPath);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"flow_bench\",\n"
      "  \"churn\": {\n"
      "    \"eager_ops_per_sec\": %.0f,\n"
      "    \"batched_ops_per_sec\": %.0f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"completions\": %llu,\n"
      "    \"aborts\": %llu,\n"
      "    \"sheds\": %llu\n"
      "  },\n"
      "  \"drop_storm\": {\n"
      "    \"eager_ops_per_sec\": %.0f,\n"
      "    \"batched_ops_per_sec\": %.0f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"aborts\": %llu\n"
      "  }\n"
      "}\n",
      eagerChurn.opsPerSec, batchedChurn.opsPerSec,
      batchedChurn.opsPerSec / eagerChurn.opsPerSec,
      static_cast<unsigned long long>(batchedChurn.completions),
      static_cast<unsigned long long>(batchedChurn.aborts),
      static_cast<unsigned long long>(batchedChurn.sheds),
      eagerStorm.opsPerSec, batchedStorm.opsPerSec,
      batchedStorm.opsPerSec / eagerStorm.opsPerSec,
      static_cast<unsigned long long>(batchedStorm.aborts));
  std::fclose(out);
  std::printf("\nwrote %s\n", outPath);
  return 0;
}
