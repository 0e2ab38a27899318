// The traced replica of exp::runExperiment.
//
// Builds the experiment stack exactly as the runner does (same components,
// same scheduling order, same registered counters and gauges) from public
// constructors, then installs TimedFactories so every event's host time and
// fate land on its sim::Component. Nothing in the simulated run changes:
// the caller checks that the replica's counters and overlay fingerprint
// equal runExperiment's for the same config and catalog.
#pragma once

#include <cstdint>

#include "attribution.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "trace/catalog.h"

namespace perfbench {

struct TracedRun {
  st::exp::ExperimentResult result;
  // Coarse spans (host nanoseconds): stack construction, runUntil, extract.
  std::int64_t buildNs = 0;
  std::int64_t loopNs = 0;
  std::int64_t extractNs = 0;
  // Events the simulator fired (Simulator::eventsFired()).
  std::uint64_t eventsFired = 0;
  // FlowNetwork::rateRecomputations() at the horizon.
  std::uint64_t flowRecomputations = 0;
  // Flow fates, from a FlowObserver the replica owns.
  std::uint64_t flowCompletions = 0;
  std::uint64_t flowAborts = 0;
  std::uint64_t flowSheds = 0;
};

// Runs `kind` under `config` on `catalog` with per-component attribution into
// `attribution`, which must outlive the call (it is closed at the horizon).
[[nodiscard]] TracedRun runTraced(const st::exp::ExperimentConfig& config,
                                  st::exp::SystemKind kind,
                                  const st::trace::Catalog& catalog,
                                  Attribution& attribution);

}  // namespace perfbench
