#include "workloads.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/time.h"
#include "vod/overload.h"

namespace perfbench {

namespace {

using st::exp::ExperimentConfig;

constexpr std::array<std::string_view, 3> kNames = {
    "fanin_2k", "planetlab_250", "churn_faults"};

constexpr const char* kChurnFaults =
    "slow:t=3600,dur=1200,frac=0.2,factor=8;"
    "flap:t=4200,dur=900,frac=0.1,period=60;"
    "dup:t=4800,dur=1800,rate=0.3;"
    "reorder:t=4800,dur=1800,rate=0.3,delay_ms=150;"
    "crash:t=7200,frac=0.25;"
    "rejoin:t=10800,frac=1;"
    "outage:t=20000,dur=600;"
    "loss:t=30000,dur=1200,rate=0.2";

// The repository's default experiment seed (ExperimentConfig::seed).
constexpr std::uint64_t kCatalogSeed = 1;

std::optional<ExperimentConfig> shapeOf(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "fanin_2k") {
    // Table I shape at 2,000 users, 3 sessions each, 3 simulated days, calm:
    // the origin server and popular holders carry O(users) flows.
    return ExperimentConfig::simulationDefaults(seed).scaledTo(2'000, 3);
  }
  if (name == "planetlab_250") {
    // The paper's §V deployment as configured: 250 nodes, 6x10x40 catalog,
    // 50 sessions, wide-area latency with 1% loss, 5 Mbps server.
    return ExperimentConfig::planetLabDefaults(seed);
  }
  if (name == "churn_faults") {
    // 1,000 users x 3 sessions under the fault schedule above, with the
    // overload ladder on and invariant audits every 10 simulated minutes.
    ExperimentConfig config =
        ExperimentConfig::simulationDefaults(seed).scaledTo(1'000, 3);
    config.faults.spec = kChurnFaults;
    config.faults.auditInterval = 600 * st::sim::kSecond;
    std::string error;
    if (!st::vod::OverloadConfig::parse("on", &config.vod.overload, &error)) {
      std::fprintf(stderr, "perfbench: overload spec: %s\n", error.c_str());
      std::abort();
    }
    return config;
  }
  return std::nullopt;
}

}  // namespace

std::span<const std::string_view> workloadNames() { return kNames; }

std::optional<ExperimentConfig> workloadConfig(std::string_view name,
                                               std::uint64_t seed) {
  std::optional<ExperimentConfig> config = shapeOf(name, seed);
  // The catalog is the workload's fixed data set; the seed draws everything
  // the simulated users do (logins, video choices, latencies, losses, fault
  // victims). A catalog drawn from the seed would change the amount of work
  // itself: at 2,000 users its heavy tails move the run time by 3x.
  if (config) config->trace.seed = kCatalogSeed;
  return config;
}

}  // namespace perfbench
