// The benchmark's workloads: one experiment configuration per name, built
// from the seed alone. Every workload runs PA-VoD, SocialTube and NetTube
// one after another on one shared trace catalog.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "exp/config.h"

namespace perfbench {

// Names accepted by workloadConfig, in BENCHMARK.json order.
[[nodiscard]] std::span<const std::string_view> workloadNames();

// The experiment configuration of workload `name` at `seed`, or nothing for
// an unknown name.
[[nodiscard]] std::optional<st::exp::ExperimentConfig> workloadConfig(
    std::string_view name, std::uint64_t seed);

}  // namespace perfbench
