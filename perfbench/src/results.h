// What the benchmark reads out of a finished experiment: the simulated-
// behaviour digest, percentiles with their sample counts, and the paper's
// seed-robust orderings.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "exp/runner.h"
#include "util/stats.h"

namespace perfbench {

// CRC-32 over one system's counter snapshot (names and values), overlay
// fingerprint, every sample set (as a sorted multiset) and every running
// statistic the result carries, in a fixed order. Equal digests mean the simulated run behaved
// identically; host timings (phases) are excluded.
[[nodiscard]] std::uint32_t simDigest(const st::exp::ExperimentResult& result);

// CRC-32 over a sequence of per-system digests: the workload's sim_digest.
[[nodiscard]] std::uint32_t combineDigests(std::span<const std::uint32_t> parts);

// A percentile never travels without the sample count it came from.
struct Percentile {
  double p = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  // Samples strictly above the value: a percentile deserves trust when at
  // least ten lie beyond it.
  std::size_t beyond = 0;

  // "p99=1234.5 (n=6000, 60 beyond)".
  [[nodiscard]] std::string describe() const;
};
[[nodiscard]] Percentile percentileOf(const st::SampleSet& samples, double p);

// Checks the paper orderings that hold on every seed tried: SocialTube's and
// NetTube's median per-node peer share exceed PA-VoD's, and SocialTube's p99
// startup delay is below PA-VoD's. Results must be in runAllSystems order
// (PA-VoD, SocialTube, NetTube). Returns "" when all hold, else a message.
[[nodiscard]] std::string checkOrderings(
    std::span<const st::exp::ExperimentResult> results);

}  // namespace perfbench
