// Host-speed probe for reference-normalized host timings.
//
// A shared host's speed drifts by tens of percent within minutes as its
// neighbours load it: on the 4-vCPU host this benchmark was defined on,
// identical passes of fanin_2k took from 6.7 s to 15 s, and the median of a
// 36-second run moved by up to 29% between runs. probeSeconds() times a fixed
// workload owned by the benchmark, built from the operations that dominate
// the simulator's event loop (binary-heap pops and pushes, hash-map updates).
// Measured around a pass in the same process, it tracks the host's speed
// during that pass (correlation 0.77–0.87 with planetlab_250 pass times), so
// host timings are reported in reference seconds:
//
//   reference seconds = host seconds * kProbeReferenceSeconds / probe seconds
//
// The probe shares no code with src/, so a faster simulator shows in full.
#pragma once

namespace perfbench {

// The probe's median on the host the benchmark was defined on.
inline constexpr double kProbeReferenceSeconds = 0.05;

// Runs the probe workload once; returns its host seconds.
[[nodiscard]] double probeSeconds();

}  // namespace perfbench
