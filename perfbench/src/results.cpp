#include "results.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "snapshot/codec.h"

namespace perfbench {

namespace {

void putString(st::snapshot::Writer& w, const std::string& s) {
  w.u64(s.size());
  for (const char c : s) w.u8(static_cast<std::uint8_t>(c));
}

// Sorted copy: SampleSet sorts its buffer in place on the first percentile
// query, so the buffer order depends on who asked first.
void putSamples(st::snapshot::Writer& w, const st::SampleSet& samples) {
  std::vector<double> sorted(samples.samples().begin(),
                             samples.samples().end());
  std::sort(sorted.begin(), sorted.end());
  w.u64(sorted.size());
  for (const double x : sorted) w.f64(x);
}

void putStats(st::snapshot::Writer& w, const st::RunningStats& stats) {
  const st::RunningStats::State s = stats.state();
  w.u64(s.count);
  w.f64(s.mean);
  w.f64(s.m2);
  w.f64(s.min);
  w.f64(s.max);
}

}  // namespace

std::uint32_t simDigest(const st::exp::ExperimentResult& result) {
  st::snapshot::Writer w;
  putString(w, result.system);
  w.u64(result.seed);
  w.u64(result.counters.entries().size());
  for (const auto& entry : result.counters.entries()) {
    putString(w, entry.name);
    w.u64(entry.value);
  }
  w.u32(result.overlayFingerprint);
  putSamples(w, result.normalizedPeerBandwidth);
  putSamples(w, result.startupDelayMs);
  w.u64(result.linksByVideosWatched.size());
  for (const auto& stats : result.linksByVideosWatched) putStats(w, stats);
  putStats(w, result.redundantLinks);
  putStats(w, result.serverRegistrations);
  w.f64(result.uploadGini);
  return st::snapshot::crc32(w.body().data(), w.body().size());
}

std::uint32_t combineDigests(std::span<const std::uint32_t> parts) {
  st::snapshot::Writer w;
  for (const std::uint32_t part : parts) w.u32(part);
  return st::snapshot::crc32(w.body().data(), w.body().size());
}

std::string Percentile::describe() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "p%g=%.6g (n=%zu, %zu beyond)", p, value,
                samples, beyond);
  return buf;
}

Percentile percentileOf(const st::SampleSet& samples, double p) {
  Percentile out;
  out.p = p;
  out.samples = samples.count();
  if (out.samples == 0) {
    out.value = std::numeric_limits<double>::quiet_NaN();
    return out;
  }
  out.value = samples.percentile(p);
  for (const double x : samples.samples()) {
    if (x > out.value) ++out.beyond;
  }
  return out;
}

std::string checkOrderings(
    std::span<const st::exp::ExperimentResult> results) {
  if (results.size() != 3) return "expected PA-VoD, SocialTube, NetTube";
  const st::exp::ExperimentResult& pavod = results[0];
  const st::exp::ExperimentResult& social = results[1];
  const st::exp::ExperimentResult& nettube = results[2];
  const double pavodPeer = pavod.normalizedPeerBandwidth.median();
  std::string failures;
  char buf[160];
  for (const auto* r : {&social, &nettube}) {
    const double peer = r->normalizedPeerBandwidth.median();
    if (!(peer > pavodPeer)) {
      std::snprintf(buf, sizeof(buf),
                    "%s peer p50 %.6g is not above PA-VoD's %.6g; ",
                    r->system.c_str(), peer, pavodPeer);
      failures += buf;
    }
  }
  const double socialP99 = social.startupDelayMs.percentile(99);
  const double pavodP99 = pavod.startupDelayMs.percentile(99);
  if (!(socialP99 < pavodP99)) {
    std::snprintf(buf, sizeof(buf),
                  "SocialTube startup p99 %.6g ms is not below PA-VoD's "
                  "%.6g ms; ",
                  socialP99, pavodP99);
    failures += buf;
  }
  return failures;
}

}  // namespace perfbench
