// Table I — experiment default parameters, as wired into the code.
#include "exp/config.h"
#include "bench_common.h"
#include "util/flags.h"

#include <cstdio>

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;
  const auto config = st::exp::ExperimentConfig::simulationDefaults();
  const auto planetlab = st::exp::ExperimentConfig::planetLabDefaults();

  std::printf("Table I — experiment default parameters\n\n");
  std::printf("%-34s %-18s %-18s\n", "parameter", "simulation",
              "PlanetLab");
  std::printf("%-34s %-18s %-18s\n", "simulation duration", "3 days",
              "3 days");
  std::printf("%-34s %-18zu %-18zu\n", "number of nodes",
              config.trace.numUsers, planetlab.trace.numUsers);
  std::printf("%-34s %-18zu %-18zu\n", "number of videos",
              config.trace.numVideos, planetlab.trace.numVideos);
  std::printf("%-34s %-18zu %-18zu\n", "number of channels",
              config.trace.numChannels, planetlab.trace.numChannels);
  std::printf("%-34s %-18zu %-18zu\n", "number of categories",
              config.trace.numCategories, planetlab.trace.numCategories);
  std::printf("%-34s %-18u %-18u\n", "chunks per video",
              config.vod.chunksPerVideo, planetlab.vod.chunksPerVideo);
  std::printf("%-34s %-18.0f %-18.0f\n", "video bitrate (kbps)",
              config.vod.bitrateBps / 1e3, planetlab.vod.bitrateBps / 1e3);
  std::printf("%-34s %-18.0f %-18.0f\n", "server bandwidth (Mbps)",
              config.vod.serverUploadBps / 1e6,
              planetlab.vod.serverUploadBps / 1e6);
  std::printf("%-34s %-18zu %-18zu\n", "sessions per user",
              config.vod.sessionsPerUser, planetlab.vod.sessionsPerUser);
  std::printf("%-34s %-18zu %-18zu\n", "videos per session",
              config.vod.videosPerSession, planetlab.vod.videosPerSession);
  std::printf("%-34s %-18.0f %-18.0f\n", "mean off time (s)",
              config.vod.offTimeMeanSeconds,
              planetlab.vod.offTimeMeanSeconds);
  std::printf("%-34s %-18zu %-18zu\n", "inner links N_l",
              config.vod.innerLinks, planetlab.vod.innerLinks);
  std::printf("%-34s %-18zu %-18zu\n", "inter links N_h",
              config.vod.interLinks, planetlab.vod.interLinks);
  std::printf("%-34s %-18d %-18d\n", "search TTL", config.vod.ttl,
              planetlab.vod.ttl);
  std::printf("%-34s %-18.0f %-18.0f\n", "probe interval (min)",
              st::sim::toSeconds(config.vod.probeInterval) / 60.0,
              st::sim::toSeconds(planetlab.vod.probeInterval) / 60.0);
  std::printf("%-34s %-18zu %-18zu\n", "prefetched videos M",
              config.vod.prefetchCount, planetlab.vod.prefetchCount);
  std::printf("\n(OCR-damaged Table I entries resolved per DESIGN.md §2; "
              "the server uplink\nuses the 20 kbps/user rule, which yields "
              "the printed 5 Mbps at PlanetLab scale.)\n");
  return 0;
}
