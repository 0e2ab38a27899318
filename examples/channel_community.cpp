// Channel community walk-through: drives the SocialTube protocol objects
// directly (no ExperimentRunner) to show the library's lower-level API —
// the same wiring a custom experiment would use.
//
//   ./examples/channel_community [--seed 1]
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/socialtube.h"
#include "net/latency.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "util/flags.h"
#include "vod/context.h"
#include "vod/library.h"
#include "vod/metrics.h"
#include "vod/transfer.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  // 1. A small catalog.
  st::trace::GeneratorParams traceParams;
  traceParams.seed = seed;
  traceParams.numUsers = 60;
  traceParams.numChannels = 8;
  traceParams.numVideos = 200;
  const st::trace::Catalog catalog = st::trace::generateTrace(traceParams);

  // 2. The substrate: simulator, clean network, chunked video library.
  st::sim::Simulator simulator;
  st::net::Network network(
      simulator,
      std::make_unique<st::net::CleanLatencyModel>(
          seed, 10 * st::sim::kMillisecond, 60 * st::sim::kMillisecond),
      seed);
  st::vod::VodConfig config;
  st::vod::VideoLibrary library(catalog, config);
  st::vod::Metrics metrics(catalog.userCount(), config.videosPerSession);
  st::vod::SystemContext ctx(simulator, network, catalog, library, config,
                             metrics, seed);
  st::vod::TransferManager transfers(ctx);

  // 3. The protocol under study.
  st::core::SocialTubeSystem socialTube(ctx, transfers);
  socialTube.setPlaybackCallback([&](st::UserId user, st::VideoId video,
                                     st::sim::SimTime delay, bool timedOut) {
    std::printf("  [%7.2f s] user %-3u video %-4u playback %s "
                "(startup %.1f ms)\n",
                st::sim::toSeconds(simulator.now()), user.value(),
                video.value(), timedOut ? "TIMED OUT" : "starts",
                st::sim::toMillis(delay));
  });

  // 4. Hand-drive a small community: five subscribers of one channel watch
  //    its most popular videos one after another.
  const st::trace::Channel& channel = catalog.channel(st::ChannelId{0});
  std::printf("Channel 0: %zu videos, %zu subscribers, category %u\n\n",
              channel.videos.size(), channel.subscribers.size(),
              channel.primaryCategory().value());

  const std::size_t viewers =
      std::min<std::size_t>(5, catalog.userCount());
  for (std::uint32_t i = 0; i < viewers; ++i) {
    const st::UserId user{i};
    const st::VideoId video = channel.videos[i % channel.videos.size()];
    simulator.schedule(static_cast<st::sim::SimTime>(i) * 20 *
                           st::sim::kSecond,
                       [&, user, video] {
                         ctx.setOnline(user, true);
                         socialTube.onLogin(user);
                         std::printf("  [%7.2f s] user %-3u joins and asks "
                                     "for video %u\n",
                                     st::sim::toSeconds(simulator.now()),
                                     user.value(), video.value());
                         socialTube.requestVideo(user, video);
                       });
  }
  simulator.runUntil(10 * st::sim::kMinute);

  // 5. Inspect the community that formed.
  std::printf("\nOverlay after the watch session:\n");
  for (std::uint32_t i = 0; i < viewers; ++i) {
    const st::UserId user{i};
    std::printf("  user %-3u: channel %-3d inner links %zu, inter links %zu, "
                "cache %zu videos + %zu prefetched chunks\n",
                user.value(),
                static_cast<int>(socialTube.currentChannel(user).valid()
                                     ? socialTube.currentChannel(user).value()
                                     : -1),
                socialTube.innerNeighbors(user).size(),
                socialTube.interNeighbors(user).size(),
                socialTube.cache(user).size(),
                socialTube.cache(user).prefetchedCount());
  }
  std::printf("\nChunks served by peers: %llu, by the origin server: %llu\n",
              static_cast<unsigned long long>(metrics.totalPeerChunks()),
              static_cast<unsigned long long>(metrics.totalServerChunks()));
  std::printf("Search outcomes: %llu channel hits, %llu category hits, "
              "%llu server fallbacks, %llu prefetch hits\n",
              static_cast<unsigned long long>(metrics.value("channel_hits")),
              static_cast<unsigned long long>(metrics.value("category_hits")),
              static_cast<unsigned long long>(metrics.value("server_fallbacks")),
              static_cast<unsigned long long>(metrics.value("prefetch_hits")));
  return 0;
}
