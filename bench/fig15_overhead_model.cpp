// Fig. 15 — analytical overlay maintenance overhead.
// SocialTube: log(u_c) + log(u_t) links, constant in videos watched.
// NetTube:    m * log(u) links after m videos.
// Paper constants: u = 500, u_c = 5,000, u_t = 25,000.
#include "exp/analytical.h"
#include "bench_common.h"
#include "util/flags.h"

#include <cstdio>

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  const auto maxVideos = static_cast<std::size_t>(flags.getInt("videos", 10));
  const double u = flags.getDouble("viewers-per-video", 500.0);
  const double uc = flags.getDouble("users-per-channel", 5'000.0);
  const double ut = flags.getDouble("users-per-interest", 25'000.0);
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  const auto series =
      st::exp::analytical::fig15Series(maxVideos, u, uc, ut);
  std::printf("Fig. 15 — estimated links maintained "
              "(u=%.0f, u_c=%.0f, u_t=%.0f)\n\n", u, uc, ut);
  std::printf("%-16s %-12s %-12s\n", "videos watched", "SocialTube",
              "NetTube");
  for (const auto& point : series) {
    std::printf("%-16zu %-12.1f %-12.1f\n", point.videosWatched,
                point.socialTube, point.netTube);
  }
  // The paper's reading of the figure.
  std::size_t crossover = 0;
  for (const auto& point : series) {
    if (point.netTube > point.socialTube) {
      crossover = point.videosWatched;
      break;
    }
  }
  std::printf("\nNetTube passes SocialTube after %zu videos; "
              "at m=%zu NetTube needs %.1fx the links.\n", crossover,
              series.back().videosWatched,
              series.back().netTube / series.back().socialTube);
  std::printf("shape check: %s\n",
              crossover > 0 && crossover <= 4 &&
                      series.back().netTube > 2.0 * series.back().socialTube
                  ? "OK (linear vs constant, early crossover)"
                  : "MISMATCH");
  return 0;
}
