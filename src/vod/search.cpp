#include "vod/search.h"

namespace st::vod {

void DownloadDriver::addStripes(TransferManager::WatchRequest& request,
                                std::span<const VideoCache> caches,
                                std::span<const UserId> candidates) {
  for (const UserId n : candidates) {
    if (request.extraProviders.size() + 1 >= ctx_.config().bodySources) break;
    if (n == request.provider) continue;
    if (!ctx_.neighborAllowed(request.user, n)) continue;  // breaker open
    if (ctx_.isOnline(n) && caches[n.index()].contains(request.video)) {
      request.extraProviders.push_back(n);
    }
  }
}

void DownloadDriver::send(TransferManager::WatchRequest request) {
  if (request.provider.valid()) {
    transfers_.startWatch(std::move(request));
    return;
  }
  // Server path: the request travels to the server, which starts the flow.
  // The variable-length striping list rides in the payload pool.
  SystemContext::Payload payload;
  payload.u = fromUsers(request.extraProviders);
  const std::uint64_t payloadId = ctx_.stashPayload(std::move(payload));
  const std::uint32_t hit = request.firstChunkCached ? 1 : 0;
  ctx_.sendToServer(
      request.user,
      sim::makeTag(component_, serverWatchKind_, request.user.value(),
                   pack(request.video.value(), hit), payloadId,
                   static_cast<std::uint64_t>(request.requestTime)));
}

void DownloadDriver::serverWatch(const sim::EventTag& tag) {
  const UserId user{lo32(tag.a)};
  const std::optional<SystemContext::Payload> payload =
      ctx_.receivePayload(tag.c, user);
  if (!payload) return;
  const bool prefetchHit = hi32(tag.b) != 0;
  TransferManager::WatchRequest request;
  request.user = user;
  request.video = VideoId{lo32(tag.b)};
  request.provider = UserId::invalid();
  request.extraProviders = toUsers(payload->u);
  request.firstChunkCached = prefetchHit;
  request.requestTime = static_cast<sim::SimTime>(tag.d);
  request.reportPlayback = !prefetchHit;
  transfers_.startWatch(std::move(request));
}

}  // namespace st::vod
