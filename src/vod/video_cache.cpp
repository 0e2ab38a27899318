#include "vod/video_cache.h"

#include <algorithm>

namespace st::vod {

VideoCache::VideoCache(std::size_t maxVideos, std::size_t prefetchSlots)
    : maxVideos_(maxVideos), prefetchSlots_(prefetchSlots) {}

void VideoCache::insert(VideoId video) {
  if (!videos_.insert(video)) return;
  videoOrder_.push_back(video);
  removeFirstChunk(video);  // full copy subsumes the prefetched chunk
  evictIfNeeded();
}

void VideoCache::evictIfNeeded() {
  if (maxVideos_ == 0) return;
  while (videos_.size() > maxVideos_) {
    const VideoId victim = videoOrder_.front();
    videoOrder_.erase(videoOrder_.begin());
    videos_.erase(victim);
  }
}

VideoId VideoCache::randomVideo(Rng& rng) const {
  if (videoOrder_.empty()) return VideoId::invalid();
  return videoOrder_[rng.uniformInt(videoOrder_.size())];
}

void VideoCache::insertFirstChunk(VideoId video) {
  if (videos_.contains(video)) return;  // already have the whole video
  if (!prefetched_.insert(video)) return;
  prefetchOrder_.push_back(video);
  while (prefetchSlots_ != 0 && prefetched_.size() > prefetchSlots_) {
    const VideoId victim = prefetchOrder_.front();
    prefetchOrder_.pop_front();
    prefetched_.erase(victim);
  }
}

void VideoCache::removeFirstChunk(VideoId video) {
  if (!prefetched_.erase(video)) return;
  const auto it =
      std::find(prefetchOrder_.begin(), prefetchOrder_.end(), video);
  if (it != prefetchOrder_.end()) prefetchOrder_.erase(it);
}

void VideoCache::clear() {
  videos_.clear();
  videoOrder_.clear();
  prefetched_.clear();
  prefetchOrder_.clear();
}

}  // namespace st::vod
