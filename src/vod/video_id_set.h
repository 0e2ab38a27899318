// Membership set of video ids for per-user state (caches, watch history).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/strong_id.h"

namespace st::vod {

// Membership set of video ids: a sorted flat vector. Floods and pickers ask
// "is v cached here?" millions of times per run against caches of a few
// dozen videos, where a binary search over one cache line or two beats
// hashing. (A bitmap over the dense id space would cost users x videos
// bits: 128 MB per set at 32k users.)
class VideoIdSet {
 public:
  [[nodiscard]] bool contains(VideoId video) const {
    return std::binary_search(ids_.begin(), ids_.end(), video);
  }
  // False when already present.
  bool insert(VideoId video) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), video);
    if (it != ids_.end() && *it == video) return false;
    ids_.insert(it, video);
    return true;
  }
  // False when absent.
  bool erase(VideoId video) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), video);
    if (it == ids_.end() || *it != video) return false;
    ids_.erase(it);
    return true;
  }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  void clear() { ids_.clear(); }
  // Ascending id order.
  [[nodiscard]] auto begin() const { return ids_.begin(); }
  [[nodiscard]] auto end() const { return ids_.end(); }

 private:
  std::vector<VideoId> ids_;
};

}  // namespace st::vod
