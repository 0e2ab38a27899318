// The eager per-flow fair-share solver: every mutation immediately settles
// and re-rates every flow at both affected endpoints (refreshEndpoint), and
// every flow owns its own completion event. This is the original
// src/net/flow_network.cpp solver — std::function completion/shed/abort
// callbacks, a FlowId-keyed hash map as the flow store — with the snapshot
// and event-tag machinery stripped (completions ride plain scheduler
// callbacks).
//
// It implements the same fluid model as net::FlowNetwork, which accounts
// in per-side virtual time instead, so the two differ only in
// floating-point rounding. flow_bench times both and cross-checks their
// completions, aborts, sheds and bytes; tests/flow_differential_test.cpp
// replays randomized scenarios through both.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "net/flow_network.h"
#include "sim/simulator.h"
#include "util/strong_id.h"

namespace st::bench::eager {

using net::EndpointCapacity;
using net::FlowClass;

class FlowNetwork {
 public:
  using CompletionCallback = std::function<void()>;
  using ShedCallback = std::function<void(EndpointId, EndpointId, FlowClass)>;
  using AbortCallback = std::function<void(FlowId, std::uint64_t)>;

  struct FlowOptions {
    FlowClass flowClass = FlowClass::kPlayback;
    sim::SimTime deadline = 0;
  };
  struct AdmissionPolicy {
    std::size_t queueCap = 0;
    bool shedPrefetch = true;
  };

  explicit FlowNetwork(sim::Simulator& simulator) : sim_(simulator) {}

  void addEndpoint(EndpointId id, EndpointCapacity capacity) {
    if (endpoints_.size() <= id.index()) endpoints_.resize(id.index() + 1);
    endpoints_[id.index()].capacity = capacity;
  }
  void setUploadConcurrencyLimit(EndpointId endpoint, std::size_t limit) {
    endpoints_[endpoint.index()].uploadLimit = limit;
  }
  void setPlaybackFloor(double floorBps) { floorBps_ = floorBps; }
  void setAdmissionPolicy(EndpointId endpoint, AdmissionPolicy policy) {
    endpoints_[endpoint.index()].admission = policy;
    endpoints_[endpoint.index()].admissionEnabled = true;
  }
  void setShedCallback(ShedCallback callback) {
    shedCallback_ = std::move(callback);
  }

  FlowId startFlow(EndpointId src, EndpointId dst, std::uint64_t bytes,
                   FlowOptions options, CompletionCallback onComplete) {
    EndpointState& source = endpoints_[src.index()];
    const std::size_t usedSlots =
        source.uploads.size() + source.pausedUploads.size();
    if (usedSlots >= source.uploadLimit) {
      if (shouldShed(src, options.flowClass, options.deadline)) {
        ++source.flowsShed;
        if (shedCallback_) shedCallback_(src, dst, options.flowClass);
        return FlowId::invalid();
      }
      const FlowId id{nextFlowId_++};
      Flow flow;
      flow.src = src;
      flow.dst = dst;
      flow.bytesRemaining = static_cast<double>(bytes);
      flow.totalBytes = bytes;
      flow.lastUpdate = sim_.now();
      flow.flowClass = options.flowClass;
      flow.queued = true;
      flow.onComplete = std::move(onComplete);
      flows_.emplace(id, std::move(flow));
      source.uploadQueue.push_back(id);
      endpoints_[dst.index()].queuedInbound.push_back(id);
      return id;
    }
    const FlowId id{nextFlowId_++};
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.bytesRemaining = static_cast<double>(bytes);
    flow.totalBytes = bytes;
    flow.lastUpdate = sim_.now();
    flow.flowClass = options.flowClass;
    flow.onComplete = std::move(onComplete);
    flows_.emplace(id, std::move(flow));
    activate(id, flows_.at(id));
    return id;
  }

  void cancelFlow(FlowId id) {
    if (flows_.count(id) == 0) return;
    removeFlow(id, /*completed=*/false);
  }

  void dropEndpointFlows(EndpointId endpoint, const AbortCallback& onAborted) {
    EndpointState& state = endpoints_[endpoint.index()];
    const std::vector<FlowId> queued(state.uploadQueue.begin(),
                                     state.uploadQueue.end());
    for (const FlowId id : queued) removeFlow(id, /*completed=*/false);
    const std::vector<FlowId> inbound = state.queuedInbound;
    for (const FlowId id : inbound) removeFlow(id, /*completed=*/false);
    std::vector<FlowId> doomed = state.uploads;
    doomed.insert(doomed.end(), state.downloads.begin(),
                  state.downloads.end());
    doomed.insert(doomed.end(), state.pausedUploads.begin(),
                  state.pausedUploads.end());
    doomed.insert(doomed.end(), state.pausedDownloads.begin(),
                  state.pausedDownloads.end());
    for (const FlowId id : doomed) {
      const auto it = flows_.find(id);
      if (it == flows_.end()) continue;
      settle(it->second);
      const bool isDownload = it->second.dst == endpoint;
      const auto bytesDone = static_cast<std::uint64_t>(
          static_cast<double>(it->second.totalBytes) -
          it->second.bytesRemaining);
      const bool notify = onAborted && !isDownload;
      removeFlow(id, /*completed=*/false);
      if (notify) onAborted(id, bytesDone);
    }
  }

  [[nodiscard]] std::uint64_t bytesUploaded(EndpointId id) const {
    return endpoints_[id.index()].bytesUploaded;
  }
  [[nodiscard]] std::uint64_t bytesDownloaded(EndpointId id) const {
    return endpoints_[id.index()].bytesDownloaded;
  }
  [[nodiscard]] std::size_t activeFlows() const { return flows_.size(); }

 private:
  struct Flow {
    EndpointId src;
    EndpointId dst;
    double bytesRemaining = 0.0;
    double rateBps = 0.0;
    sim::SimTime lastUpdate = 0;
    std::uint64_t totalBytes = 0;
    FlowClass flowClass = FlowClass::kPlayback;
    bool queued = false;
    bool paused = false;
    sim::EventHandle completion;
    CompletionCallback onComplete;
  };
  struct EndpointState {
    EndpointCapacity capacity;
    std::vector<FlowId> uploads;
    std::vector<FlowId> downloads;
    std::size_t uploadLimit = std::numeric_limits<std::size_t>::max();
    std::deque<FlowId> uploadQueue;
    std::vector<FlowId> queuedInbound;
    std::vector<FlowId> pausedUploads;
    std::vector<FlowId> pausedDownloads;
    AdmissionPolicy admission;
    bool admissionEnabled = false;
    std::uint64_t bytesUploaded = 0;
    std::uint64_t bytesDownloaded = 0;
    std::uint64_t flowsShed = 0;
  };

  static constexpr double kEpsilonBytes = 0.5;
  static constexpr double kRateEpsilon = 1e-9;

  static void eraseId(std::vector<FlowId>& list, FlowId id) {
    const auto it = std::find(list.begin(), list.end(), id);
    assert(it != list.end());
    list.erase(it);
  }

  [[nodiscard]] double fairRate(const Flow& flow) const {
    const EndpointState& src = endpoints_[flow.src.index()];
    const EndpointState& dst = endpoints_[flow.dst.index()];
    const double up =
        src.capacity.uploadBps / static_cast<double>(src.uploads.size());
    const double down =
        dst.capacity.downloadBps / static_cast<double>(dst.downloads.size());
    return std::min(up, down);
  }

  void settle(Flow& flow) {
    if (flow.queued || flow.paused) {
      flow.lastUpdate = sim_.now();
      return;
    }
    const sim::SimTime now = sim_.now();
    if (now > flow.lastUpdate && flow.rateBps > 0.0) {
      const double elapsedSeconds = sim::toSeconds(now - flow.lastUpdate);
      flow.bytesRemaining = std::max(
          0.0, flow.bytesRemaining - flow.rateBps / 8.0 * elapsedSeconds);
    }
    flow.lastUpdate = now;
  }

  void reschedule(FlowId id, Flow& flow) {
    if (flow.completion.valid()) sim_.cancel(flow.completion);
    flow.rateBps = fairRate(flow);
    if (flow.rateBps <= 0.0) {
      flow.completion = sim::EventHandle{};
      return;
    }
    const double seconds = flow.bytesRemaining * 8.0 / flow.rateBps;
    const auto delay = std::max<sim::SimTime>(sim::fromSeconds(seconds), 0);
    flow.completion = sim_.schedule(delay, [this, id] { finish(id); });
  }

  void refreshEndpoint(EndpointId endpoint) {
    EndpointState& state = endpoints_[endpoint.index()];
    std::vector<FlowId> touched = state.uploads;
    touched.insert(touched.end(), state.downloads.begin(),
                   state.downloads.end());
    for (const FlowId id : touched) {
      const auto it = flows_.find(id);
      settle(it->second);
      reschedule(id, it->second);
    }
  }

  [[nodiscard]] double estimatedBacklogSeconds(
      const EndpointState& state) const {
    if (state.capacity.uploadBps <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    const sim::SimTime now = sim_.now();
    double backlogBytes = 0.0;
    for (const FlowId id : state.uploads) {
      const Flow& flow = flows_.at(id);
      double remaining = flow.bytesRemaining;
      if (now > flow.lastUpdate && flow.rateBps > 0.0) {
        remaining -=
            flow.rateBps / 8.0 * sim::toSeconds(now - flow.lastUpdate);
      }
      backlogBytes += std::max(0.0, remaining);
    }
    for (const FlowId id : state.pausedUploads) {
      backlogBytes += flows_.at(id).bytesRemaining;
    }
    for (const FlowId id : state.uploadQueue) {
      backlogBytes += flows_.at(id).bytesRemaining;
    }
    return backlogBytes * 8.0 / state.capacity.uploadBps;
  }

  [[nodiscard]] bool shouldShed(EndpointId src, FlowClass flowClass,
                                sim::SimTime deadline) const {
    const EndpointState& state = endpoints_[src.index()];
    if (!state.admissionEnabled) return false;
    if (flowClass == FlowClass::kPrefetch && state.admission.shedPrefetch) {
      return true;
    }
    if (state.admission.queueCap > 0 &&
        state.uploadQueue.size() >= state.admission.queueCap) {
      return true;
    }
    if (deadline > 0 &&
        estimatedBacklogSeconds(state) > sim::toSeconds(deadline)) {
      return true;
    }
    return false;
  }

  void activate(FlowId id, Flow& flow) {
    if (flow.queued) {
      eraseId(endpoints_[flow.dst.index()].queuedInbound, id);
    }
    flow.queued = false;
    flow.paused = false;
    flow.lastUpdate = sim_.now();
    endpoints_[flow.src.index()].uploads.push_back(id);
    endpoints_[flow.dst.index()].downloads.push_back(id);
    refreshEndpoint(flow.src);
    if (flow.dst != flow.src) refreshEndpoint(flow.dst);
    enforceFloorFor(id);
  }

  void promoteQueued(EndpointId endpoint) {
    EndpointState& state = endpoints_[endpoint.index()];
    while (!state.uploadQueue.empty() &&
           state.uploads.size() + state.pausedUploads.size() <
               state.uploadLimit) {
      const FlowId next = state.uploadQueue.front();
      state.uploadQueue.pop_front();
      activate(next, flows_.at(next));
    }
  }

  void enforceFloorFor(FlowId id) {
    if (floorBps_ <= 0.0) return;
    Flow& flow = flows_.at(id);
    while (flow.rateBps + kRateEpsilon < floorBps_) {
      const EndpointState& src = endpoints_[flow.src.index()];
      const EndpointState& dst = endpoints_[flow.dst.index()];
      const double upShare =
          src.capacity.uploadBps / static_cast<double>(src.uploads.size());
      const double downShare = dst.capacity.downloadBps /
                               static_cast<double>(dst.downloads.size());
      const bool srcBottleneck = upShare <= downShare;
      const std::vector<FlowId>& members =
          srcBottleneck ? src.uploads : dst.downloads;
      FlowId victim = FlowId::invalid();
      FlowClass victimClass = flow.flowClass;
      for (const FlowId candidate : members) {
        const Flow& other = flows_.at(candidate);
        if (other.flowClass <= flow.flowClass) continue;
        if (!victim.valid() || other.flowClass >= victimClass) {
          victim = candidate;
          victimClass = other.flowClass;
        }
      }
      if (!victim.valid()) break;
      Flow& victimFlow = flows_.at(victim);
      const EndpointId vSrc = victimFlow.src;
      const EndpointId vDst = victimFlow.dst;
      pauseFlow(victim, victimFlow);
      refreshEndpoint(vSrc);
      if (vDst != vSrc) refreshEndpoint(vDst);
    }
  }

  void pauseFlow(FlowId id, Flow& flow) {
    settle(flow);
    if (flow.completion.valid()) {
      sim_.cancel(flow.completion);
      flow.completion = sim::EventHandle{};
    }
    eraseId(endpoints_[flow.src.index()].uploads, id);
    eraseId(endpoints_[flow.dst.index()].downloads, id);
    flow.paused = true;
    flow.rateBps = 0.0;
    endpoints_[flow.src.index()].pausedUploads.push_back(id);
    endpoints_[flow.dst.index()].pausedDownloads.push_back(id);
  }

  [[nodiscard]] bool canResume(const Flow& flow) const {
    const EndpointState& src = endpoints_[flow.src.index()];
    const double upShare =
        src.capacity.uploadBps / static_cast<double>(src.uploads.size() + 1);
    if (upShare + kRateEpsilon < floorBps_) {
      for (const FlowId other : src.uploads) {
        if (flows_.at(other).flowClass < flow.flowClass) return false;
      }
    }
    const EndpointState& dst = endpoints_[flow.dst.index()];
    const double downShare = dst.capacity.downloadBps /
                             static_cast<double>(dst.downloads.size() + 1);
    if (downShare + kRateEpsilon < floorBps_) {
      for (const FlowId other : dst.downloads) {
        if (flows_.at(other).flowClass < flow.flowClass) return false;
      }
    }
    return true;
  }

  void resumePaused(EndpointId endpoint) {
    if (floorBps_ <= 0.0) return;
    while (true) {
      EndpointState& state = endpoints_[endpoint.index()];
      FlowId pick = FlowId::invalid();
      FlowClass pickClass = FlowClass::kPrefetch;
      for (const std::vector<FlowId>* list :
           {&state.pausedUploads, &state.pausedDownloads}) {
        for (const FlowId id : *list) {
          const Flow& flow = flows_.at(id);
          if (pick.valid() && flow.flowClass >= pickClass) continue;
          if (canResume(flow)) {
            pick = id;
            pickClass = flow.flowClass;
          }
        }
      }
      if (!pick.valid()) return;
      Flow& flow = flows_.at(pick);
      eraseId(endpoints_[flow.src.index()].pausedUploads, pick);
      eraseId(endpoints_[flow.dst.index()].pausedDownloads, pick);
      activate(pick, flow);
    }
  }

  void finish(FlowId id) {
    const auto it = flows_.find(id);
    if (it == flows_.end()) return;
    settle(it->second);
    removeFlow(id, /*completed=*/true);
  }

  void removeFlow(FlowId id, bool completed) {
    const auto it = flows_.find(id);
    Flow flow = std::move(it->second);
    flows_.erase(it);
    if (flow.completion.valid()) sim_.cancel(flow.completion);

    if (flow.queued) {
      auto& queue = endpoints_[flow.src.index()].uploadQueue;
      queue.erase(std::find(queue.begin(), queue.end(), id));
      eraseId(endpoints_[flow.dst.index()].queuedInbound, id);
      return;
    }
    if (flow.paused) {
      eraseId(endpoints_[flow.src.index()].pausedUploads, id);
      eraseId(endpoints_[flow.dst.index()].pausedDownloads, id);
      promoteQueued(flow.src);
      resumePaused(flow.src);
      if (flow.dst != flow.src) resumePaused(flow.dst);
      return;
    }

    eraseId(endpoints_[flow.src.index()].uploads, id);
    eraseId(endpoints_[flow.dst.index()].downloads, id);
    if (completed) {
      endpoints_[flow.src.index()].bytesUploaded += flow.totalBytes;
      endpoints_[flow.dst.index()].bytesDownloaded += flow.totalBytes;
    }
    promoteQueued(flow.src);
    resumePaused(flow.src);
    if (flow.dst != flow.src) resumePaused(flow.dst);
    refreshEndpoint(flow.src);
    if (flow.dst != flow.src) refreshEndpoint(flow.dst);
    if (completed && flow.onComplete) flow.onComplete();
  }

  sim::Simulator& sim_;
  std::vector<EndpointState> endpoints_;
  std::unordered_map<FlowId, Flow> flows_;
  std::uint32_t nextFlowId_ = 1;
  double floorBps_ = 0.0;
  ShedCallback shedCallback_;
};

}  // namespace st::bench::eager
