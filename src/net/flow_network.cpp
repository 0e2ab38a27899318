#include "net/flow_network.h"

#include <algorithm>
#include <cassert>

namespace st::net {

namespace {
// Tolerance when comparing a fair-share rate against the playback floor.
constexpr double kRateEpsilon = 1e-9;

void eraseSlot(std::vector<std::uint64_t>& list, std::uint64_t slot) {
  const auto it = std::find(list.begin(), list.end(), slot);
  assert(it != list.end());
  list.erase(it);
}
}  // namespace

void FlowNetwork::addEndpoint(EndpointId id, EndpointCapacity capacity) {
  assert(id.valid());
  if (endpoints_.size() <= id.index()) endpoints_.resize(id.index() + 1);
  endpoints_[id.index()].capacity = capacity;
}

bool FlowNetwork::hasEndpoint(EndpointId id) const {
  return id.valid() && id.index() < endpoints_.size();
}

const EndpointCapacity& FlowNetwork::capacity(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].capacity;
}

void FlowNetwork::setUploadConcurrencyLimit(EndpointId endpoint,
                                            std::size_t limit) {
  assert(hasEndpoint(endpoint));
  assert(limit > 0);
  endpoints_[endpoint.index()].uploadLimit = limit;
}

std::size_t FlowNetwork::queuedUploads(EndpointId endpoint) const {
  assert(hasEndpoint(endpoint));
  return endpoints_[endpoint.index()].uploadQueue.size();
}

void FlowNetwork::setPlaybackFloor(double floorBps) {
  assert(floorBps >= 0.0);
  floorBps_ = floorBps;
}

void FlowNetwork::setAdmissionPolicy(EndpointId endpoint,
                                     AdmissionPolicy policy) {
  assert(hasEndpoint(endpoint));
  endpoints_[endpoint.index()].admission = policy;
  endpoints_[endpoint.index()].admissionEnabled = true;
}

void FlowNetwork::addObserver(FlowObserver* observer) {
  assert(observer != nullptr);
  assert(std::find(observers_.begin(), observers_.end(), observer) ==
         observers_.end());
  observers_.push_back(observer);
}

void FlowNetwork::removeObserver(FlowObserver* observer) {
  const auto it = std::find(observers_.begin(), observers_.end(), observer);
  if (it != observers_.end()) observers_.erase(it);
}

FlowNetwork::Slot FlowNetwork::slotOf(FlowId id) const {
  const auto it = index_.find(id.value());
  return it == index_.end() ? Slot{0} : it->second;  // 0 is never a live slot
}

FlowNetwork::Side& FlowNetwork::side(std::uint32_t index) {
  EndpointState& state = endpoints_[index / 2];
  return (index & 1) != 0 ? state.down : state.up;
}

const FlowNetwork::Side& FlowNetwork::side(std::uint32_t index) const {
  const EndpointState& state = endpoints_[index / 2];
  return (index & 1) != 0 ? state.down : state.up;
}

std::size_t FlowNetwork::memberCount(std::uint32_t index) const {
  const EndpointState& state = endpoints_[index / 2];
  return (index & 1) != 0 ? state.downloads.size() : state.uploads.size();
}

double FlowNetwork::capacityOf(std::uint32_t index) const {
  const EndpointCapacity& capacity = endpoints_[index / 2].capacity;
  return (index & 1) != 0 ? capacity.downloadBps : capacity.uploadBps;
}

double FlowNetwork::fairRate(const Flow& flow) const {
  const EndpointState& src = endpoints_[flow.src.index()];
  const EndpointState& dst = endpoints_[flow.dst.index()];
  assert(!src.uploads.empty() && !dst.downloads.empty());
  const double up =
      src.capacity.uploadBps / static_cast<double>(src.uploads.size());
  const double down =
      dst.capacity.downloadBps / static_cast<double>(dst.downloads.size());
  return std::min(up, down);
}

FlowNetwork::Binding FlowNetwork::bindingFor(const Flow& flow) const {
  return side(upSide(flow.src)).share <= side(downSide(flow.dst)).share
             ? Binding::kUpload
             : Binding::kDownload;
}

// --- side clocks -------------------------------------------------------------

double FlowNetwork::workNow(const Side& s) const {
  const sim::SimTime now = sim_.now();
  if (now <= s.clockAt) return s.work;
  return s.work + s.share * sim::toSeconds(now - s.clockAt);
}

double FlowNetwork::remainingBytes(const Flow& flow) const {
  assert(flow.binding != Binding::kNone);
  return std::max(0.0, flow.finishWork - workNow(side(boundSide(flow)))) /
         8.0;
}

void FlowNetwork::bind(Slot slot, Flow& flow, Binding to) {
  assert(flow.binding == Binding::kNone && !flow.queued && !flow.paused);
  flow.binding = to;
  const std::uint32_t home = boundSide(flow);
  const std::uint32_t away = otherSide(flow);
  Side& s = side(home);
  flow.finishWork = workNow(s) + 8.0 * flow.bytesRemaining;
  heapPush(s.byFinish, &Flow::finishPos,
           {flow.finishWork, flow.id.value(), slot});
  heapPush(s.byOther, &Flow::otherPos,
           {side(away).share, flow.id.value(), slot});
  std::vector<Slot>& foreign = side(away).foreign;
  flow.foreignPos = static_cast<std::uint32_t>(foreign.size());
  foreign.push_back(slot);
  markRetime(home);
  ++rateRecomputations_;
}

void FlowNetwork::unbind(Flow& flow) {
  if (flow.binding == Binding::kNone) return;
  const std::uint32_t home = boundSide(flow);
  Side& s = side(home);
  flow.bytesRemaining = remainingBytes(flow);
  heapErase(s.byFinish, &Flow::finishPos, flow.finishPos);
  heapErase(s.byOther, &Flow::otherPos, flow.otherPos);
  std::vector<Slot>& foreign = side(otherSide(flow)).foreign;
  const Slot last = foreign.back();
  foreign[flow.foreignPos] = last;
  flows_.find(last)->foreignPos = flow.foreignPos;
  foreign.pop_back();
  flow.binding = Binding::kNone;
  markRetime(home);
}

void FlowNetwork::rebind(Slot slot, Flow& flow, Binding to) {
  unbind(flow);
  bind(slot, flow, to);
}

void FlowNetwork::markDirty(std::uint32_t sideIndex) {
  // Mutations only happen under a batch (every public mutator opens an
  // implicit one), so a mark can never be dropped on the floor.
  assert(batchDepth_ > 0);
  Side& s = side(sideIndex);
  if (s.dirty) return;
  s.dirty = true;
  dirtyList_.push_back(sideIndex);
}

void FlowNetwork::markRetime(std::uint32_t sideIndex) {
  Side& s = side(sideIndex);
  if (s.retimeQueued) return;
  s.retimeQueued = true;
  retimeList_.push_back(sideIndex);
}

void FlowNetwork::retime(std::uint32_t sideIndex) {
  Side& s = side(sideIndex);
  const bool membershipChanged = s.dirty;
  s.dirty = false;
  s.retimeQueued = false;
  // Every member is bound either here or at its other side, exactly once.
  assert(s.byFinish.size() + s.foreign.size() == memberCount(sideIndex));
  if (s.byFinish.empty()) {
    sim_.cancel(s.completion);
    s.completion = sim::EventHandle{};
    // Nothing refers to this clock any more: rebase it so W stays small.
    s.work = 0.0;
    s.clockAt = sim_.now();
    return;
  }
  if (membershipChanged) ++rateRecomputations_;
  if (s.share <= 0.0) {
    // Zero-capacity side: its flows stall until the topology changes. The
    // caller is expected to give every endpoint nonzero capacity, but a
    // stalled side must not schedule a completion at time infinity.
    sim_.cancel(s.completion);
    s.completion = sim::EventHandle{};
    return;
  }
  const double seconds = (s.byFinish.front().key - workNow(s)) / s.share;
  const auto delay = std::max<sim::SimTime>(sim::fromSeconds(seconds), 0);
  // Moves the pending completion in place (or arms the first one).
  s.completion = sim_.rescheduleTagged(
      s.completion, delay,
      sim::makeTag(sim::Component::kFlow, kSideFinishEvent, sideIndex));
  assert(sim_.isPending(s.completion));
}

// --- indexed heaps -----------------------------------------------------------

void FlowNetwork::heapPlace(std::vector<HeapEntry>& heap, FlowPos pos,
                            std::uint32_t at, const HeapEntry& entry) {
  heap[at] = entry;
  flows_.find(entry.slot)->*pos = at;
}

void FlowNetwork::siftUp(std::vector<HeapEntry>& heap, FlowPos pos,
                         std::uint32_t at, const HeapEntry& entry) {
  while (at > 0) {
    const std::uint32_t parent = (at - 1) / 2;
    if (!entry.before(heap[parent])) break;
    heapPlace(heap, pos, at, heap[parent]);
    at = parent;
  }
  heapPlace(heap, pos, at, entry);
}

void FlowNetwork::siftDown(std::vector<HeapEntry>& heap, FlowPos pos,
                           std::uint32_t at, const HeapEntry& entry) {
  const auto size = static_cast<std::uint32_t>(heap.size());
  while (true) {
    std::uint32_t child = 2 * at + 1;
    if (child >= size) break;
    if (child + 1 < size && heap[child + 1].before(heap[child])) ++child;
    if (!heap[child].before(entry)) break;
    heapPlace(heap, pos, at, heap[child]);
    at = child;
  }
  heapPlace(heap, pos, at, entry);
}

void FlowNetwork::heapPush(std::vector<HeapEntry>& heap, FlowPos pos,
                           const HeapEntry& entry) {
  heap.push_back(entry);
  siftUp(heap, pos, static_cast<std::uint32_t>(heap.size() - 1), entry);
}

void FlowNetwork::heapErase(std::vector<HeapEntry>& heap, FlowPos pos,
                            std::uint32_t at) {
  assert(at < heap.size());
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (at == heap.size()) return;
  // Fill the hole with the last entry and restore order in either direction.
  if (at > 0 && last.before(heap[(at - 1) / 2])) {
    siftUp(heap, pos, at, last);
  } else {
    siftDown(heap, pos, at, last);
  }
}

void FlowNetwork::heapRekey(std::vector<HeapEntry>& heap, FlowPos pos,
                            std::uint32_t at, double key) {
  HeapEntry entry = heap[at];
  if (entry.key == key) return;
  entry.key = key;
  if (at > 0 && entry.before(heap[(at - 1) / 2])) {
    siftUp(heap, pos, at, entry);
  } else {
    siftDown(heap, pos, at, entry);
  }
}

// --- events and batches ------------------------------------------------------

sim::Callback FlowNetwork::rebuild(const sim::EventTag& tag) {
  assert(tag.kind == kSideFinishEvent);
  const auto sideIndex = static_cast<std::uint32_t>(tag.a);
  return [this, sideIndex] { finishSide(sideIndex); };
}

void FlowNetwork::onRestored(const sim::EventTag& tag,
                             sim::EventHandle handle) {
  assert(tag.kind == kSideFinishEvent);
  if (tag.a >= 2 * endpoints_.size()) return;
  side(static_cast<std::uint32_t>(tag.a)).completion = handle;
}

void FlowNetwork::beginBatch() { ++batchDepth_; }

void FlowNetwork::applyBatch() {
  assert(batchDepth_ > 0);
  if (--batchDepth_ == 0 &&
      (!dirtyList_.empty() || !retimeList_.empty() || !pendingBind_.empty())) {
    drain();
  }
}

void FlowNetwork::drain() {
  // 1. Each dirty side's clock runs at its old share up to now; then it
  //    takes the share its new membership gives it.
  const sim::SimTime now = sim_.now();
  for (const std::uint32_t index : dirtyList_) {
    Side& s = side(index);
    const double work = workNow(s);
    assert(work >= s.work);  // W is monotone between rebases
    s.work = work;
    s.clockAt = std::max(s.clockAt, now);
    const std::size_t members = memberCount(index);
    s.share =
        members == 0 ? 0.0 : capacityOf(index) / static_cast<double>(members);
    markRetime(index);
  }
  // 2. A flow foreign at a dirty side is keyed by that side's share in its
  //    binding side's byOther heap; make every key current before any flip
  //    is decided.
  for (const std::uint32_t index : dirtyList_) {
    const Side& s = side(index);
    for (const Slot slot : s.foreign) {
      const Flow& flow = *flows_.find(slot);
      heapRekey(side(boundSide(flow)).byOther, &Flow::otherPos, flow.otherPos,
                s.share);
    }
  }
  // 3. Binding flips. Only flows with a dirty side can flip: those foreign
  //    at a dirty side that now undercuts their binding side, and those bound
  //    to a dirty side that the other side now undercuts (the byOther heap
  //    hands them out smallest other-share first). The final bindings are a
  //    function of the final shares alone, so the pass order does not matter.
  for (const std::uint32_t index : dirtyList_) {
    Side& s = side(index);
    const bool isUpload = (index & 1) == 0;
    const Binding here = isUpload ? Binding::kUpload : Binding::kDownload;
    const Binding there = isUpload ? Binding::kDownload : Binding::kUpload;
    flips_.clear();
    for (const Slot slot : s.foreign) {
      if (bindingFor(*flows_.find(slot)) == here) flips_.push_back(slot);
    }
    for (const Slot slot : flips_) rebind(slot, *flows_.find(slot), here);
    // Upload-bound flows leave when the download share drops strictly
    // below; download-bound ones when the upload share ties or undercuts.
    while (!s.byOther.empty() &&
           (isUpload ? s.byOther.front().key < s.share
                     : s.byOther.front().key <= s.share)) {
      const Slot slot = s.byOther.front().slot;
      rebind(slot, *flows_.find(slot), there);
    }
  }
  dirtyList_.clear();
  // 4. Flows activated in this batch (skipping any that were paused or
  //    removed again before the commit).
  for (const Slot slot : pendingBind_) {
    Flow* flow = flows_.find(slot);
    if (flow == nullptr || flow->queued || flow->paused ||
        flow->binding != Binding::kNone) {
      continue;
    }
    bind(slot, *flow, bindingFor(*flow));
  }
  pendingBind_.clear();
  // 5. Re-time in side order: stamps drawn here break same-instant ties
  //    between sides, so they must not depend on the order of marks.
  std::sort(retimeList_.begin(), retimeList_.end());
  for (const std::uint32_t index : retimeList_) retime(index);
  retimeList_.clear();
}

void FlowNetwork::finishSide(std::uint32_t sideIndex) {
  if (sideIndex >= 2 * endpoints_.size()) return;
  Side& s = side(sideIndex);
  s.completion = sim::EventHandle{};  // this event is the one firing
  if (s.byFinish.empty()) return;
  // The earliest flow finishes, and with it every flow whose own event would
  // have been scheduled for this same microsecond.
  const double work = workNow(s);
  const auto dueNow = [&](double finishWork) {
    return sim::fromSeconds((finishWork - work) / s.share) <= 0;
  };
  // Reuses the scratch vector's capacity; swapped out for the call, so a
  // handler below can never see it half-used.
  std::vector<Completed> done;
  done.swap(completed_);
  done.clear();
  do {
    const HeapEntry top = s.byFinish.front();
    done.push_back({FlowId{top.id}, top.slot, {}});
    unbind(*flows_.find(top.slot));
  } while (!s.byFinish.empty() && dueNow(s.byFinish.front().key));
  std::sort(done.begin(), done.end(),
            [](const Completed& a, const Completed& b) { return a.id < b.id; });
  beginBatch();
  for (Completed& c : done) {
    c.tag = removeFlow(c.slot, /*completed=*/true).completionTag;
  }
  // Observers and tags run inside the completion's batch: the follow-up
  // flows they start (the next chunk, usually at the same endpoints) settle
  // in the same drain as the completions.
  for (const Completed& c : done) {
    for (FlowObserver* observer : observers_) observer->onFlowCompleted(c.id);
    if (c.tag.tagged()) sim_.invokeTagged(c.tag);
  }
  applyBatch();
  done.swap(completed_);
}

std::size_t FlowNetwork::boundSides() const {
  std::size_t count = 0;
  for (const EndpointState& state : endpoints_) {
    count += (state.up.byFinish.empty() ? 0 : 1) +
             (state.down.byFinish.empty() ? 0 : 1);
  }
  return count;
}

double FlowNetwork::estimatedBacklogSeconds(const EndpointState& state) const {
  if (state.capacity.uploadBps <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  double backlogBytes = 0.0;
  // Active uploads: read off the binding side's clock without advancing it.
  // Exact even mid-batch: a side's stored share is the rate that actually
  // governed its clock since it was last advanced. A flow activated in this
  // batch is not bound yet and has made no progress.
  for (const Slot slot : state.uploads) {
    const Flow& flow = *flows_.find(slot);
    backlogBytes += flow.binding == Binding::kNone ? flow.bytesRemaining
                                                    : remainingBytes(flow);
  }
  // Paused uploads hold their slot and will resume; queued uploads wait in
  // line untouched.
  for (const Slot slot : state.pausedUploads) {
    backlogBytes += flows_.find(slot)->bytesRemaining;
  }
  for (const Slot slot : state.uploadQueue) {
    backlogBytes += flows_.find(slot)->bytesRemaining;
  }
  return backlogBytes * 8.0 / state.capacity.uploadBps;
}

bool FlowNetwork::shouldShed(EndpointId src, FlowClass flowClass,
                             sim::SimTime deadline) const {
  const EndpointState& state = endpoints_[src.index()];
  if (!state.admissionEnabled) return false;
  // Prefetches are speculative: queueing one at a saturated source is pure
  // waste, so they are shed outright instead of waiting for a slot.
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

FlowId FlowNetwork::startFlow(EndpointId src, EndpointId dst,
                              std::uint64_t bytes, const FlowOptions& options) {
  assert(hasEndpoint(src) && hasEndpoint(dst));
  assert(bytes > 0);
  MutationBatch batch(*this);
  EndpointState& source = endpoints_[src.index()];
  // Paused uploads keep their slot reserved: resuming must never burst the
  // endpoint past its concurrency limit, and pausing must not leak slots to
  // the wait queue.
  const std::size_t usedSlots =
      source.uploads.size() + source.pausedUploads.size();
  if (usedSlots >= source.uploadLimit) {
    if (shouldShed(src, options.flowClass, options.deadline)) {
      ++source.flowsShed;
      for (FlowObserver* observer : observers_) {
        observer->onFlowShed(src, dst, options.flowClass);
      }
      return FlowId::invalid();
    }
    // No free upload slot: wait in line. The flow joins the share pools of
    // both endpoints only on activation.
    const FlowId id{nextFlowId_++};
    Flow flow;
    flow.id = id;
    flow.src = src;
    flow.dst = dst;
    flow.bytesRemaining = static_cast<double>(bytes);
    flow.totalBytes = bytes;
    flow.flowClass = options.flowClass;
    flow.queued = true;
    flow.completionTag = options.completionTag;
    const Slot slot = flows_.insert(std::move(flow));
    index_.emplace(id.value(), slot);
    source.uploadQueue.push_back(slot);
    endpoints_[dst.index()].queuedInbound.push_back(slot);
    return id;
  }

  const FlowId id{nextFlowId_++};
  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.bytesRemaining = static_cast<double>(bytes);
  flow.totalBytes = bytes;
  flow.flowClass = options.flowClass;
  flow.completionTag = options.completionTag;
  const Slot slot = flows_.insert(std::move(flow));
  index_.emplace(id.value(), slot);
  activate(slot, *flows_.find(slot));
  return id;
}

void FlowNetwork::setCompletionTag(FlowId id, const sim::EventTag& tag) {
  Flow* flow = flows_.find(slotOf(id));
  assert(flow != nullptr);
  flow->completionTag = tag;
}

void FlowNetwork::activate(Slot slot, Flow& flow) {
  if (flow.queued) {
    // Leaving the wait queue: the destination's inbound-queue mirror must
    // forget the flow too.
    eraseSlot(endpoints_[flow.dst.index()].queuedInbound, slot);
  }
  flow.queued = false;
  flow.paused = false;
  endpoints_[flow.src.index()].uploads.push_back(slot);
  endpoints_[flow.dst.index()].downloads.push_back(slot);
  // Membership at both sides changed; the flow is bound (and both shares
  // taken) when the batch commits.
  markDirty(upSide(flow.src));
  markDirty(downSide(flow.dst));
  pendingBind_.push_back(slot);
  enforceFloorFor(flow);
}

void FlowNetwork::promoteQueued(EndpointId endpoint) {
  EndpointState& state = endpoints_[endpoint.index()];
  while (!state.uploadQueue.empty() &&
         state.uploads.size() + state.pausedUploads.size() <
             state.uploadLimit) {
    const Slot next = state.uploadQueue.front();
    state.uploadQueue.pop_front();
    Flow* flow = flows_.find(next);
    assert(flow != nullptr && flow->queued);
    activate(next, *flow);
  }
}

void FlowNetwork::enforceFloorFor(Flow& flow) {
  if (floorBps_ <= 0.0) return;
  // fairRate() is evaluated live from the membership counts: mid-batch the
  // sides' stored shares are stale, and the live expression is bit-for-bit
  // what the eager solver's refresh had just stored when it evaluated this
  // loop condition.
  while (fairRate(flow) + kRateEpsilon < floorBps_) {
    // Victims live at the bottleneck endpoint: pausing elsewhere cannot
    // raise this flow's rate.
    const EndpointState& src = endpoints_[flow.src.index()];
    const EndpointState& dst = endpoints_[flow.dst.index()];
    const double upShare =
        src.capacity.uploadBps / static_cast<double>(src.uploads.size());
    const double downShare =
        dst.capacity.downloadBps / static_cast<double>(dst.downloads.size());
    const bool srcBottleneck = upShare <= downShare;
    const std::vector<Slot>& members =
        srcBottleneck ? src.uploads : dst.downloads;
    // Lowest class first (largest enum value), most recently activated
    // within a class — older transfers keep their progress.
    Slot victim = 0;
    FlowClass victimClass = flow.flowClass;
    for (const Slot candidate : members) {
      const Flow& other = *flows_.find(candidate);
      if (other.flowClass <= flow.flowClass) continue;
      if (victim == 0 || other.flowClass >= victimClass) {
        victim = candidate;
        victimClass = other.flowClass;
      }
    }
    if (victim == 0) break;
    Flow& victimFlow = *flows_.find(victim);
    pauseFlow(victim, victimFlow);
  }
}

void FlowNetwork::pauseFlow(Slot slot, Flow& flow) {
  assert(!flow.queued && !flow.paused);
  // Read the remaining bytes off the clock now: the pre-pause share must
  // stop accruing the moment the flow leaves the share pools.
  unbind(flow);
  eraseSlot(endpoints_[flow.src.index()].uploads, slot);
  eraseSlot(endpoints_[flow.dst.index()].downloads, slot);
  markDirty(upSide(flow.src));
  markDirty(downSide(flow.dst));
  flow.paused = true;
  endpoints_[flow.src.index()].pausedUploads.push_back(slot);
  endpoints_[flow.dst.index()].pausedDownloads.push_back(slot);
}

bool FlowNetwork::canResume(const Flow& flow) const {
  // Resuming adds one flow to src's upload pool and dst's download pool;
  // refuse when that would push an already-active higher-class flow at
  // either endpoint below the floor.
  const EndpointState& src = endpoints_[flow.src.index()];
  const double upShare = src.capacity.uploadBps /
                         static_cast<double>(src.uploads.size() + 1);
  if (upShare + kRateEpsilon < floorBps_) {
    for (const Slot other : src.uploads) {
      if (flows_.find(other)->flowClass < flow.flowClass) return false;
    }
  }
  const EndpointState& dst = endpoints_[flow.dst.index()];
  const double downShare = dst.capacity.downloadBps /
                           static_cast<double>(dst.downloads.size() + 1);
  if (downShare + kRateEpsilon < floorBps_) {
    for (const Slot other : dst.downloads) {
      if (flows_.find(other)->flowClass < flow.flowClass) return false;
    }
  }
  return true;
}

void FlowNetwork::resumePaused(EndpointId endpoint) {
  if (floorBps_ <= 0.0) return;
  while (true) {
    EndpointState& state = endpoints_[endpoint.index()];
    // Highest class first, FIFO within a class; uploads scanned before
    // downloads so the order is deterministic.
    Slot pick = 0;
    FlowClass pickClass = FlowClass::kPrefetch;
    for (const std::vector<Slot>* list :
         {&state.pausedUploads, &state.pausedDownloads}) {
      for (const Slot slot : *list) {
        const Flow& flow = *flows_.find(slot);
        if (pick != 0 && flow.flowClass >= pickClass) continue;
        if (canResume(flow)) {
          pick = slot;
          pickClass = flow.flowClass;
        }
      }
    }
    if (pick == 0) return;
    Flow& flow = *flows_.find(pick);
    eraseSlot(endpoints_[flow.src.index()].pausedUploads, pick);
    eraseSlot(endpoints_[flow.dst.index()].pausedDownloads, pick);
    activate(pick, flow);
  }
}

FlowNetwork::Flow FlowNetwork::removeFlow(Slot slot, bool completed) {
  unbind(*flows_.find(slot));
  Flow flow = flows_.take(slot);
  index_.erase(flow.id.value());

  if (flow.queued) {
    // Never activated: only the source's wait queue (and the destination's
    // inbound mirror) know about it.
    assert(!completed);
    auto& queue = endpoints_[flow.src.index()].uploadQueue;
    queue.erase(std::find(queue.begin(), queue.end(), slot));
    eraseSlot(endpoints_[flow.dst.index()].queuedInbound, slot);
    sim_.discardTagged(flow.completionTag);
    return flow;
  }

  if (flow.paused) {
    // Not in the share pools; releasing its reserved slot may admit queued
    // or paused work at the source.
    assert(!completed);
    eraseSlot(endpoints_[flow.src.index()].pausedUploads, slot);
    eraseSlot(endpoints_[flow.dst.index()].pausedDownloads, slot);
    promoteQueued(flow.src);
    resumePaused(flow.src);
    if (flow.dst != flow.src) resumePaused(flow.dst);
    sim_.discardTagged(flow.completionTag);
    return flow;
  }

  eraseSlot(endpoints_[flow.src.index()].uploads, slot);
  eraseSlot(endpoints_[flow.dst.index()].downloads, slot);

  if (completed) {
    endpoints_[flow.src.index()].bytesUploaded += flow.totalBytes;
    endpoints_[flow.dst.index()].bytesDownloaded += flow.totalBytes;
  }

  markDirty(upSide(flow.src));
  markDirty(downSide(flow.dst));
  promoteQueued(flow.src);
  resumePaused(flow.src);
  if (flow.dst != flow.src) resumePaused(flow.dst);

  if (!completed) sim_.discardTagged(flow.completionTag);
  return flow;
}

void FlowNetwork::cancelFlow(FlowId id) {
  const Slot slot = slotOf(id);
  if (slot == 0) return;
  beginBatch();
  removeFlow(slot, /*completed=*/false);
  applyBatch();
}

void FlowNetwork::dropEndpointFlows(EndpointId endpoint) {
  assert(hasEndpoint(endpoint));
  MutationBatch batch(*this);
  EndpointState& state = endpoints_[endpoint.index()];
  // Queued (never-activated) uploads die without notification, as do flows
  // queued at another source that would have downloaded into this endpoint
  // — without the inbound purge such a flow would later activate and fire
  // its completion toward a dead endpoint.
  const std::vector<Slot> queued(state.uploadQueue.begin(),
                                 state.uploadQueue.end());
  for (const Slot slot : queued) {
    if (flows_.find(slot) != nullptr) removeFlow(slot, /*completed=*/false);
  }
  const std::vector<Slot> inbound = state.queuedInbound;
  for (const Slot slot : inbound) {
    if (flows_.find(slot) != nullptr) removeFlow(slot, /*completed=*/false);
  }
  std::vector<Slot> doomed = state.uploads;
  doomed.insert(doomed.end(), state.downloads.begin(), state.downloads.end());
  // Preempted flows are still live transfers from the remote side's point of
  // view; a paused upload's downloader must be notified like an active one.
  doomed.insert(doomed.end(), state.pausedUploads.begin(),
                state.pausedUploads.end());
  doomed.insert(doomed.end(), state.pausedDownloads.begin(),
                state.pausedDownloads.end());
  // When the *endpoint itself* departs we notify for uploads it was serving
  // (the remote downloader lost its provider); its own downloads just die
  // with it. Aborts are recorded during removal and delivered afterwards in
  // ascending flow-id order, so observers see a settled network minus every
  // doomed flow — and any replacement flows they start join this batch.
  struct Abort {
    FlowId id;
    std::uint64_t bytesDone;
  };
  std::vector<Abort> aborts;
  for (const Slot slot : doomed) {
    Flow* flow = flows_.find(slot);
    if (flow == nullptr) continue;  // same flow on both sides (loopback)
    unbind(*flow);
    if (flow->dst != endpoint) {
      aborts.push_back(
          {flow->id,
           static_cast<std::uint64_t>(static_cast<double>(flow->totalBytes) -
                                      flow->bytesRemaining)});
    }
    removeFlow(slot, /*completed=*/false);
  }
  std::sort(aborts.begin(), aborts.end(),
            [](const Abort& a, const Abort& b) { return a.id < b.id; });
  for (const Abort& abort : aborts) {
    for (FlowObserver* observer : observers_) {
      observer->onFlowAborted(abort.id, abort.bytesDone);
    }
  }
}

bool FlowNetwork::flowActive(FlowId id) const { return slotOf(id) != 0; }

double FlowNetwork::flowRateBps(FlowId id) const {
  const Flow* flow = flows_.find(slotOf(id));
  return flow == nullptr || flow->binding == Binding::kNone
             ? 0.0
             : side(boundSide(*flow)).share;
}

bool FlowNetwork::flowPaused(FlowId id) const {
  const Flow* flow = flows_.find(slotOf(id));
  return flow != nullptr && flow->paused;
}

std::size_t FlowNetwork::activeUploads(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].uploads.size();
}

std::size_t FlowNetwork::activeDownloads(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].downloads.size();
}

std::size_t FlowNetwork::pausedUploads(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].pausedUploads.size();
}

std::uint64_t FlowNetwork::bytesUploaded(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].bytesUploaded;
}

std::uint64_t FlowNetwork::bytesDownloaded(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].bytesDownloaded;
}

std::uint64_t FlowNetwork::flowsShed(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].flowsShed;
}

bool FlowNetwork::saveState(snapshot::Writer& w, std::string* error) const {
  (void)error;
  // Batches never span simulated time, and snapshots are taken between
  // events, so there is nothing deferred to flush here: every active flow
  // is bound, and every side's event is where its clock says.
  assert(batchDepth_ == 0 && dirtyList_.empty() && retimeList_.empty() &&
         pendingBind_.empty());
  // Membership lists serialize as public flow ids (the byte format predates
  // the slot arena and must stay stable), so translate slot -> id on the way
  // out; loadState rebuilds the arena and translates back.
  const auto publicId = [this](Slot slot) {
    const Flow* flow = flows_.find(slot);
    assert(flow != nullptr);
    return flow->id.value();
  };
  const auto saveSlotList = [&](const std::vector<Slot>& list) {
    w.u64(list.size());
    for (const Slot slot : list) w.u32(publicId(slot));
  };

  std::vector<std::pair<std::uint32_t, Slot>> ids;
  ids.reserve(index_.size());
  for (const auto& [value, slot] : index_) ids.emplace_back(value, slot);
  std::sort(ids.begin(), ids.end());

  w.section(0x574f4c46);  // "FLOW"
  w.u64(ids.size());
  for (const auto& [value, slot] : ids) {
    const Flow& flow = *flows_.find(slot);
    w.u32(value);
    w.u32(flow.src.value());
    w.u32(flow.dst.value());
    // A bound flow's progress lives in its finish work; an unbound one's in
    // its remaining bytes.
    w.u8(static_cast<std::uint8_t>(flow.binding));
    w.f64(flow.binding == Binding::kNone ? flow.bytesRemaining
                                         : flow.finishWork);
    w.u64(flow.totalBytes);
    w.u8(static_cast<std::uint8_t>(flow.flowClass));
    w.boolean(flow.queued);
    w.boolean(flow.paused);
    w.u8(flow.completionTag.component);
    w.u8(flow.completionTag.kind);
    w.u16(flow.completionTag.stage);
    w.u32(flow.completionTag.a32);
    w.u64(flow.completionTag.a);
    w.u64(flow.completionTag.b);
    w.u64(flow.completionTag.c);
    w.u64(flow.completionTag.d);
  }
  w.u64(endpoints_.size());
  for (const EndpointState& state : endpoints_) {
    saveSlotList(state.uploads);
    saveSlotList(state.downloads);
    w.u64(state.uploadQueue.size());
    for (const Slot slot : state.uploadQueue) w.u32(publicId(slot));
    saveSlotList(state.queuedInbound);
    saveSlotList(state.pausedUploads);
    saveSlotList(state.pausedDownloads);
    w.u64(state.bytesUploaded);
    w.u64(state.bytesDownloaded);
    w.u64(state.flowsShed);
    for (const Side* s : {&state.up, &state.down}) {
      w.f64(s->share);
      w.f64(s->work);
      w.i64(s->clockAt);
    }
  }
  w.u32(nextFlowId_);
  return true;
}

namespace {

template <typename Container, typename Index>
bool loadSlotList(snapshot::Reader& r, const Index& index, Container* out) {
  const std::size_t count = r.count(4);
  out->clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id = r.u32();
    if (!r.ok()) return false;
    const auto it = index.find(id);
    if (it == index.end()) {
      r.fail("endpoint flow list references unknown flow");
      return false;
    }
    out->push_back(it->second);
  }
  return true;
}

}  // namespace

bool FlowNetwork::loadState(snapshot::Reader& r) {
  r.section(0x574f4c46, "flow network");
  const std::size_t flowCount = r.count(4 + 4 + 4 + 1 + 8 + 8 + 3 + 40);
  if (!r.ok()) return false;
  flows_ = SlotPool<Flow>{};
  index_.clear();
  dirtyList_.clear();
  retimeList_.clear();
  pendingBind_.clear();
  for (std::size_t i = 0; i < flowCount; ++i) {
    const FlowId id{r.u32()};
    Flow flow;
    flow.id = id;
    flow.src = EndpointId{r.u32()};
    flow.dst = EndpointId{r.u32()};
    const std::uint8_t binding = r.u8();
    const double progress = r.f64();
    flow.totalBytes = r.u64();
    const std::uint8_t flowClass = r.u8();
    flow.queued = r.boolean();
    flow.paused = r.boolean();
    flow.completionTag.component = r.u8();
    flow.completionTag.kind = r.u8();
    flow.completionTag.stage = r.u16();
    flow.completionTag.a32 = r.u32();
    flow.completionTag.a = r.u64();
    flow.completionTag.b = r.u64();
    flow.completionTag.c = r.u64();
    flow.completionTag.d = r.u64();
    if (!r.ok()) return false;
    // Active flows are bound (nothing is deferred across a snapshot);
    // queued and paused ones are not.
    const bool active = !flow.queued && !flow.paused;
    if (!hasEndpoint(flow.src) || !hasEndpoint(flow.dst) ||
        flowClass >= kFlowClassCount || (flow.queued && flow.paused) ||
        binding > static_cast<std::uint8_t>(Binding::kDownload) ||
        active != (binding != 0) || !(progress >= 0.0) ||
        flow.totalBytes == 0 || index_.count(id.value()) != 0) {
      r.fail("flow record out of range");
      return false;
    }
    flow.flowClass = static_cast<FlowClass>(flowClass);
    flow.binding = static_cast<Binding>(binding);
    (active ? flow.finishWork : flow.bytesRemaining) = progress;
    const Slot slot = flows_.insert(std::move(flow));
    index_.emplace(id.value(), slot);
  }
  const std::size_t endpointCount = r.count(15 * 8);
  if (!r.ok() || endpointCount != endpoints_.size()) {
    r.fail("flow network endpoint count mismatch");
    return false;
  }
  for (EndpointState& state : endpoints_) {
    if (!loadSlotList(r, index_, &state.uploads)) return false;
    if (!loadSlotList(r, index_, &state.downloads)) return false;
    if (!loadSlotList(r, index_, &state.uploadQueue)) return false;
    if (!loadSlotList(r, index_, &state.queuedInbound)) return false;
    if (!loadSlotList(r, index_, &state.pausedUploads)) return false;
    if (!loadSlotList(r, index_, &state.pausedDownloads)) return false;
    state.bytesUploaded = r.u64();
    state.bytesDownloaded = r.u64();
    state.flowsShed = r.u64();
    for (Side* s : {&state.up, &state.down}) {
      *s = Side{};
      s->share = r.f64();
      s->work = r.f64();
      s->clockAt = r.i64();
      if (r.ok() && !(s->share >= 0.0 && s->work >= 0.0)) {
        r.fail("flow network side clock out of range");
      }
    }
    if (!r.ok()) return false;
  }
  nextFlowId_ = r.u32();
  if (!r.ok()) return false;
  for (const auto& [value, slot] : index_) {
    if (value >= nextFlowId_) {
      r.fail("flow id collides with the id allocator");
      return false;
    }
  }
  // Rebuild the side heaps and foreign lists from the bindings, in flow-id
  // order (their layout never reaches an output: heap minima are by a total
  // order, and flips and re-times are order-independent).
  std::vector<std::pair<std::uint32_t, Slot>> ids(index_.begin(),
                                                  index_.end());
  std::sort(ids.begin(), ids.end());
  for (const auto& [value, slot] : ids) {
    Flow& flow = *flows_.find(slot);
    if (flow.binding == Binding::kNone) continue;
    Side& home = side(boundSide(flow));
    Side& away = side(otherSide(flow));
    heapPush(home.byFinish, &Flow::finishPos, {flow.finishWork, value, slot});
    heapPush(home.byOther, &Flow::otherPos, {away.share, value, slot});
    flow.foreignPos = static_cast<std::uint32_t>(away.foreign.size());
    away.foreign.push_back(slot);
  }
  for (std::uint32_t index = 0; index < 2 * endpoints_.size(); ++index) {
    const Side& s = side(index);
    if (s.byFinish.size() + s.foreign.size() != memberCount(index)) {
      r.fail("flow bindings disagree with endpoint membership");
      return false;
    }
  }
  return true;
}

}  // namespace st::net
