// The search/download lifecycle SocialTube and NetTube share.
//
// The two systems differ in their overlays: SocialTube floods per-channel
// inner links, then per-category inter links (§IV-A); NetTube floods the
// union of its per-video overlays, then asks the server directory (§IV-C).
// They do not differ in what surrounds the flood: a pooled search record
// per request, duplicate-flood suppression, abandoning a stale search,
// turning the provider found into a WatchRequest, and the server fallback.
// SearchBook owns the records and DownloadDriver starts the watch; each
// system keeps its overlay, its search phases, its record codec and its
// tag kinds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snapshot/codec.h"
#include "util/slot_pool.h"
#include "vod/context.h"
#include "vod/transfer.h"
#include "vod/video_cache.h"

namespace st::vod {

// Fields every search record carries; a system derives its record from it
// when its search phases need more.
struct SearchRecord {
  UserId user;
  VideoId video;
  bool prefetchHit = false;  // first chunk local: playback already started
  sim::SimTime requestTime = 0;
  sim::EventHandle deadline;  // phase timeout or retry backoff
};

// Pooled search records, the per-node flood dedup stamps, and each user's
// in-flight search. Deadlines are not serialized; systems re-store them from
// the simulator queue in EventFactory::onRestored().
//
// A record's pool id doubles as its flood query id. Ids are nonzero and
// never reused, so "has this node seen this query" is one stamp per node:
// a compare and a store, no allocation. A stamp only remembers the latest
// query that visited the node, so when two floods interleave there, the
// older one may be re-forwarded once — bounded by its TTL, and
// deterministic.
template <typename Record>
class SearchBook {
 public:
  using Id = std::uint64_t;

  SearchBook(sim::Simulator& sim, std::size_t users)
      : sim_(sim), marks_(users, 0), active_(users, 0) {}

  // Opens a search for record.user, abandoning the user's previous one.
  Id begin(Record record) {
    const UserId user = record.user;
    abandon(user);
    const Id id = pool_.insert(std::move(record));
    active_[user.index()] = id;
    return id;
  }

  // The live record of `id`; nullptr once it was taken or abandoned.
  [[nodiscard]] Record* find(Id id) { return pool_.find(id); }

  // Closes a live search: removes the record, cancels its deadline and
  // clears the user's in-flight id.
  Record take(Id id) {
    Record record = pool_.take(id);
    sim_.cancel(record.deadline);
    record.deadline = sim::EventHandle{};
    active_[record.user.index()] = 0;
    return record;
  }

  // Abandons the user's in-flight search, if any (logout, new request).
  void abandon(UserId user) {
    const Id id = active_[user.index()];
    if (id == 0) return;
    if (Record* record = pool_.find(id)) {
      sim_.cancel(record->deadline);
      pool_.erase(id);
    }
    active_[user.index()] = 0;
  }

  // True if query `id` already visited node `at`; marks it otherwise.
  [[nodiscard]] bool seen(UserId at, Id id) {
    Id& mark = marks_[at.index()];
    if (mark == id) return true;
    mark = id;
    return false;
  }

  // Checkpoint framing: every pool slot (live flag, generation, free link,
  // then encode(w, record) for live slots), the free-list head, the dedup
  // stamps and the in-flight ids.
  template <typename Encode>
  void saveState(snapshot::Writer& w, Encode&& encode) const {
    w.u64(pool_.slotCount());
    pool_.visitSlots([&](std::uint32_t, bool live, std::uint32_t gen,
                         std::uint32_t nextFree, const Record& record) {
      w.boolean(live);
      w.u32(gen);
      w.u32(nextFree);
      if (live) encode(w, record);
    });
    w.u32(pool_.freeHead());
    w.u64(marks_.size());
    for (const Id mark : marks_) w.u64(mark);
    w.u64(active_.size());
    for (const Id id : active_) w.u64(id);
  }

  // Reads what saveState wrote; decode(r) returns one live record. Errors
  // name `owner` (the system) and leave `r` failed.
  template <typename Decode>
  bool loadState(snapshot::Reader& r, std::string_view owner,
                 Decode&& decode) {
    const auto fail = [&r, owner](const char* what) {
      r.fail(std::string(owner) + what);
      return false;
    };
    const std::size_t slots = r.count(1 + 4 + 4);
    pool_.beginRestore();
    for (std::size_t i = 0; i < slots; ++i) {
      const bool live = r.boolean();
      const std::uint32_t gen = r.u32();
      const std::uint32_t nextFree = r.u32();
      Record record;
      if (live) {
        record = decode(r);
        if (r.ok() && record.user.index() >= active_.size()) {
          return fail(" search user out of range");
        }
      }
      if (!r.ok()) return false;
      pool_.restoreSlot(live, gen, nextFree, std::move(record));
    }
    const std::uint32_t freeHead = r.u32();
    if (!r.ok() || !pool_.finishRestore(freeHead)) {
      return fail(" search pool free list corrupt");
    }
    const std::size_t markCount = r.count(8);
    if (!r.ok() || markCount != marks_.size()) {
      return fail(" dedup mark count mismatch");
    }
    for (Id& mark : marks_) mark = r.u64();
    const std::size_t activeCount = r.count(8);
    if (!r.ok() || activeCount != active_.size()) {
      return fail(" active-search count mismatch");
    }
    for (Id& id : active_) id = r.u64();
    return r.ok();
  }

 private:
  sim::Simulator& sim_;
  SlotPool<Record> pool_;
  // Indexed by node: the last query id that visited it.
  std::vector<Id> marks_;
  // Indexed by user: the user's in-flight search id, 0 if none.
  std::vector<Id> active_;
};

// Turns a resolved search into a watch. With a provider the transfer
// starts at once; without one the request (plus any striping list, in the
// payload pool) travels to the origin server as the system's server-watch
// tag, whose factory hands it to serverWatch().
class DownloadDriver {
 public:
  DownloadDriver(SystemContext& ctx, TransferManager& transfers,
                 sim::Component component, std::uint8_t serverWatchKind)
      : ctx_(ctx),
        transfers_(transfers),
        component_(component),
        serverWatchKind_(serverWatchKind) {}

  // Starts the search's watch from `provider`, or via the origin server
  // when it is invalid. Swarming (extension): with config.bodySources > 1
  // the body is also striped across neighbours holding a full copy.
  // neighbours() returns the candidates in preference order and is only
  // called then; caches is the per-user cache array.
  template <typename Neighbours>
  void start(const SearchRecord& search, UserId provider,
             std::span<const VideoCache> caches, Neighbours&& neighbours) {
    TransferManager::WatchRequest request;
    request.user = search.user;
    request.video = search.video;
    request.provider = provider;
    request.firstChunkCached = search.prefetchHit;
    request.requestTime = search.requestTime;
    request.reportPlayback = !search.prefetchHit;
    if (ctx_.config().bodySources > 1) {
      const std::vector<UserId> candidates = neighbours();
      addStripes(request, caches, candidates);
    }
    send(std::move(request));
  }

  // Server side of the no-provider path.
  void serverWatch(const sim::EventTag& tag);

 private:
  void addStripes(TransferManager::WatchRequest& request,
                  std::span<const VideoCache> caches,
                  std::span<const UserId> candidates);
  void send(TransferManager::WatchRequest request);

  SystemContext& ctx_;
  TransferManager& transfers_;
  sim::Component component_;
  std::uint8_t serverWatchKind_;
};

}  // namespace st::vod
