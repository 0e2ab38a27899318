// Generation-stamped slot pool for short-lived protocol records.
//
// The systems used to churn `unordered_map` entries per request (searches,
// watches): every insert hashed and allocated, every erase rehashed. A
// SlotPool recycles record storage through a free list and addresses it by
// a 64-bit id packing (generation << 32 | slot). Lookup is an index plus
// one compare; a stale id — kept after its record was erased — can never
// alias a recycled slot because the generation is bumped on every erase.
//
// Ids are never zero and never repeat (until a per-slot generation wraps
// 2^32, far beyond any run), which also makes them safe as flood-query
// dedup stamps (see vod::SearchBook).
//
// Storage is a deque, so references returned by find() stay valid across
// inserts — matching the unordered_map semantics the protocols relied on.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <utility>

namespace st {

template <typename T>
class SlotPool {
 public:
  using Id = std::uint64_t;

  // Inserts a record and returns its id (never 0).
  Id insert(T value) {
    std::uint32_t index;
    if (freeHead_ != kNoFree) {
      index = freeHead_;
      Slot& slot = slots_[index];
      freeHead_ = slot.nextFree;
      slot.nextFree = kNoFree;
      slot.value = std::move(value);
      slot.live = true;
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(value), 1, kNoFree, true});
    }
    ++size_;
    return makeId(index, slots_[index].gen);
  }

  // Returns the record for a live id, nullptr for stale/unknown ids.
  [[nodiscard]] T* find(Id id) {
    const std::uint32_t index = slotOf(id);
    if (index >= slots_.size()) return nullptr;
    Slot& slot = slots_[index];
    if (!slot.live || slot.gen != genOf(id)) return nullptr;
    return &slot.value;
  }
  [[nodiscard]] const T* find(Id id) const {
    return const_cast<SlotPool*>(this)->find(id);
  }

  // Moves a live record out and frees its slot.
  T take(Id id) {
    T* value = find(id);
    assert(value != nullptr);
    T out = std::move(*value);
    erase(id);
    return out;
  }

  // Frees a live slot; the id (and any copy of it) goes stale immediately.
  void erase(Id id) {
    const std::uint32_t index = slotOf(id);
    assert(index < slots_.size());
    Slot& slot = slots_[index];
    assert(slot.live && slot.gen == genOf(id));
    slot.value = T{};  // release captured resources now, not at reuse
    slot.live = false;
    if (++slot.gen == 0) slot.gen = 1;
    slot.nextFree = freeHead_;
    freeHead_ = index;
    --size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // --- checkpoint/restore -----------------------------------------------------
  // Ids are (generation << 32 | slot), so restoring outstanding ids exactly
  // requires persisting the whole arena: every slot's generation and free-
  // list linkage, live or not. visitSlots walks slots in index order;
  // beginRestore/restoreSlot/finishRestore rebuild the identical arena.
  static constexpr std::uint32_t kNoFreeSlot = ~std::uint32_t{0};

  [[nodiscard]] std::size_t slotCount() const { return slots_.size(); }
  [[nodiscard]] std::uint32_t freeHead() const { return freeHead_; }

  // fn(index, live, gen, nextFree, const T& value) — value is default for
  // free slots.
  template <typename Fn>
  void visitSlots(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      fn(static_cast<std::uint32_t>(i), slot.live, slot.gen, slot.nextFree,
         slot.value);
    }
  }

  void beginRestore() {
    slots_.clear();
    freeHead_ = kNoFree;
    size_ = 0;
  }
  void restoreSlot(bool live, std::uint32_t gen, std::uint32_t nextFree,
                   T value) {
    slots_.push_back(Slot{std::move(value), gen, nextFree, live});
    if (live) ++size_;
  }
  // Validates the free list (every link in range, every free slot on it
  // exactly once); false leaves the pool empty rather than inconsistent.
  bool finishRestore(std::uint32_t freeHead) {
    std::size_t freeSlots = 0;
    for (const Slot& slot : slots_) {
      if (!slot.live) ++freeSlots;
    }
    std::size_t walked = 0;
    for (std::uint32_t at = freeHead; at != kNoFree;
         at = slots_[at].nextFree) {
      if (at >= slots_.size() || slots_[at].live || ++walked > freeSlots) {
        beginRestore();
        return false;
      }
    }
    if (walked != freeSlots) {
      beginRestore();
      return false;
    }
    freeHead_ = freeHead;
    return true;
  }

 private:
  static constexpr std::uint32_t kNoFree = ~std::uint32_t{0};

  struct Slot {
    T value{};
    std::uint32_t gen = 1;  // bumped on erase; 0 reserved (id 0 impossible)
    std::uint32_t nextFree = kNoFree;
    bool live = false;
  };

  static Id makeId(std::uint32_t index, std::uint32_t gen) {
    return (static_cast<Id>(gen) << 32) | index;
  }
  static std::uint32_t slotOf(Id id) { return static_cast<std::uint32_t>(id); }
  static std::uint32_t genOf(Id id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  std::deque<Slot> slots_;
  std::uint32_t freeHead_ = kNoFree;
  std::size_t size_ = 0;
};

}  // namespace st
