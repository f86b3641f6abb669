// Flat id-keyed tables for the read path's per-query lookups. Header-only.
//
// IdMap<V>: an open-addressing hash table from 64-bit ids to values. One power-of-two
// slot vector, at most half full, linear probing, Fibonacci (multiply-shift) hashing
// and backward-shift erase, so there are no tombstones. Memory is O(entries) whatever
// the ids' magnitude; a hit costs one multiply and, at that load, ~1.5 probes.
//
//   - Iteration order is slot order, which depends on the insertion history. Anything
//     that must be deterministic (checkpoint bytes, an order that feeds the simulation)
//     walks SortedKeys() instead.
//   - Emplace and Erase may move every value (a rehash, a backward shift), so a pointer
//     from Find is valid only until the next mutation.
//   - Concurrent Find calls are safe; a mutation needs exclusive access. The tables in
//     this repo mutate only in control context (build, attach, register, migrate,
//     restore), while worker lanes only read.
//
// StableIdMap<V>: an IdMap index over pooled slots that never move, for tables whose
// entries are held by pointer across other entries' inserts and erases (the in-flight
// query tables). An erased slot is recycled by the next insert, so a steady stream of
// queries allocates nothing once the pool has grown to the in-flight high-water mark.

#ifndef SRC_UTIL_ID_MAP_H_
#define SRC_UTIL_ID_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/util/assert.h"

namespace presto {

template <typename V>
class IdMap {
 public:
  using Key = uint64_t;

  size_t size() const { return size_; }

  V* Find(Key key) {
    return const_cast<V*>(static_cast<const IdMap&>(*this).Find(key));
  }
  const V* Find(Key key) const {
    if (size_ == 0) {
      return nullptr;
    }
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (!slot.full) {
        return nullptr;
      }
      if (slot.key == key) {
        return &slot.value;
      }
    }
  }

  // Stores `value` under `key` unless the key is present. Returns the stored value and
  // whether this call inserted it.
  std::pair<V*, bool> Emplace(Key key, V value) {
    if (V* existing = Find(key)) {
      return {existing, false};
    }
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(std::max<size_t>(kMinSlots, 2 * slots_.size()));
    }
    size_t i = Home(key);
    while (slots_[i].full) {
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    slots_[i].full = true;
    slots_[i].value = std::move(value);
    ++size_;
    return {&slots_[i].value, true};
  }

  // The value under `key`, value-initialized first when absent.
  V& operator[](Key key) { return *Emplace(key, V{}).first; }

  bool Erase(Key key) {
    if (size_ == 0) {
      return false;
    }
    size_t hole = Home(key);
    for (; slots_[hole].key != key; hole = (hole + 1) & mask_) {
      if (!slots_[hole].full) {
        return false;
      }
    }
    if (!slots_[hole].full) {
      return false;
    }
    // Backward shift: pull each later member of the probe run into the hole unless
    // its home lies cyclically inside (hole, j], where moving it would break its run.
    for (size_t j = (hole + 1) & mask_; slots_[j].full; j = (j + 1) & mask_) {
      const size_t home = Home(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].full = false;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

  void Clear() {
    slots_.clear();
    mask_ = 0;
    shift_ = 64;
    size_ = 0;
  }

  std::vector<Key> SortedKeys() const {
    std::vector<Key> keys;
    keys.reserve(size_);
    for (const Slot& slot : slots_) {
      if (slot.full) {
        keys.push_back(slot.key);
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  static constexpr size_t kMinSlots = 8;

  struct Slot {
    Key key = 0;
    bool full = false;
    V value{};
  };

  size_t Home(Key key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Rehash(size_t slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(slot_count, Slot{});
    mask_ = slot_count - 1;
    shift_ = 64;
    for (size_t n = slot_count; n > 1; n >>= 1) {
      --shift_;
    }
    for (Slot& slot : old) {
      if (!slot.full) {
        continue;
      }
      size_t i = Home(slot.key);
      while (slots_[i].full) {
        i = (i + 1) & mask_;
      }
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

template <typename V>
class StableIdMap {
 public:
  using Key = uint64_t;

  size_t size() const { return index_.size(); }

  // Stores `value` under a `key` that must be absent; the returned reference stays
  // valid until the key is erased.
  V& Insert(Key key, V value) {
    V* slot;
    if (free_.empty()) {
      slot = &pool_.emplace_back(std::move(value));
    } else {
      slot = free_.back();
      free_.pop_back();
      *slot = std::move(value);
    }
    const bool inserted = index_.Emplace(key, slot).second;
    PRESTO_CHECK_MSG(inserted, "duplicate id");
    return *slot;
  }

  V* Find(Key key) const {
    V* const* slot = index_.Find(key);
    return slot == nullptr ? nullptr : *slot;
  }

  // Moves the entry out and recycles its slot; nullopt when the key is absent.
  std::optional<V> Take(Key key) {
    V* slot = Find(key);
    if (slot == nullptr) {
      return std::nullopt;
    }
    std::optional<V> out(std::move(*slot));
    Release(key, slot);
    return out;
  }

  bool Erase(Key key) {
    V* slot = Find(key);
    if (slot == nullptr) {
      return false;
    }
    Release(key, slot);
    return true;
  }

  void Clear() {
    index_.Clear();
    pool_.clear();
    free_.clear();
  }

  // Entries in ascending key order (checkpoints, deterministic walks).
  std::vector<std::pair<Key, const V*>> Sorted() const {
    std::vector<std::pair<Key, const V*>> out;
    out.reserve(size());
    for (Key key : index_.SortedKeys()) {
      out.emplace_back(key, Find(key));
    }
    return out;
  }

 private:
  void Release(Key key, V* slot) {
    index_.Erase(key);
    *slot = V{};  // drop what the entry owned
    free_.push_back(slot);
  }

  IdMap<V*> index_;
  std::deque<V> pool_;  // push_back never moves existing elements
  std::vector<V*> free_;
};

}  // namespace presto

#endif  // SRC_UTIL_ID_MAP_H_
