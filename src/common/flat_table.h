// FlatSlotTable: the open-addressed uint64 -> uint32 map behind the
// indexes' update paths (segment handle -> arena/store slot, cell key ->
// cell slot) and behind FlatMap (common/flat_map.h: location key -> dense
// entry index).
//
// One flat array of 16-byte (key, value) slots, power-of-two capacity,
// linear probing, at most two-thirds full. Erase uses backward-shift
// deletion, so there are no tombstones and a probe run always ends at the
// first empty slot. clear() empties the table but keeps its capacity, so
// an index that is Reset and rebuilt with no more keys than before
// allocates nothing. Every 64-bit key is valid: emptiness is marked by
// the reserved *value* kNone (no slot number reaches it), never by a key.
//
// Not thread-safe; the indexes only touch it on the single-threaded
// update path (and read it from const searches, which is safe between
// updates).

#ifndef FRT_COMMON_FLAT_TABLE_H_
#define FRT_COMMON_FLAT_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace frt {

class FlatSlotTable {
 public:
  /// Returned by Find/Erase for an absent key; not a storable value.
  static constexpr uint32_t kNone = 0xffffffffu;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of slots (tests / diagnostics).
  size_t capacity() const { return slots_.size(); }

  /// A key's probe run starts at Hash(key) & (capacity() - 1). Public so
  /// tests can build colliding keys.
  static uint64_t Hash(uint64_t key) {
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;  // splitmix finalizer
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    return key ^ (key >> 31);
  }

  /// The value stored for `key`, or kNone.
  uint32_t Find(uint64_t key) const {
    if (slots_.empty()) return kNone;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.value == kNone) return kNone;
      if (s.key == key) return s.value;
    }
  }

  /// Stores key -> value. Returns false, leaving the table unchanged, when
  /// `key` is already present. `value` must not be kNone.
  bool Insert(uint64_t key, uint32_t value) {
    assert(value != kNone);
    Slot& s = Claim(key);
    if (s.value != kNone) return false;
    s = Slot{key, value};
    ++size_;
    return true;
  }

  /// The value stored for `key`; when absent, stores `value` first and
  /// returns it (one probe run for a lookup that may insert). `value` must
  /// not be kNone.
  uint32_t FindOrInsert(uint64_t key, uint32_t value) {
    assert(value != kNone);
    Slot& s = Claim(key);
    if (s.value == kNone) {
      s = Slot{key, value};
      ++size_;
    }
    return s.value;
  }

  /// Removes `key` and returns its value, or kNone when absent. Entries
  /// later in the probe run shift back into the hole, unless the hole
  /// lies before their home slot.
  uint32_t Erase(uint64_t key) {
    if (slots_.empty()) return kNone;
    size_t hole = Home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].value == kNone) return kNone;
      if (slots_[hole].key == key) break;
    }
    const uint32_t value = slots_[hole].value;
    for (size_t j = (hole + 1) & mask_; slots_[j].value != kNone;
         j = (j + 1) & mask_) {
      // The entry at j may fill the hole iff its home is not in the
      // cyclic range (hole, j].
      if (((j - Home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = kNone;
    --size_;
    return value;
  }

  /// Makes room for `n` keys without rehashing.
  void Reserve(size_t n) {
    if (n * 3 > slots_.size() * 2) Rehash(Grown(n));
  }

  /// Empties the table; the capacity stays.
  void clear() {
    for (Slot& s : slots_) s.value = kNone;
    size_ = 0;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = kNone;
  };

  /// The slot holding `key`, or the empty slot ending its probe run,
  /// after growing the table so that one more key fits.
  Slot& Claim(uint64_t key) {
    if ((size_ + 1) * 3 > slots_.size() * 2) Rehash(Grown(size_ + 1));
    size_t i = Home(key);
    while (slots_[i].value != kNone && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return slots_[i];
  }

  size_t Home(uint64_t key) const {
    return static_cast<size_t>(Hash(key)) & mask_;
  }

  /// Smallest power-of-two capacity (>= 16) holding `n` keys.
  size_t Grown(size_t n) const {
    size_t capacity = std::max<size_t>(16, slots_.size());
    while (n * 3 > capacity * 2) capacity *= 2;
    return capacity;
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);  // slots_ is now the empty, larger array
    mask_ = capacity - 1;
    for (const Slot& s : old) {
      if (s.value == kNone) continue;
      size_t i = Home(s.key);
      while (slots_[i].value != kNone) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace frt

#endif  // FRT_COMMON_FLAT_TABLE_H_
