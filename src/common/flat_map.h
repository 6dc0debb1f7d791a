// FlatMap<V>: the uint64 -> V map behind the pipeline's frequency tables
// (PF, TF, frequency deltas, the signature TF over P) and the quantizer's
// representatives.
//
// A FlatSlotTable (common/flat_table.h) maps each key to a dense index into
// one vector of (key, value) entries kept in insertion order. A lookup is
// one probe run over a flat array and an insert appends to the vector, so
// counting a trajectory's locations allocates a handful of arrays instead
// of one hash node per location. It implements the subset of
// std::unordered_map the pipeline uses: find / end / count / operator[] /
// at / try_emplace / insert, reserve, clear, iteration and initializer
// lists. There is no erase.
//
// Iteration visits entries in insertion order. Every caller either sorts
// what it iterates or sums integers over it, so no order reaches a
// release. Keys must not be changed through an iterator.
//
// Not thread-safe.

#ifndef FRT_COMMON_FLAT_MAP_H_
#define FRT_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/flat_table.h"

namespace frt {

template <typename V>
class FlatMap {
 public:
  using key_type = uint64_t;
  using mapped_type = V;
  using value_type = std::pair<uint64_t, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;
  /// Like std::unordered_map, the first of several equal keys wins.
  FlatMap(std::initializer_list<value_type> init) {
    reserve(init.size());
    for (const value_type& kv : init) insert(kv);
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  /// Makes room for `n` keys without rehashing or reallocating.
  void reserve(size_t n) {
    slot_of_.Reserve(n);
    entries_.reserve(n);
  }

  /// Empties the map; both arrays keep their capacity.
  void clear() {
    slot_of_.clear();
    entries_.clear();
  }

  iterator find(uint64_t key) {
    const uint32_t i = slot_of_.Find(key);
    return i == FlatSlotTable::kNone ? end() : begin() + i;
  }
  const_iterator find(uint64_t key) const {
    const uint32_t i = slot_of_.Find(key);
    return i == FlatSlotTable::kNone ? end() : begin() + i;
  }
  size_t count(uint64_t key) const {
    return slot_of_.Find(key) == FlatSlotTable::kNone ? 0 : 1;
  }

  V& at(uint64_t key) {
    const auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: absent key");
    return it->second;
  }
  const V& at(uint64_t key) const {
    const auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: absent key");
    return it->second;
  }

  /// Inserts (key, V(args...)) unless `key` is present; returns the
  /// entry and whether it was inserted.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(uint64_t key, Args&&... args) {
    const uint32_t next = static_cast<uint32_t>(entries_.size());
    const uint32_t i = slot_of_.FindOrInsert(key, next);
    if (i != next) return {begin() + i, false};
    entries_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    return {end() - 1, true};
  }
  std::pair<iterator, bool> insert(const value_type& kv) {
    return try_emplace(kv.first, kv.second);
  }
  V& operator[](uint64_t key) { return try_emplace(key).first->second; }

 private:
  FlatSlotTable slot_of_;  ///< key -> index into entries_
  std::vector<value_type> entries_;
};

}  // namespace frt

#endif  // FRT_COMMON_FLAT_MAP_H_
