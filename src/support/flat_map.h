// Sorted-vector flat map/set for small hot-path tables.
//
// Transport session maps, dedup caches, link-layer neighbour state and
// channel caches in this codebase are keyed by address or id and hold tens
// to a few hundred entries. A contiguous sorted vector beats node-based
// std::map/std::set on every axis that matters on the per-packet path:
// lookups are a binary search over contiguous memory, iteration is linear
// memory, and — crucially for the steady-state zero-allocation goal —
// insert/erase reuse the vector's capacity instead of churning a heap node
// per element. (The routing table is not a FlatMap: it is its own sorted
// vector of RouteEntry, see net/routing_table.h.)
//
// The API is the subset of std::map/std::set the protocol stack uses.
// Iteration order is sorted by key, i.e. exactly std::map's order, so
// swapping one for the other is behaviour-preserving (deterministic traces
// stay byte-identical). Inserting or erasing invalidates iterators, like any
// vector; no call site here holds iterators across mutation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace lm::support {

template <class Key, class Value, class Compare = std::less<Key>,
          class Alloc = std::allocator<std::pair<Key, Value>>>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using storage_type = std::vector<value_type, Alloc>;
  using iterator = typename storage_type::iterator;
  using const_iterator = typename storage_type::const_iterator;
  using size_type = std::size_t;

  iterator begin() { return data_.begin(); }
  iterator end() { return data_.end(); }
  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }

  bool empty() const { return data_.empty(); }
  size_type size() const { return data_.size(); }
  void clear() { data_.clear(); }  // keeps capacity
  void reserve(size_type n) { data_.reserve(n); }
  const value_type* data() const { return data_.data(); }

  iterator lower_bound(const Key& key) {
    return std::lower_bound(data_.begin(), data_.end(), key,
                            [this](const value_type& e, const Key& k) {
                              return cmp_(e.first, k);
                            });
  }
  const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(data_.begin(), data_.end(), key,
                            [this](const value_type& e, const Key& k) {
                              return cmp_(e.first, k);
                            });
  }

  iterator find(const Key& key) {
    iterator it = lower_bound(key);
    return (it != data_.end() && !cmp_(key, it->first)) ? it : data_.end();
  }
  const_iterator find(const Key& key) const {
    const_iterator it = lower_bound(key);
    return (it != data_.end() && !cmp_(key, it->first)) ? it : data_.end();
  }
  bool contains(const Key& key) const { return find(key) != data_.end(); }
  size_type count(const Key& key) const { return contains(key) ? 1 : 0; }

  Value& operator[](const Key& key) {
    iterator it = lower_bound(key);
    if (it != data_.end() && !cmp_(key, it->first)) return it->second;
    return data_.emplace(it, key, Value{})->second;
  }

  /// Inserts default/argument-constructed value if absent; never overwrites.
  template <class... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    iterator it = lower_bound(key);
    if (it != data_.end() && !cmp_(key, it->first)) return {it, false};
    it = data_.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                       std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  template <class V>
  std::pair<iterator, bool> insert_or_assign(const Key& key, V&& value) {
    iterator it = lower_bound(key);
    if (it != data_.end() && !cmp_(key, it->first)) {
      it->second = std::forward<V>(value);
      return {it, false};
    }
    it = data_.emplace(it, key, std::forward<V>(value));
    return {it, true};
  }

  iterator erase(iterator it) { return data_.erase(it); }
  size_type erase(const Key& key) {
    iterator it = find(key);
    if (it == data_.end()) return 0;
    data_.erase(it);
    return 1;
  }

  /// std::erase_if equivalent; returns the number of removed entries.
  template <class Pred>
  size_type erase_if(Pred pred) {
    const auto removed = std::remove_if(data_.begin(), data_.end(), pred);
    const size_type n = static_cast<size_type>(data_.end() - removed);
    data_.erase(removed, data_.end());
    return n;
  }

 private:
  storage_type data_;
  [[no_unique_address]] Compare cmp_;
};

template <class Key, class Compare = std::less<Key>,
          class Alloc = std::allocator<Key>>
class FlatSet {
 public:
  using value_type = Key;
  using storage_type = std::vector<Key, Alloc>;
  using iterator = typename storage_type::const_iterator;
  using size_type = std::size_t;

  iterator begin() const { return data_.begin(); }
  iterator end() const { return data_.end(); }

  bool empty() const { return data_.empty(); }
  size_type size() const { return data_.size(); }
  void clear() { data_.clear(); }
  void reserve(size_type n) { data_.reserve(n); }

  bool contains(const Key& key) const { return locate(key) != nullptr; }
  size_type count(const Key& key) const { return contains(key) ? 1 : 0; }

  std::pair<iterator, bool> insert(const Key& key) {
    auto it = std::lower_bound(data_.begin(), data_.end(), key, cmp_);
    if (it != data_.end() && !cmp_(key, *it)) return {it, false};
    it = data_.insert(it, key);
    return {it, true};
  }

  size_type erase(const Key& key) {
    auto it = std::lower_bound(data_.begin(), data_.end(), key, cmp_);
    if (it == data_.end() || cmp_(key, *it)) return 0;
    data_.erase(it);
    return 1;
  }

 private:
  const Key* locate(const Key& key) const {
    auto it = std::lower_bound(data_.begin(), data_.end(), key, cmp_);
    return (it != data_.end() && !cmp_(key, *it)) ? &*it : nullptr;
  }

  storage_type data_;
  [[no_unique_address]] Compare cmp_;
};

}  // namespace lm::support
