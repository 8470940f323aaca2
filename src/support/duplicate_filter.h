// Bounded duplicate filter: a sliding window of the last N admitted keys.
//
// Flood relays, route-request floods and acked-datagram receivers all
// suppress repeats the same way a real node with a few hundred bytes of
// RAM does: remember the most recent keys, forget the oldest once the
// window is full. A sorted FlatSet answers membership; a FIFO of admission
// order says which key leaves first. A key that has left the window is new
// again.
//
// The capacity is an argument of each call, not a member: an owner passes
// the same value every time. A stored capacity grew TransportLayer by 8
// bytes, pushed each MeshNode over a cache-line boundary and raised the
// 4,900-node city field's peak RSS by 0.3 MB.
#pragma once

#include <cstddef>

#include "support/flat_map.h"
#include "support/sliding_queue.h"

namespace lm::support {

template <class Key>
class DuplicateFilter {
 public:
  /// True when `key` is in the window. Otherwise admits it, evicting the
  /// oldest keys beyond `capacity`, and returns false. A repeat neither
  /// re-admits nor refreshes the key.
  bool seen_before(const Key& key, std::size_t capacity) {
    if (seen_.contains(key)) return true;
    seen_.insert(key);
    order_.push_back(key);
    while (order_.size() > capacity) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return false;
  }

 private:
  FlatSet<Key> seen_;
  SlidingQueue<Key> order_;
};

}  // namespace lm::support
