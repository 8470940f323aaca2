// Uniform-grid spatial index for the channel's delivery and interference
// culling.
//
// Items (radios, transmissions) are bucketed by their position into square
// cells of a fixed size chosen once from the link budget (the maximum
// decodable/interference-relevant range). A range query visits only the
// cells intersecting the query disc, so finding "everything that could
// possibly hear this frame" costs O(candidates) instead of O(N).
//
// The grid is purely an over-approximation device: queries may yield items
// slightly outside the radius (callers re-apply the exact physics), but
// never miss one inside it. Correctness therefore does not depend on the
// cell size — only query cost does.
//
// Storage is one flat open-addressed table: a power-of-two vector of 4-byte
// slots probed linearly from a multiplicative hash of the packed (cx, cy)
// cell key, each slot naming a cell in a dense cell vector. A probe for an
// absent cell touches only the small slot array, and a full scan walks the
// dense cells. A cell that empties keeps its slot (and its bucket
// capacity), so the transmission grid — whose frames come and go in the
// same few cells — stops allocating once warm. Slots are only reclaimed
// when the table regrows, which rebuilds it from the non-empty cells alone;
// memory therefore tracks the cells in use, and a far-away outlier costs
// one slot, not a bounding box.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "phy/geometry.h"
#include "support/assert.h"

namespace lm::radio {

template <typename T>
class SpatialGrid {
 public:
  /// Clears the grid and fixes the cell edge length (> 0).
  void reset(double cell_size_m) {
    LM_REQUIRE(cell_size_m > 0.0);
    cell_size_m_ = cell_size_m;
    slots_.clear();
    cells_.clear();
    shift_ = 64;
    occupied_ = 0;
    size_ = 0;
  }

  bool initialized() const { return cell_size_m_ > 0.0; }
  double cell_size_m() const { return cell_size_m_; }
  std::size_t size() const { return size_; }
  /// Slots in the cell table (a power of two, or 0 before the first
  /// insert); tests use it to see the table regrow.
  std::size_t capacity() const { return slots_.size(); }

  void insert(T* item, const phy::Position& pos) {
    Cell& cell = claim(key_of(pos));
    if (cell.items.empty()) ++occupied_;
    cell.items.push_back(item);
    ++size_;
  }

  void remove(T* item, const phy::Position& pos) {
    Cell* cell = find(key_of(pos));
    LM_ASSERT(cell != nullptr);
    auto& bucket = cell->items;
    for (auto b = bucket.begin(); b != bucket.end(); ++b) {
      if (*b == item) {
        // Bucket order is irrelevant to every caller, so swap-and-pop.
        *b = bucket.back();
        bucket.pop_back();
        --size_;
        if (bucket.empty()) --occupied_;
        return;
      }
    }
    LM_ASSERT(false && "item not present at the position it claims");
  }

  /// Relocates an item (mobility). No-op when both positions land in the
  /// same cell.
  void move(T* item, const phy::Position& from, const phy::Position& to) {
    if (key_of(from) == key_of(to)) return;
    remove(item, from);
    insert(item, to);
  }

  /// Calls `fn(T*)` for every item in a cell that intersects the disc of
  /// `radius_m` around `center`. Conservative: items up to one cell
  /// diagonal outside the disc may be visited. `fn` must not modify the
  /// grid.
  template <typename Fn>
  void for_each_within(const phy::Position& center, double radius_m,
                       Fn&& fn) const {
    LM_ASSERT(initialized());
    if (radius_m < 0.0) return;
    // A query disc spanning more cells than the grid holds non-empty ones
    // degenerates to a full scan — iterate the buckets directly instead of
    // walking an enormous coordinate range.
    const double cells_across = 2.0 * radius_m / cell_size_m_ + 2.0;
    if (cells_across * cells_across > static_cast<double>(occupied_) * 4.0 ||
        cells_across > 1e6) {
      for (const Cell& cell : cells_) {
        for (T* item : cell.items) fn(item);
      }
      return;
    }
    const std::int64_t cx_lo = coord(center.x - radius_m);
    const std::int64_t cx_hi = coord(center.x + radius_m);
    const std::int64_t cy_lo = coord(center.y - radius_m);
    const std::int64_t cy_hi = coord(center.y + radius_m);
    for (std::int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
      for (std::int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
        // Skip cells whose nearest point is beyond the radius.
        const double dx = axis_distance(center.x, cx);
        const double dy = axis_distance(center.y, cy);
        if (dx * dx + dy * dy > radius_m * radius_m) continue;
        const Cell* cell = find(pack(cx, cy));
        if (cell == nullptr) continue;
        for (T* item : cell->items) fn(item);
      }
    }
  }

 private:
  struct Cell {
    std::uint64_t key = 0;
    std::vector<T*> items;
  };

  std::int64_t coord(double v) const {
    return static_cast<std::int64_t>(std::floor(v / cell_size_m_));
  }

  static std::uint64_t pack(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }

  std::uint64_t key_of(const phy::Position& pos) const {
    return pack(coord(pos.x), coord(pos.y));
  }

  /// Home slot: the top bits of a Fibonacci-multiplied key, which mixes
  /// both packed halves into the index.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  const Cell* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      const std::uint32_t slot = slots_[i];
      if (slot == 0) return nullptr;
      if (cells_[slot - 1].key == key) return &cells_[slot - 1];
    }
  }
  Cell* find(std::uint64_t key) {
    return const_cast<Cell*>(std::as_const(*this).find(key));
  }

  /// Points the first free slot on `key`'s probe path at cells_[index].
  void place(std::uint64_t key, std::size_t index) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(index + 1);
  }

  /// The cell for `key`, claiming one when it has none. Keeps the slot
  /// load factor at or below one half.
  Cell& claim(std::uint64_t key) {
    if (Cell* cell = find(key)) return *cell;
    if ((cells_.size() + 1) * 2 > slots_.size()) regrow();
    cells_.push_back(Cell{key, {}});
    place(key, cells_.size() - 1);
    return cells_.back();
  }

  /// Drops the cells that have emptied and rebuilds the slot table at four
  /// times the remaining count (at least 16 slots).
  void regrow() {
    std::erase_if(cells_, [](const Cell& cell) { return cell.items.empty(); });
    const std::size_t want =
        std::bit_ceil(std::max<std::size_t>(16, 4 * (cells_.size() + 1)));
    slots_.assign(want, 0);
    shift_ = 64 - std::countr_zero(want);
    for (std::size_t i = 0; i < cells_.size(); ++i) place(cells_[i].key, i);
  }

  /// Distance from `v` to the nearest edge of cell index `c` along one
  /// axis; 0 when `v` lies inside that cell's span.
  double axis_distance(double v, std::int64_t c) const {
    const double lo = static_cast<double>(c) * cell_size_m_;
    const double hi = lo + cell_size_m_;
    if (v < lo) return lo - v;
    if (v > hi) return v - hi;
    return 0.0;
  }

  double cell_size_m_ = 0.0;
  std::vector<std::uint32_t> slots_;  // 0 = free, else 1 + index into cells_
  std::vector<Cell> cells_;           // every claimed cell, possibly empty
  int shift_ = 64;                    // 64 - log2(slots_.size())
  std::size_t occupied_ = 0;          // cells with at least one item
  std::size_t size_ = 0;
};

}  // namespace lm::radio
