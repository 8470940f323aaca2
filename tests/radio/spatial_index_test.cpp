// Property test for SpatialGrid's open-addressed cell table. Seeded
// insert/remove/move histories (negative coordinates, a far outlier, dozens
// of items sharing one cell, enough distinct cells to regrow the table
// several times) run against a reference copy of the original
// std::unordered_map-of-buckets grid. After every step a batch of random
// range queries must visit no item twice, visit every item inside the
// radius, and visit exactly the set the reference grid returns — which
// keeps the channel's delivery and interference candidate sets, and hence
// the culled-vs-below-sensitivity attribution, unchanged.
#include "radio/spatial_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "phy/geometry.h"
#include "support/rng.h"

namespace lm::radio {
namespace {

/// The hash-map grid the open-addressed table replaced, kept verbatim in
/// its query semantics (cell size, key packing, disc test, full-scan rule).
template <typename T>
class ReferenceGrid {
 public:
  explicit ReferenceGrid(double cell_size_m) : cell_size_m_(cell_size_m) {}

  void insert(T* item, const phy::Position& pos) {
    cells_[key_of(pos)].push_back(item);
  }

  void remove(T* item, const phy::Position& pos) {
    auto it = cells_.find(key_of(pos));
    ASSERT_NE(it, cells_.end());
    auto& bucket = it->second;
    const auto b = std::find(bucket.begin(), bucket.end(), item);
    ASSERT_NE(b, bucket.end());
    bucket.erase(b);
    if (bucket.empty()) cells_.erase(it);
  }

  template <typename Fn>
  void for_each_within(const phy::Position& center, double radius_m,
                       Fn&& fn) const {
    if (radius_m < 0.0) return;
    const double cells_across = 2.0 * radius_m / cell_size_m_ + 2.0;
    if (cells_across * cells_across > static_cast<double>(cells_.size()) * 4.0 ||
        cells_across > 1e6) {
      for (const auto& [key, bucket] : cells_) {
        for (T* item : bucket) fn(item);
      }
      return;
    }
    const std::int64_t cx_lo = coord(center.x - radius_m);
    const std::int64_t cx_hi = coord(center.x + radius_m);
    const std::int64_t cy_lo = coord(center.y - radius_m);
    const std::int64_t cy_hi = coord(center.y + radius_m);
    for (std::int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
      for (std::int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
        const double dx = axis_distance(center.x, cx);
        const double dy = axis_distance(center.y, cy);
        if (dx * dx + dy * dy > radius_m * radius_m) continue;
        const auto it = cells_.find(pack(cx, cy));
        if (it == cells_.end()) continue;
        for (T* item : it->second) fn(item);
      }
    }
  }

 private:
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
  double axis_distance(double v, std::int64_t c) const {
    const double lo = static_cast<double>(c) * cell_size_m_;
    const double hi = lo + cell_size_m_;
    if (v < lo) return lo - v;
    if (v > hi) return v - hi;
    return 0.0;
  }

  double cell_size_m_;
  std::unordered_map<std::uint64_t, std::vector<T*>> cells_;
};

struct Item {
  int id = 0;
  phy::Position pos;
  bool present = false;
};

constexpr double kCell = 100.0;

class Harness {
 public:
  explicit Harness(std::uint64_t seed, std::size_t n) : rng_(seed), items_(n) {
    grid_.reset(kCell);
    for (std::size_t i = 0; i < n; ++i) items_[i].id = static_cast<int>(i);
  }

  /// A position drawn from a mix of regimes: a field straddling the
  /// origin, one crowded cell, a band of fresh cells marching outward (to
  /// force regrowth), and a far outlier.
  phy::Position draw_position() {
    switch (rng_.uniform_int(0, 9)) {
      case 0:  // dozens of items in one cell (negative coordinates)
        return {-250.0 + rng_.uniform(0.0, 99.0), -150.0 + rng_.uniform(0.0, 99.0)};
      case 1:  // far outlier
        return {rng_.bernoulli(0.5) ? 3.0e6 : -2.5e6, rng_.uniform(-1e5, 1e5)};
      case 2: {  // a new distinct cell each time
        const double k = static_cast<double>(fresh_++);
        return {50.0 + kCell * std::fmod(k, 97.0), -50.0 - kCell * std::floor(k / 97.0)};
      }
      default:
        return {rng_.uniform(-3000.0, 3000.0), rng_.uniform(-3000.0, 3000.0)};
    }
  }

  void step() {
    Item& it = items_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(items_.size()) - 1))];
    if (!it.present) {
      it.pos = draw_position();
      grid_.insert(&it, it.pos);
      ref_.insert(&it, it.pos);
      it.present = true;
    } else if (rng_.bernoulli(0.3)) {
      grid_.remove(&it, it.pos);
      ref_.remove(&it, it.pos);
      it.present = false;
    } else {
      // Mostly short hops (often within the cell), sometimes a jump.
      const phy::Position to =
          rng_.bernoulli(0.6)
              ? phy::Position{it.pos.x + rng_.uniform(-60.0, 60.0),
                              it.pos.y + rng_.uniform(-60.0, 60.0)}
              : draw_position();
      grid_.move(&it, it.pos, to);
      ref_.remove(&it, it.pos);
      ref_.insert(&it, to);
      it.pos = to;
    }
  }

  void check_queries(int count) {
    std::size_t present = 0;
    for (const Item& it : items_) present += it.present ? 1 : 0;
    ASSERT_EQ(grid_.size(), present);
    for (int q = 0; q < count; ++q) {
      const phy::Position center = rng_.bernoulli(0.1)
                                       ? draw_position()
                                       : phy::Position{rng_.uniform(-3500.0, 3500.0),
                                                       rng_.uniform(-3500.0, 3500.0)};
      // Radii from sub-cell to "covers everything" (the full-scan rule).
      const double radius = rng_.bernoulli(0.1) ? rng_.uniform(1e5, 1e7)
                                                : rng_.uniform(0.0, 1500.0);
      std::vector<int> got;
      grid_.for_each_within(center, radius, [&](Item* i) { got.push_back(i->id); });
      std::vector<int> want;
      ref_.for_each_within(center, radius, [&](Item* i) { want.push_back(i->id); });
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
          << "an item was visited twice";
      for (const Item& it : items_) {
        if (it.present && phy::distance_m(it.pos, center) <= radius) {
          ASSERT_TRUE(std::binary_search(got.begin(), got.end(), it.id))
              << "item " << it.id << " inside the radius was missed";
        }
      }
      ASSERT_EQ(got, want);
    }
  }

  std::size_t capacity() const { return grid_.capacity(); }

 private:
  Rng rng_;
  std::vector<Item> items_;
  SpatialGrid<Item> grid_;
  ReferenceGrid<Item> ref_{kCell};
  int fresh_ = 0;
};

TEST(SpatialGrid, MatchesReferenceGridOverRandomHistories) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Harness h(seed, 400);
    std::size_t regrowths = 0;
    std::size_t last_capacity = h.capacity();
    for (int step = 0; step < 3000; ++step) {
      h.step();
      if (h.capacity() != last_capacity) {
        ++regrowths;
        last_capacity = h.capacity();
      }
      h.check_queries(step % 10 == 0 ? 8 : 1);
      if (testing::Test::HasFatalFailure()) return;
    }
    // The history must actually exercise the table's rebuild path.
    EXPECT_GE(regrowths, 3u);
  }
}

TEST(SpatialGrid, EmptiedCellsKeepTheirSlotAndStayInvisible) {
  SpatialGrid<Item> grid;
  grid.reset(kCell);
  std::vector<Item> items(40);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].id = static_cast<int>(i);
    items[i].pos = {-5.0 - 10.0 * static_cast<double>(i % 4), 7.0};  // one cell
    grid.insert(&items[i], items[i].pos);
  }
  const std::size_t capacity = grid.capacity();
  for (Item& it : items) grid.remove(&it, it.pos);
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_EQ(grid.capacity(), capacity);
  int visited = 0;
  grid.for_each_within({0.0, 0.0}, 500.0, [&](Item*) { ++visited; });
  grid.for_each_within({0.0, 0.0}, 1e9, [&](Item*) { ++visited; });
  EXPECT_EQ(visited, 0);
  // Refilling the emptied cell reuses its slot.
  grid.insert(&items[0], items[0].pos);
  EXPECT_EQ(grid.capacity(), capacity);
  grid.for_each_within({0.0, 0.0}, 50.0, [&](Item* i) { visited += i->id + 1; });
  EXPECT_EQ(visited, 1);
}

}  // namespace
}  // namespace lm::radio
