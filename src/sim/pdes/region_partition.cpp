#include "sim/pdes/region_partition.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"
#include "support/log.h"

namespace lm::sim::pdes {

AxisCut AxisCut::make(const std::vector<double>& vs, double halo_m,
                      std::size_t max_segments) {
  AxisCut a;
  if (vs.empty() || halo_m <= 0.0) return a;
  const auto [lo, hi] = std::minmax_element(vs.begin(), vs.end());
  const double extent = *hi - *lo;
  // Segments narrower than the halo would let a transmission reach past the
  // adjacent segment; the floor keeps every segment at least one halo wide.
  std::size_t count = extent > halo_m
                          ? static_cast<std::size_t>(extent / halo_m)
                          : std::size_t{1};
  if (max_segments > 0) count = std::min(count, max_segments);
  if (count <= 1) return a;
  a.lo = *lo;
  a.width = extent / static_cast<double>(count);
  a.count = count;
  return a;
}

std::size_t AxisCut::index_of(double v) const {
  if (count <= 1) return 0;
  const double offset = (v - lo) / width;
  if (offset <= 0.0) return 0;
  const auto i = static_cast<std::size_t>(offset);
  return std::min(i, count - 1);
}

namespace {

// Re-cuts an axis to exactly `count` segments (the natural cut decided the
// admissible maximum; caps and forced grids only ever shrink it).
AxisCut recut(const std::vector<double>& vs, std::size_t count) {
  AxisCut a;
  if (count <= 1 || vs.empty()) return a;
  const auto [lo, hi] = std::minmax_element(vs.begin(), vs.end());
  a.lo = *lo;
  a.width = (*hi - *lo) / static_cast<double>(count);
  a.count = count;
  return a;
}

std::size_t clamp_forced(std::size_t natural, std::size_t forced,
                         const char* axis) {
  if (forced == 0 || forced <= natural) return forced > 0 ? forced : natural;
  LM_WARN("pdes", "forced %zu %s tiles exceed what the halo admits; "
          "falling back to %zu", forced, axis, natural);
  return natural;
}

}  // namespace

TilePartition TilePartition::make(const std::vector<double>& xs,
                                  const std::vector<double>& ys, double halo_m,
                                  std::size_t max_regions,
                                  std::size_t forced_rows,
                                  std::size_t forced_cols) {
  LM_REQUIRE(xs.size() == ys.size());
  TilePartition p;
  if (xs.empty() || halo_m <= 0.0) return p;
  // Natural (uncapped) admissible counts per axis — the halo floor.
  std::size_t cols = AxisCut::make(xs, halo_m, 0).count;
  std::size_t rows = AxisCut::make(ys, halo_m, 0).count;
  cols = clamp_forced(cols, forced_cols, "column");
  rows = clamp_forced(rows, forced_rows, "row");
  if (max_regions > 0) {
    const std::size_t admitted_cols = cols;
    const std::size_t admitted_rows = rows;
    // Shed tiles from the longer axis first; with one row this reduces to
    // the stripe cap min(count, max_regions) exactly.
    while (cols * rows > max_regions) {
      if (cols >= rows && cols > 1) {
        --cols;
      } else if (rows > 1) {
        --rows;
      } else {
        break;
      }
    }
    // An explicitly forced grid silently reshaped by the cap would make
    // sweep results mislabeled; say so, mirroring the halo-clamp warning.
    if ((forced_rows > 0 && rows < admitted_rows) ||
        (forced_cols > 0 && cols < admitted_cols)) {
      LM_WARN("pdes", "forced %zux%zu tile grid exceeds max_regions=%zu; "
              "shed to %zux%zu", admitted_rows, admitted_cols, max_regions,
              rows, cols);
    }
  }
  p.cols_ = recut(xs, cols);
  p.rows_ = recut(ys, rows);
  return p;
}

TilePartition TilePartition::stripes(const std::vector<double>& xs,
                                     double halo_m, std::size_t max_regions) {
  TilePartition p;
  p.cols_ = AxisCut::make(xs, halo_m, max_regions);
  return p;
}

}  // namespace lm::sim::pdes
