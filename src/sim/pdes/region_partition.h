// Spatial decomposition of a node field into contiguous regions.
//
// The conservative engine (sim/pdes/parallel_engine.h) gives each region
// its own event loop; regions only have to exchange messages about
// transmissions that can physically reach a neighbor. TilePartition cuts
// the field into an R x C grid with every tile at least one interaction
// radius ("halo") on both axes: a transmission in tile (i, j) can affect at
// most its 8-neighborhood, and the region count scales with field *area*
// instead of one dimension. Its 1 x C collapse, TilePartition::stripes, is
// the x-axis stripe split: a transmission in stripe r can affect at most
// stripes r-1 and r+1, so the ghost exchange stays 2-neighbor-adjacent.
//
// The decomposition is a pure function of the node coordinates, the halo
// and the region cap — never of the worker count — which is one of the two
// pillars of cross-worker-count determinism (the other is the fixed
// barrier-exchange order in the engine).
#pragma once

#include <cstddef>
#include <vector>

namespace lm::sim::pdes {

/// One axis of a tile grid: the stripe cut generalized to either dimension.
/// Degenerate (count 1, width 0) when the axis extent is under one halo.
struct AxisCut {
  double lo = 0.0;
  double width = 0.0;  // 0 with count == 1
  std::size_t count = 1;

  /// Cuts `[min(vs), max(vs)]` into equal segments of length >= `halo_m`,
  /// capped at `max_segments` (0 = uncapped). Fields whose extent is
  /// smaller than one halo — every topology where all nodes interact
  /// directly — collapse to one segment, because no cut could then
  /// separate two non-interacting nodes.
  static AxisCut make(const std::vector<double>& vs, double halo_m,
                      std::size_t max_segments);

  /// Segment index owning `v`, clamped to the outer segments.
  std::size_t index_of(double v) const;
  double edge(std::size_t i) const {
    return lo + width * static_cast<double>(i);
  }
};

class TilePartition {
 public:
  /// One tile covering everything: the serial collapse.
  TilePartition() = default;

  /// Decomposes the (x, y) bounding box of the nodes into an R x C grid
  /// with every tile >= `halo_m` on both axes. `max_regions` caps the total
  /// tile count (0 = uncapped); when the natural grid exceeds it, the
  /// longer axis loses tiles first, so a linear field degrades exactly like
  /// the capped stripe split. `forced_rows`/`forced_cols` (0 = natural)
  /// request an explicit grid for benches/tests; requests wider than the
  /// halo admits are clamped to the admissible count with a logged note —
  /// never an assert — so degenerate fields simply fall back to fewer
  /// tiles.
  static TilePartition make(const std::vector<double>& xs,
                            const std::vector<double>& ys, double halo_m,
                            std::size_t max_regions,
                            std::size_t forced_rows = 0,
                            std::size_t forced_cols = 0);

  /// The 1-row collapse: x-axis stripes of width >= `halo_m`, at most
  /// `max_regions` of them (0 = uncapped). Bit-for-bit make(xs, ys, ...)
  /// with every y equal: same cut arithmetic, same region ids.
  static TilePartition stripes(const std::vector<double>& xs, double halo_m,
                               std::size_t max_regions);

  std::size_t count() const { return rows_.count * cols_.count; }
  std::size_t rows() const { return rows_.count; }
  std::size_t cols() const { return cols_.count; }

  /// Region id owning position (x, y): row-major over the grid, clamped to
  /// the outer tiles so mobile nodes past the original extent stay
  /// assigned. With one row this is the stripe index of `x`.
  std::size_t region_of(double x, double y) const {
    return row_of(y) * cols_.count + col_of(x);
  }
  std::size_t col_of(double x) const { return cols_.index_of(x); }
  std::size_t row_of(double y) const { return rows_.index_of(y); }

  double col_width() const { return cols_.width; }
  double row_height() const { return rows_.width; }
  /// Left boundary of column `c` / bottom boundary of row `r`.
  double left_edge(std::size_t c) const { return cols_.edge(c); }
  double bottom_edge(std::size_t r) const { return rows_.edge(r); }

 private:
  AxisCut cols_;  // x axis
  AxisCut rows_;  // y axis
};

}  // namespace lm::sim::pdes
